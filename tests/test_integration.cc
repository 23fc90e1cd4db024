/**
 * @file
 * Integration tests: full-system runs exercising the end-to-end behaviour
 * the paper's evaluation is built on — benign-only runs, attack runs,
 * BreakHammer's detection/throttling, and the mix/experiment helpers.
 */
#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "sim/mixes.h"
#include "sim/system.h"

namespace bh {
namespace {

constexpr std::uint64_t kInsts = 60000;
constexpr Cycle kCap = 40000000;

SystemConfig
baseConfig()
{
    SystemConfig cfg;
    cfg.bh.window = 150000;
    cfg.bh.thThreat = 2.0;
    return cfg;
}

std::vector<WorkloadSlot>
benignSlots()
{
    std::vector<WorkloadSlot> slots(4);
    slots[0].appName = "mcf_like";
    slots[1].appName = "lbm_like";
    slots[2].appName = "parest_like";
    slots[3].appName = "namd_like";
    return slots;
}

std::vector<WorkloadSlot>
attackSlots()
{
    std::vector<WorkloadSlot> slots = benignSlots();
    slots[3] = WorkloadSlot{};
    slots[3].kind = WorkloadSlot::Kind::kAttacker;
    return slots;
}

TEST(SystemTest, BenignRunCompletes)
{
    System sys(baseConfig(), benignSlots());
    RunResult r = sys.run(kInsts, kCap);
    EXPECT_FALSE(r.hitCycleCap);
    ASSERT_EQ(r.cores.size(), 4u);
    for (const CoreResult &c : r.cores) {
        EXPECT_TRUE(c.benign);
        EXPECT_GE(c.retired, kInsts);
        EXPECT_GT(c.ipc, 0.0);
        EXPECT_LT(c.ipc, 4.0); // Cannot exceed issue width.
    }
    EXPECT_GT(r.demandActs, 0u);
    EXPECT_GT(r.energyNj, 0.0);
}

TEST(SystemTest, LowIntensityAppHasHigherIpc)
{
    System sys(baseConfig(), benignSlots());
    RunResult r = sys.run(kInsts, kCap);
    // namd_like (low intensity) must outpace mcf_like (high intensity).
    EXPECT_GT(r.cores[3].ipc, r.cores[0].ipc);
}

TEST(SystemTest, AttackDegradesBenignPerformance)
{
    System benign(baseConfig(), benignSlots());
    RunResult rb = benign.run(kInsts, kCap);

    SystemConfig cfg = baseConfig();
    cfg.mitigation = MitigationType::kPara;
    cfg.nRh = 512;
    System attacked(cfg, attackSlots());
    RunResult ra = attacked.run(kInsts, kCap);

    // The attacker + preventive actions slow down the benign cores.
    double benign_ipc_sum = 0, attacked_ipc_sum = 0;
    for (int i = 0; i < 3; ++i) {
        benign_ipc_sum += rb.cores[i].ipc;
        attacked_ipc_sum += ra.cores[i].ipc;
    }
    EXPECT_LT(attacked_ipc_sum, benign_ipc_sum);
    EXPECT_GT(ra.preventiveActions, 0u);
}

TEST(SystemTest, BreakHammerDetectsAndThrottlesAttacker)
{
    SystemConfig cfg = baseConfig();
    cfg.mitigation = MitigationType::kPara;
    cfg.nRh = 512;
    cfg.breakHammer = true;
    System sys(cfg, attackSlots());
    RunResult r = sys.run(kInsts, kCap);

    EXPECT_GT(r.suspectMarks, 0u);
    EXPECT_GT(r.quotaRejections, 0u);
    // The attacker (slot 3) must be the suspect, not the benign apps.
    EXPECT_TRUE(sys.breakHammer()->isSuspect(3) ||
                sys.breakHammer()->wasRecentSuspect(3) ||
                sys.breakHammer()->quota(3) < 64);
}

TEST(SystemTest, BreakHammerImprovesBenignPerformanceUnderAttack)
{
    SystemConfig cfg = baseConfig();
    cfg.mitigation = MitigationType::kPara;
    cfg.nRh = 512;
    System base(cfg, attackSlots());
    RunResult rb = base.run(kInsts, kCap);

    cfg.breakHammer = true;
    System paired(cfg, attackSlots());
    RunResult rp = paired.run(kInsts, kCap);

    double base_sum = 0, paired_sum = 0;
    for (int i = 0; i < 3; ++i) {
        base_sum += rb.cores[i].ipc;
        paired_sum += rp.cores[i].ipc;
    }
    EXPECT_GT(paired_sum, base_sum * 1.02);
}

TEST(SystemTest, BreakHammerHarmlessWithoutAttacker)
{
    SystemConfig cfg = baseConfig();
    cfg.mitigation = MitigationType::kGraphene;
    cfg.nRh = 1024;
    System base(cfg, benignSlots());
    RunResult rb = base.run(kInsts, kCap);

    cfg.breakHammer = true;
    System paired(cfg, benignSlots());
    RunResult rp = paired.run(kInsts, kCap);

    double base_sum = 0, paired_sum = 0;
    for (int i = 0; i < 4; ++i) {
        base_sum += rb.cores[i].ipc;
        paired_sum += rp.cores[i].ipc;
    }
    // Within 5% of the unpaired baseline (paper: ~0.7% average change).
    EXPECT_NEAR(paired_sum, base_sum, base_sum * 0.05);
}

TEST(SystemTest, UncachedTrafficConsumesMshrs)
{
    SystemConfig cfg = baseConfig();
    System sys(cfg, attackSlots());
    RunResult r = sys.run(kInsts / 2, kCap);
    // The attacker's LLC-bypassing reads must reach DRAM in volume.
    EXPECT_GT(r.demandActs, 1000u);
}

TEST(SystemTest, LatencyHistogramPopulated)
{
    System sys(baseConfig(), benignSlots());
    RunResult r = sys.run(kInsts, kCap);
    EXPECT_GT(r.benignReadLatencyNs.count(), 100u);
    // Minimum DRAM latency is tens of ns; sanity-check the percentiles.
    EXPECT_GT(r.benignReadLatencyNs.percentile(50), 10.0);
    EXPECT_LT(r.benignReadLatencyNs.percentile(50), 2000.0);
}

TEST(SystemTest, EnergyGrowsWithPreventiveActions)
{
    SystemConfig cfg = baseConfig();
    cfg.mitigation = MitigationType::kPara;
    cfg.nRh = 128; // Aggressive PARA.
    System sys(cfg, attackSlots());
    RunResult r = sys.run(kInsts / 2, kCap);
    EXPECT_GT(r.preventiveEnergyNj, 0.0);
    EXPECT_LT(r.preventiveEnergyNj, r.energyNj);
}

TEST(MixTest, PatternsProduceCorrectSlots)
{
    MixSpec mix = makeMix("HHMA", 0);
    ASSERT_EQ(mix.slots.size(), 4u);
    EXPECT_EQ(mix.slots[3].kind, WorkloadSlot::Kind::kAttacker);
    EXPECT_EQ(findApp(mix.slots[0].appName).tier, IntensityTier::kHigh);
    EXPECT_EQ(findApp(mix.slots[2].appName).tier, IntensityTier::kMedium);
}

TEST(MixTest, SameTierSlotsGetDistinctApps)
{
    MixSpec mix = makeMix("HHHH", 0);
    EXPECT_NE(mix.slots[0].appName, mix.slots[1].appName);
    EXPECT_NE(mix.slots[1].appName, mix.slots[2].appName);
}

TEST(MixTest, IndicesRotateApps)
{
    MixSpec a = makeMix("HHLL", 0);
    MixSpec b = makeMix("HHLL", 1);
    EXPECT_NE(a.slots[0].appName, b.slots[0].appName);
}

TEST(MixTest, AllPatternsBuild)
{
    for (const std::string &p : benignMixPatterns())
        EXPECT_EQ(makeMix(p, 3).slots.size(), 4u);
    for (const std::string &p : attackMixPatterns()) {
        MixSpec mix = makeMix(p, 3);
        EXPECT_EQ(mix.slots.back().kind, WorkloadSlot::Kind::kAttacker);
        EXPECT_EQ(benignApps(mix).size(), 3u);
    }
}

TEST(ExperimentTest, SoloIpcIsCachedAndPositive)
{
    double a = soloIpc("namd_like", 30000);
    double b = soloIpc("namd_like", 30000);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GT(a, 0.5); // Low-intensity app runs near full width.
}

TEST(ExperimentTest, RunExperimentProducesMetrics)
{
    ExperimentConfig cfg;
    cfg.mix = makeMix("MMLA", 0);
    cfg.mechanism = MitigationType::kGraphene;
    cfg.nRh = 512;
    cfg.instructions = 40000;
    ExperimentResult r = runExperiment(cfg);
    EXPECT_GT(r.weightedSpeedup, 0.0);
    EXPECT_LE(r.weightedSpeedup, 3.3);
    EXPECT_GE(r.maxSlowdown, 1.0 - 0.3);
}

} // namespace
} // namespace bh
