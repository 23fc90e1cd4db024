/**
 * @file
 * Cycle-skip equivalence tests: System::run's event-driven skip-ahead
 * loop must be a pure reordering of when work is simulated, never of what
 * happens. The dense cycle-by-cycle reference loop is kept behind the
 * BH_DENSE_TICK=1 environment flag; for several mixes the ResultLog JSON
 * produced by both loops must be byte-identical, and the raw run results
 * (including the stall counters the skip loop accounts in batches) must
 * match field by field.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "sim/scheduler.h"
#include "stats/result_log.h"

namespace bh {
namespace {

constexpr std::uint64_t kInsts = 20000;

/** Scoped BH_DENSE_TICK toggle (System::run reads it per call). */
class DenseTickGuard
{
  public:
    explicit DenseTickGuard(bool dense)
    {
        if (dense)
            ::setenv("BH_DENSE_TICK", "1", 1);
        else
            ::unsetenv("BH_DENSE_TICK");
    }
    ~DenseTickGuard() { ::unsetenv("BH_DENSE_TICK"); }
};

ExperimentConfig
mixConfig(const char *pattern, MitigationType mech, unsigned n_rh,
          bool bh_on)
{
    ExperimentConfig cfg;
    cfg.mix = makeMix(pattern, 0);
    cfg.mechanism = mech;
    cfg.nRh = n_rh;
    cfg.breakHammer = bh_on;
    cfg.instructions = kInsts;
    return cfg;
}

/** Eight mixes spanning the interesting regimes: a benign mix under a
 *  maintenance-heavy mechanism, an attack mix with BreakHammer throttling
 *  (reject-blocked attacker, batched stall accounting), an attack mix
 *  whose mechanism issues rank-wide blackouts (PRAC alert back-off), and
 *  two ACT-delaying BlockHammer regimes — the same mixes the Graphene and
 *  PRAC rows use, one at moderate N_RH and one at low N_RH where the
 *  RowBlocker delays benign rows too, so epoch rollovers, blacklist
 *  delays, and AttackThrottler quota resets all fire inside the skip
 *  window. A sixth regime runs the adversarial engine: a red-team probe
 *  whose rotating adaptive attackers observe their own throttling —
 *  adaptation decisions are counted in emitted records, so the decision
 *  sequence (and thus every result byte) must survive the reordering.
 *  The Graphene + BreakHammer attack mix on four channels leaves idle
 *  controllers to the per-controller wake skip while busy ones tick, and
 *  an AQUA attack mix puts long migration blackouts on the maintenance
 *  wake path. */
std::vector<ExperimentConfig>
skipGrid()
{
    ExperimentConfig redteam =
        mixConfig("MMAA", MitigationType::kPara, 512, true);
    redteam.redteam = "pat=double,obs=32,bub=64,grp=2,ho=256";
    ExperimentConfig four_channels =
        mixConfig("HHMA", MitigationType::kGraphene, 512, true);
    four_channels.channels = 4;
    return {
        mixConfig("HHMM", MitigationType::kHydra, 512, false),
        mixConfig("HHMA", MitigationType::kGraphene, 512, true),
        mixConfig("LLLA", MitigationType::kPrac, 256, true),
        mixConfig("HHMA", MitigationType::kBlockHammer, 512, false),
        mixConfig("LLLA", MitigationType::kBlockHammer, 128, false),
        redteam,
        four_channels,
        mixConfig("MMLA", MitigationType::kAqua, 256, true),
    };
}

std::string
runLogJson(const std::vector<ExperimentConfig> &grid, bool dense)
{
    DenseTickGuard guard(dense);
    ResultLog log;
    SchedulerOptions options;
    options.threads = 1;
    options.log = &log;
    ExperimentScheduler scheduler(options);
    scheduler.run(grid);
    return log.toJson().dump(2);
}

TEST(SystemSkipTest, ResultLogJsonByteIdenticalToDenseTick)
{
    std::vector<ExperimentConfig> grid = skipGrid();
    std::string event_json = runLogJson(grid, false);
    std::string dense_json = runLogJson(grid, true);
    EXPECT_EQ(event_json, dense_json);
}

TEST(SystemSkipTest, RawRunResultsMatchDenseTickFieldByField)
{
    for (const ExperimentConfig &cfg : skipGrid()) {
        ExperimentResult event_r, dense_r;
        {
            DenseTickGuard guard(false);
            event_r = runExperiment(cfg);
        }
        {
            DenseTickGuard guard(true);
            dense_r = runExperiment(cfg);
        }
        SCOPED_TRACE(cfg.mix.name + "/" + mitigationName(cfg.mechanism));
        EXPECT_EQ(event_r.raw.cycles, dense_r.raw.cycles);
        EXPECT_EQ(event_r.raw.demandActs, dense_r.raw.demandActs);
        EXPECT_EQ(event_r.raw.preventiveActions,
                  dense_r.raw.preventiveActions);
        EXPECT_EQ(event_r.raw.suspectMarks, dense_r.raw.suspectMarks);
        EXPECT_EQ(event_r.raw.quotaRejections, dense_r.raw.quotaRejections);
        EXPECT_EQ(event_r.raw.energyNj, dense_r.raw.energyNj);
        EXPECT_EQ(event_r.raw.demandActsPerThread,
                  dense_r.raw.demandActsPerThread);
        ASSERT_EQ(event_r.raw.cores.size(), dense_r.raw.cores.size());
        for (std::size_t i = 0; i < event_r.raw.cores.size(); ++i) {
            const CoreResult &a = event_r.raw.cores[i];
            const CoreResult &b = dense_r.raw.cores[i];
            EXPECT_EQ(a.retired, b.retired);
            EXPECT_EQ(a.finishCycle, b.finishCycle);
            // Skipped cycles account reject stalls in one batch; the
            // total must still match the per-cycle reference count.
            EXPECT_EQ(a.rejectStalls, b.rejectStalls);
            EXPECT_EQ(a.ipc, b.ipc);
        }
        EXPECT_TRUE(event_r.raw.benignReadLatencyNs ==
                    dense_r.raw.benignReadLatencyNs);
    }
}

TEST(SystemSkipTest, SkipLoopIsNotSlowerInCycleCount)
{
    // Sanity: both loops terminate at the same cycle even when a run hits
    // the cycle cap (the skip loop clamps its jumps to max_cycles).
    ExperimentConfig cfg =
        mixConfig("MMLL", MitigationType::kNone, 1024, false);
    cfg.instructions = 2000;

    SystemConfig sys;
    sys.numCores = static_cast<unsigned>(cfg.mix.slots.size());
    System event_system(sys, cfg.mix.slots);
    RunResult event_r = event_system.run(cfg.instructions, 3000);

    DenseTickGuard guard(true);
    System dense_system(sys, cfg.mix.slots);
    RunResult dense_r = dense_system.run(cfg.instructions, 3000);

    EXPECT_EQ(event_r.cycles, dense_r.cycles);
    EXPECT_EQ(event_r.hitCycleCap, dense_r.hitCycleCap);
    for (std::size_t i = 0; i < event_r.cores.size(); ++i)
        EXPECT_EQ(event_r.cores[i].retired, dense_r.cores[i].retired);
}

TEST(SystemSkipTest, RollCadenceAndWindowWakeupShareOneGrid)
{
    // The dense loop calls rollWindows at isRollCycle() marks; the skip
    // loop wakes for a window boundary at nextRollCycleAtOrAfter(). Both
    // are defined on System::kRollPeriodMask; this test fails if either
    // helper is ever changed without the other: the wake-up must be
    // exactly the FIRST cycle at which the dense loop would roll.
    static_assert(((System::kRollPeriodMask + 1) &
                   System::kRollPeriodMask) == 0,
                  "roll cadence must be a power-of-two grid");

    auto first_roll_at_or_after = [](Cycle c) {
        // Reference definition straight from the dense-loop predicate.
        Cycle x = c;
        while (!System::isRollCycle(x))
            ++x;
        return x;
    };

    std::vector<Cycle> probes = {0, 1, 2, System::kRollPeriodMask,
                                 System::kRollPeriodMask + 1,
                                 System::kRollPeriodMask + 2,
                                 12345, 4096, 4097, 8191, 8192,
                                 (1ull << 32) - 1, 1ull << 32,
                                 (1ull << 32) + 1};
    for (Cycle boundary : probes) {
        EXPECT_EQ(System::nextRollCycleAtOrAfter(boundary),
                  first_roll_at_or_after(boundary))
            << "window boundary " << boundary;
    }
}

} // namespace
} // namespace bh
