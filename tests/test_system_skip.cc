/**
 * @file
 * Cycle-skip equivalence tests: System::run's event-driven skip-ahead
 * loop must be a pure reordering of when work is simulated, never of what
 * happens. The dense cycle-by-cycle reference loop is kept behind
 * RunContext::denseTick (System::CheckpointConfig::denseTick for a bare
 * System; bh_bench sets it from BH_DENSE_TICK=1). For several mixes the
 * result JSON produced by both loops must be byte-identical, and the raw
 * run results (including the stall counters the skip loop accounts in
 * batches) must match field by field.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/experiment.h"

namespace bh {
namespace {

constexpr std::uint64_t kInsts = 20000;

/** A bare System that runs the dense or the event-driven loop. */
void
selectLoop(System &system, bool dense)
{
    System::CheckpointConfig config;
    config.denseTick = dense;
    system.setCheckpoint(config);
}

/** The run context selecting the dense or the event-driven loop. */
RunContext
loopContext(bool dense)
{
    RunContext ctx;
    ctx.denseTick = dense;
    return ctx;
}

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

/** Nine mixes spanning the interesting regimes: a benign mix under a
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
 *  wake path. With 20k-cycle BreakHammer windows, a window end that
 *  gives a throttled thread its quota back is often the only event that
 *  frees its reject-blocked retry. */
std::vector<ExperimentConfig>
skipGrid()
{
    ExperimentConfig redteam =
        mixConfig("MMAA", MitigationType::kPara, 512, true);
    redteam.redteam = "pat=double,obs=32,bub=64,grp=2,ho=256";
    ExperimentConfig four_channels =
        mixConfig("HHMA", MitigationType::kGraphene, 512, true);
    four_channels.channels = 4;
    ExperimentConfig short_windows =
        mixConfig("HHMA", MitigationType::kRfm, 128, true);
    short_windows.bh = scaledBreakHammerConfig(kInsts);
    short_windows.bh.window = 20000;
    return {
        mixConfig("HHMM", MitigationType::kHydra, 512, false),
        mixConfig("HHMA", MitigationType::kGraphene, 512, true),
        mixConfig("LLLA", MitigationType::kPrac, 256, true),
        mixConfig("HHMA", MitigationType::kBlockHammer, 512, false),
        mixConfig("LLLA", MitigationType::kBlockHammer, 128, false),
        redteam,
        four_channels,
        mixConfig("MMLA", MitigationType::kAqua, 256, true),
        short_windows,
    };
}

std::string
runGridJson(const std::vector<ExperimentConfig> &grid, bool dense)
{
    JsonValue records = JsonValue::array();
    for (const ExperimentConfig &cfg : grid)
        records.push(experimentResultToJson(
            cfg, runExperiment(cfg, loopContext(dense))));
    return records.dump(2);
}

/** Every field of two raw run results, compared exactly. */
void
expectRunResultsMatch(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.energyNj, b.energyNj);
    EXPECT_EQ(a.preventiveEnergyNj, b.preventiveEnergyNj);
    EXPECT_EQ(a.preventiveActions, b.preventiveActions);
    EXPECT_EQ(a.demandActs, b.demandActs);
    EXPECT_EQ(a.suspectMarks, b.suspectMarks);
    EXPECT_EQ(a.quotaRejections, b.quotaRejections);
    EXPECT_EQ(a.oracleViolations, b.oracleViolations);
    EXPECT_EQ(a.oracleMaxCount, b.oracleMaxCount);
    EXPECT_EQ(a.bhScores, b.bhScores);
    EXPECT_EQ(a.bhQuotas, b.bhQuotas);
    EXPECT_EQ(a.demandActsPerThread, b.demandActsPerThread);
    EXPECT_TRUE(a.benignReadLatencyNs == b.benignReadLatencyNs);
    EXPECT_EQ(a.hitCycleCap, b.hitCycleCap);
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        const CoreResult &x = a.cores[i];
        const CoreResult &y = b.cores[i];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.benign, y.benign);
        EXPECT_EQ(x.retired, y.retired);
        EXPECT_EQ(x.finishCycle, y.finishCycle);
        // Skipped cycles account reject stalls in one batch; the total
        // must still match the per-cycle reference count.
        EXPECT_EQ(x.rejectStalls, y.rejectStalls);
        EXPECT_EQ(x.ipc, y.ipc);
    }
}

TEST(SystemSkipTest, ResultJsonByteIdenticalToDenseTick)
{
    std::vector<ExperimentConfig> grid = skipGrid();
    std::string event_json = runGridJson(grid, false);
    std::string dense_json = runGridJson(grid, true);
    EXPECT_EQ(event_json, dense_json);
}

TEST(SystemSkipTest, RawRunResultsMatchDenseTickFieldByField)
{
    for (const ExperimentConfig &cfg : skipGrid()) {
        ExperimentResult event_r = runExperiment(cfg, loopContext(false));
        ExperimentResult dense_r = runExperiment(cfg, loopContext(true));
        SCOPED_TRACE(cfg.mix.name + "/" + mitigationName(cfg.mechanism));
        expectRunResultsMatch(event_r.raw, dense_r.raw);
    }
}

/** The raw result and per-channel writes served of one System run. */
struct SystemRun
{
    RunResult raw;
    std::vector<std::uint64_t> writesServed;
};

SystemRun
runSystem(const SystemConfig &sys, const std::vector<WorkloadSlot> &slots,
          bool dense)
{
    System system(sys, slots);
    selectLoop(system, dense);
    SystemRun out;
    out.raw = system.run(kInsts, kInsts * 150);
    for (unsigned ch = 0; ch < system.numChannels(); ++ch)
        out.writesServed.push_back(system.controller(ch).writesServed());
    return out;
}

TEST(SystemSkipTest, WriteHeavyRunMatchesDenseTick)
{
    // A store-streaming core (lbm_like writes 40% of its accesses) behind
    // a 16 KiB LLC: dirty evictions keep a few writes queued while the
    // read queue runs dry between the core's misses. That is where the
    // write-drain step would flip every cycle if a tick that issues
    // nothing stored it; the controller stores the mode only when a
    // demand command issues, so the cycles the skip loop leaves it
    // unticked change nothing. The regimes above are read-dominated at
    // this horizon and never reach that state. On four channels most
    // controllers sit out most wakes, so the unvisited spans are long.
    struct Regime
    {
        std::vector<const char *> apps;
        MitigationType mechanism;
        unsigned channels = 1;
    };
    const Regime regimes[] = {
        {{"lbm_like"}, MitigationType::kNone},
        {{"lbm_like", "namd_like"}, MitigationType::kGraphene},
        {{"lbm_like", "lbm_like", "namd_like"}, MitigationType::kHydra, 4},
    };
    for (const Regime &regime : regimes) {
        SCOPED_TRACE(mitigationName(regime.mechanism));
        SystemConfig sys;
        sys.numCores = static_cast<unsigned>(regime.apps.size());
        sys.spec.org.channels = regime.channels;
        sys.llc.sizeBytes = 16 << 10;
        sys.mitigation = regime.mechanism;
        sys.nRh = 512;
        std::vector<WorkloadSlot> slots(sys.numCores);
        for (std::size_t i = 0; i < slots.size(); ++i) {
            slots[i].kind = WorkloadSlot::Kind::kBenign;
            slots[i].appName = regime.apps[i];
        }

        SystemRun event_r = runSystem(sys, slots, false);
        SystemRun dense_r = runSystem(sys, slots, true);
        ASSERT_EQ(event_r.writesServed.size(), regime.channels);
        for (std::uint64_t served : event_r.writesServed)
            EXPECT_GT(served, sys.mc.wqHighWatermark);
        EXPECT_EQ(event_r.writesServed, dense_r.writesServed);
        expectRunResultsMatch(event_r.raw, dense_r.raw);
    }
}

TEST(SystemSkipTest, FullQueueRejectionsMatchDenseTick)
{
    // With four-entry read queues, cores are rejected on a full queue
    // more often than on their MSHR quota, and a column command that
    // frees a queue slot can be the only event that lets the retry in:
    // the skip loop must notice the dequeue itself.
    MixSpec mix = makeMix("HHMA", 0);
    SystemConfig sys;
    sys.numCores = static_cast<unsigned>(mix.slots.size());
    sys.mc.readQueueSize = 4;
    SystemRun event_r = runSystem(sys, mix.slots, false);
    SystemRun dense_r = runSystem(sys, mix.slots, true);
    EXPECT_EQ(event_r.writesServed, dense_r.writesServed);
    expectRunResultsMatch(event_r.raw, dense_r.raw);
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

    System dense_system(sys, cfg.mix.slots);
    selectLoop(dense_system, true);
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
