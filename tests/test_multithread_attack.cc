/**
 * @file
 * Empirical §5.2 experiments: multi-threaded attacks against BreakHammer's
 * suspect identification on an 8-core system.
 *
 * Rigging: with few attack threads, each one is an outlier and gets
 * detected; once the attacker controls enough threads that
 * (1 + TH_outlier) * attacker_fraction >= 1, attack behaviour *is* the
 * mean and detection breaks down — exactly Expression 2's prediction.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "breakhammer/feedback.h"
#include "breakhammer/security_model.h"
#include "sim/redteam.h"
#include "sim/system.h"

namespace bh {
namespace {

/** Run an 8-core mix with @p attackers attacker threads; report marks. */
struct AttackOutcome
{
    std::uint64_t benignMarks = 0;
    std::uint64_t attackerMarks = 0;
};

AttackOutcome
runEightCore(unsigned attackers, double th_outlier)
{
    const unsigned cores = 8;
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.mitigation = MitigationType::kPara;
    cfg.nRh = 512;
    cfg.breakHammer = true;
    cfg.bh.window = 200000;
    cfg.bh.thThreat = 2.0;
    cfg.bh.thOutlier = th_outlier;

    const char *benign_apps[] = {"mcf_like",   "lbm_like",
                                 "parest_like", "tpcc_like",
                                 "namd_like",  "h264_like",
                                 "zeusmp_like", "cactus_like"};
    std::vector<WorkloadSlot> slots(cores);
    for (unsigned i = 0; i < cores; ++i) {
        if (i >= cores - attackers) {
            slots[i].kind = WorkloadSlot::Kind::kAttacker;
            slots[i].attacker.numBanks = 8;
        } else {
            slots[i].appName = benign_apps[i];
        }
    }

    System sys(cfg, slots);
    sys.run(50000, 15000000);

    AttackOutcome out;
    const BreakHammer *bh = sys.breakHammer();
    for (unsigned i = 0; i < cores; ++i) {
        bool marked = bh->isSuspect(i) || bh->wasRecentSuspect(i) ||
                      bh->quota(i) < 64;
        if (i >= cores - attackers) {
            out.attackerMarks += marked ? 1 : 0;
        } else {
            out.benignMarks += marked ? 1 : 0;
        }
    }
    return out;
}

TEST(MultiThreadAttackTest, SingleAttackerIsDetected)
{
    AttackOutcome out = runEightCore(1, 0.65);
    EXPECT_EQ(out.attackerMarks, 1u);
    // Benign misidentification exists but stays a small minority (the
    // paper itself reports 18.7% of simulations marking a benign app).
    EXPECT_LE(out.benignMarks, 2u);
}

TEST(MultiThreadAttackTest, TwoAttackersBothDetected)
{
    AttackOutcome out = runEightCore(2, 0.65);
    EXPECT_EQ(out.attackerMarks, 2u);
    EXPECT_LE(out.benignMarks, 2u);
}

TEST(MultiThreadAttackTest, RiggedMeanEvadesDetection)
{
    // 7 of 8 threads attack: fraction 0.875; with TH_outlier = 0.05 the
    // rigging bound (1.05 * 0.875 < 1) is barely not met, but with the
    // attack threads behaving identically none can exceed the mean by
    // 1.65x when they ARE 7/8 of the mean — at TH_outlier = 0.65 the
    // analytic bound is unbounded: (1 + 0.65) * 0.875 > 1.
    EXPECT_TRUE(std::isinf(maxAttackerScoreBound(0.875, 0.65)));
    AttackOutcome out = runEightCore(7, 0.65);
    // Detection collapses: most attack threads evade.
    EXPECT_LT(out.attackerMarks, 7u);
}

TEST(MultiThreadAttackTest, TighterOutlierRaisesTheBar)
{
    // Expression 2: lowering TH_outlier lowers the score an attacker can
    // reach undetected (monotonicity of the analytic bound).
    EXPECT_LT(maxAttackerScoreBound(0.5, 0.05),
              maxAttackerScoreBound(0.5, 0.65));
    EXPECT_LT(maxAttackerScoreBound(0.25, 0.05),
              maxAttackerScoreBound(0.25, 0.65));
}

TEST(MultiThreadAttackTest, OwnerAccumulationCatchesRotatingAdaptive)
{
    // The adversarial engine's hand-off rotation (§5.2 threat expressed
    // as a red-team strategy): two adaptive attacker threads alternate
    // ownership of the attack on a record-count epoch and back off when
    // their feedback view reports throttling. Per-thread suspect state
    // can collapse under this schedule — which is exactly why feedback.h
    // accumulates scores at the software-level owner. Polled on
    // scheduler-tick cadence, the monitor must rank the owner of the
    // rotating pair above every benign owner.
    const unsigned cores = 8;
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.mitigation = MitigationType::kPara;
    cfg.nRh = 512;
    cfg.breakHammer = true;
    cfg.bh.window = 200000;
    cfg.bh.thThreat = 2.0;
    cfg.bh.thOutlier = 0.65;

    const char *benign_apps[] = {"mcf_like",    "lbm_like",
                                 "parest_like", "tpcc_like",
                                 "namd_like",   "h264_like"};
    std::vector<WorkloadSlot> slots(cores);
    for (unsigned i = 0; i < 6; ++i)
        slots[i].appName = benign_apps[i];
    for (unsigned i = 6; i < cores; ++i)
        slots[i].kind = WorkloadSlot::Kind::kAttacker;

    RedteamStrategy strategy;
    strategy.pattern = AttackPattern::kDoubleSided;
    strategy.observeEvery = 64;
    strategy.maxBubbles = 8; // Shallow back-off: keep hammering hard.
    strategy.group = 2;
    strategy.handoffEpoch = 512;
    applyRedteamStrategy(strategy, &slots);
    ASSERT_EQ(slots[6].kind, WorkloadSlot::Kind::kAdaptiveAttacker);
    ASSERT_EQ(slots[7].adaptive.slotIndex, 1u);

    System sys(cfg, slots);
    SoftwareMonitor monitor(sys.breakHammer(), cores);
    const OwnerId attack_owner = 42;
    for (unsigned i = 0; i < 6; ++i)
        monitor.bind(i, 100 + i); // Each benign app its own process.
    for (unsigned i = 6; i < cores; ++i)
        monitor.bind(i, attack_owner); // One process owns both threads.

    // Scheduler-tick polling: poll every 4000 instructions of the slowest
    // benign core, so score increases are accredited before window resets
    // wipe the per-thread counters.
    System::CheckpointConfig polling;
    polling.onProgress = [&monitor](std::uint64_t) { monitor.poll(); };
    polling.progressEveryInsts = 4000;
    sys.setCheckpoint(polling);
    sys.run(48000, 15000000);
    monitor.poll();

    // The owner total crosses the threat threshold and dominates every
    // benign owner: the monitor's top suspect is the rotating pair's
    // process, regardless of what the per-thread marks say.
    EXPECT_GT(monitor.ownerScore(attack_owner), cfg.bh.thThreat);
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_GT(monitor.ownerScore(attack_owner),
                  monitor.ownerScore(100 + i))
            << "benign owner " << 100 + i;
    auto flagged = monitor.flaggedOwners(monitor.ownerScore(attack_owner));
    ASSERT_EQ(flagged.size(), 1u);
    EXPECT_EQ(flagged[0], attack_owner);
}

/** Detection sweep: attackers in 1..4 of 8 threads stay detectable. */
class AttackerCountSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(AttackerCountSweep, MajorityBenignStillDetects)
{
    unsigned attackers = GetParam();
    AttackOutcome out = runEightCore(attackers, 0.65);
    // Below the rigging bound, at least one attack thread gets caught,
    // and marked benign threads stay a minority of the benign pool.
    EXPECT_GE(out.attackerMarks, 1u);
    EXPECT_LE(out.benignMarks, (8 - attackers) / 2);
}

INSTANTIATE_TEST_SUITE_P(Counts, AttackerCountSweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

} // namespace
} // namespace bh
