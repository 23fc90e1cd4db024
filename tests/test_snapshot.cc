/**
 * @file
 * Snapshot/restore tests, per layer and end to end.
 *
 * Layer tests save one component mid-epoch, restore it into a freshly
 * constructed twin, and require field-level state equality — asserted as
 * byte equality of the two serialized states, which also pins the
 * unordered_map iteration-order reconstruction that keeps a resumed
 * MisraGries-based mechanism's later snapshots byte-identical — and
 * then drive both instances through an identical event stream and
 * require identical behaviour.
 *
 * The end-to-end tests run a full System, checkpoint it mid-run, resume
 * the snapshot in a new System, and require the completed run to match an
 * uninterrupted reference run bit for bit (the CI kill-resume job checks
 * the same invariant across real processes and SIGKILL).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "breakhammer/breakhammer.h"
#include "cache/mshr.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "mitigation/factory.h"
#include "mitigation/misra_gries.h"
#include "sim/experiment.h"
#include "sim/mixes.h"
#include "sim/redteam.h"
#include "sim/system.h"
#include "trace/adaptive.h"

namespace bh {
namespace {

/** Serialized state of any component exposing saveState(). */
template <class T>
std::string
stateBlob(const T &component)
{
    StateWriter w;
    component.saveState(w);
    return w.take();
}

std::string
tempPath(const std::string &name)
{
    std::string dir =
        std::filesystem::temp_directory_path() / "bh_snapshot_tests";
    std::filesystem::create_directories(dir);
    return dir + "/" + name;
}

// ------------------------------------------------------- codec basics

TEST(SnapshotCodecTest, ScalarsRoundTrip)
{
    StateWriter w;
    w.u8(0xab);
    w.b(true);
    w.u32(0xdeadbeef);
    w.u64(0x123456789abcdef0ull);
    w.d(0.72237629069954734);
    // Embedded NUL must survive: construct with an explicit length so
    // the literal is not truncated at the NUL by const char* conversion.
    const std::string with_nul("hello\0world", 11);
    w.str(with_nul);
    w.tag("section");

    StateReader r(w.take());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x123456789abcdef0ull);
    EXPECT_EQ(r.d(), 0.72237629069954734);
    EXPECT_EQ(r.str(), with_nul);
    EXPECT_TRUE(r.tag("section"));
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapshotCodecTest, TruncationAndWrongTagFailSticky)
{
    StateWriter w;
    w.u64(7);
    std::string bytes = w.take();
    StateReader r(bytes.substr(0, 3)); // Truncated mid-integer.
    r.u64();
    EXPECT_FALSE(r.ok());
    r.u64(); // Still failed, never throws.
    EXPECT_FALSE(r.ok());

    StateWriter w2;
    w2.tag("alpha");
    StateReader r2(w2.take());
    EXPECT_FALSE(r2.tag("beta"));
    EXPECT_FALSE(r2.ok());
}

TEST(SnapshotCodecTest, CorruptLengthDoesNotAllocate)
{
    StateWriter w;
    w.u64(static_cast<std::uint64_t>(-1)); // Absurd element count.
    StateReader r(w.take());
    std::vector<std::uint64_t> v;
    EXPECT_FALSE(loadU64Vector(r, &v));
    EXPECT_FALSE(r.ok());
}

TEST(SnapshotCodecTest, AbsurdBucketCountIsRefusedNotAllocated)
{
    // Regression (snapshot mutation test): a damaged bucket count of
    // 2^40 passed the old bound and made rehash() throw bad_alloc.
    for (std::uint64_t buckets :
         {kMaxSnapshotBuckets + 1, std::uint64_t{1} << 40}) {
        StateWriter w;
        w.u64(buckets);
        w.u64(0); // No elements.
        StateReader r(w.take());
        std::unordered_map<std::uint64_t, std::uint64_t> m;
        EXPECT_FALSE(loadUnorderedMap(
            r, &m, [](StateReader &sr, std::uint64_t *k) { *k = sr.u64(); },
            [](StateReader &sr, std::uint64_t *v) { *v = sr.u64(); }));
        EXPECT_FALSE(r.ok());
    }
}

TEST(SnapshotCodecTest, EmptyBulkVectorsRoundTrip)
{
    // Regression (snapshot mutation test, UBSan): an empty vector's
    // data() is null, and the bulk decoders passed it to memcpy.
    StateWriter w;
    saveU32VectorBulk(w, {});
    saveU64VectorBulk(w, {});
    StateReader r(w.take());
    std::vector<std::uint32_t> v32; // Never allocated: data() is null.
    std::vector<std::uint64_t> v64;
    EXPECT_TRUE(loadU32VectorBulk(r, &v32));
    EXPECT_TRUE(loadU64VectorBulk(r, &v64));
    EXPECT_TRUE(v32.empty());
    EXPECT_TRUE(v64.empty());
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapshotCodecTest, UnorderedMapPreservesIterationOrder)
{
    // The property that keeps a resumed run's snapshot bytes equal to
    // an uninterrupted run's: reloading a map reproduces not just its
    // contents but its exact iteration order and bucket count.
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    Rng rng(42);
    for (int i = 0; i < 1000; ++i)
        m[rng.next() % 1500] = i;
    for (int i = 0; i < 300; ++i)
        m.erase(rng.next() % 1500);

    StateWriter w;
    saveUnorderedMap(
        w, m, [](StateWriter &sw, std::uint64_t k) { sw.u64(k); },
        [](StateWriter &sw, std::uint64_t v) { sw.u64(v); });

    std::unordered_map<std::uint64_t, std::uint64_t> back;
    StateReader r(w.take());
    ASSERT_TRUE(loadUnorderedMap(
        r, &back, [](StateReader &sr, std::uint64_t *k) { *k = sr.u64(); },
        [](StateReader &sr, std::uint64_t *v) { *v = sr.u64(); }));

    EXPECT_EQ(back.bucket_count(), m.bucket_count());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> a(m.begin(),
                                                           m.end());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> b(back.begin(),
                                                           back.end());
    EXPECT_EQ(a, b); // Same sequence, not just the same set.
}

TEST(SnapshotCodecTest, MisraGriesReclaimMatchesAfterRestore)
{
    // Saturate a tiny summary so increments hit the reclaim path (which
    // erases the first stale entry in iteration order) and check the
    // restored twin makes identical reclaim decisions, so the two save
    // the same bytes afterwards.
    MisraGries a(8);
    Rng rng(7);
    for (int i = 0; i < 200; ++i)
        a.increment(rng.next() % 32);

    MisraGries b(8);
    StateReader r(stateBlob(a));
    b.loadState(r);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(stateBlob(a), stateBlob(b));

    Rng drive(11);
    for (int i = 0; i < 500; ++i) {
        std::uint64_t row = drive.next() % 32;
        ASSERT_EQ(a.increment(row), b.increment(row)) << "step " << i;
    }
    EXPECT_EQ(stateBlob(a), stateBlob(b));
}

// ------------------------------------------- mitigation mechanisms

/** Recording host: collects every action a mechanism requests. */
class RecordingHost : public IMitigationHost
{
  public:
    void
    performVictimRefresh(unsigned bank, unsigned row, double w) override
    {
        log.push_back({1, bank, row, w});
    }
    void
    performMigration(unsigned bank, unsigned row) override
    {
        log.push_back({2, bank, row, 0.0});
    }
    void performRfm(unsigned bank, double w) override
    {
        log.push_back({3, bank, 0, w});
    }
    void performAlertBackoff(unsigned n, double w) override
    {
        log.push_back({4, n, 0, w});
    }
    void performTrackerAccess(unsigned bank, Cycle d, double w) override
    {
        log.push_back({5, bank, static_cast<unsigned>(d), w});
    }
    void notifyRowProtected(unsigned bank, unsigned row) override
    {
        log.push_back({6, bank, row, 0.0});
    }
    void creditDirectScore(ThreadId t, double amount) override
    {
        log.push_back({7, t, 0, amount});
    }

    struct Event
    {
        int kind;
        unsigned a, b;
        double w;
        bool
        operator==(const Event &o) const
        {
            return kind == o.kind && a == o.a && b == o.b && w == o.w;
        }
    };
    std::vector<Event> log;
};

/** Deterministic ACT/refresh stream shared by the twin instances. */
void
driveMechanism(IMitigation *m, const DramSpec &spec, std::uint64_t seed,
               Cycle start_cycle, int steps, Cycle *cycle_out)
{
    Rng rng(seed);
    Cycle cycle = start_cycle;
    unsigned total_banks = spec.org.totalBanks();
    for (int i = 0; i < steps; ++i) {
        cycle += 20 + rng.next() % 400;
        m->advanceTo(cycle);
        unsigned bank = static_cast<unsigned>(rng.next() % total_banks);
        // A small row set so per-row thresholds actually trigger.
        unsigned row = static_cast<unsigned>(rng.next() % 24);
        ThreadId thread = static_cast<ThreadId>(rng.next() % 4);
        m->commitAct(bank, row, thread, cycle);
        if (i % 97 == 96) {
            unsigned rank =
                static_cast<unsigned>(rng.next() % spec.org.ranks);
            unsigned sweep_start =
                static_cast<unsigned>(rng.next() % spec.org.rowsPerBank);
            m->onPeriodicRefresh(rank, sweep_start, 8, cycle);
        }
    }
    *cycle_out = cycle;
}

class MitigationSnapshotTest
    : public ::testing::TestWithParam<MitigationType>
{};

TEST_P(MitigationSnapshotTest, MidEpochRoundTripIsFieldExact)
{
    MitigationType type = GetParam();
    DramSpec spec = DramSpec::ddr5();
    applyTimingSideEffects(type, 512, &spec);

    RecordingHost host_a;
    auto a = createMitigation(type, 512, spec, 4);
    ASSERT_NE(a, nullptr);
    a->setHost(&host_a);

    // Phase 1 crosses at least one epoch/window boundary (the streams
    // jump by ~half a tREFW once) so rollover state is mid-flight too.
    Cycle cycle = 0;
    driveMechanism(a.get(), spec, 123, 0, 400, &cycle);
    driveMechanism(a.get(), spec, 321, cycle + spec.timing.tREFW / 2, 400,
                   &cycle);

    // Save mid-epoch, load into a fresh twin: field-level equality is
    // asserted on the serialized state (every field round-trips).
    std::string blob = stateBlob(*a);
    RecordingHost host_b;
    auto b = createMitigation(type, 512, spec, 4);
    b->setHost(&host_b);
    StateReader r(blob);
    b->loadState(r);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.atEnd());
    EXPECT_EQ(stateBlob(*b), blob);

    // Phase 2: identical further streams must produce identical actions
    // and identical final state.
    host_a.log.clear();
    Cycle cycle_b = cycle;
    Cycle end_a = 0, end_b = 0;
    driveMechanism(a.get(), spec, 777, cycle, 600, &end_a);
    driveMechanism(b.get(), spec, 777, cycle_b, 600, &end_b);
    EXPECT_EQ(end_a, end_b);
    EXPECT_EQ(host_a.log.size(), host_b.log.size());
    EXPECT_TRUE(host_a.log == host_b.log);
    EXPECT_EQ(stateBlob(*a), stateBlob(*b));
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, MitigationSnapshotTest,
    ::testing::Values(MitigationType::kPara, MitigationType::kGraphene,
                      MitigationType::kHydra, MitigationType::kTwice,
                      MitigationType::kAqua, MitigationType::kRega,
                      MitigationType::kRfm, MitigationType::kPrac,
                      MitigationType::kBlockHammer),
    [](const ::testing::TestParamInfo<MitigationType> &info) {
        return std::string(mitigationName(info.param));
    });

// -------------------------------------------------------- BreakHammer

TEST(BreakHammerSnapshotTest, MidWindowRoundTripIsFieldExact)
{
    BreakHammerConfig config;
    config.window = 50000;
    config.thThreat = 4.0;

    MshrFile mshr_a(64, 4), mshr_b(64, 4);
    BreakHammer a(4, config, &mshr_a);
    BreakHammer b(4, config, &mshr_b);

    // Train mid-window: activations skewed to thread 3 so suspects and
    // quota reductions actually happen, crossing window boundaries.
    Rng rng(99);
    Cycle cycle = 0;
    for (int i = 0; i < 3000; ++i) {
        cycle += 10 + rng.next() % 120;
        ThreadId t = (rng.next() % 3) ? 3 : static_cast<ThreadId>(
                                                rng.next() % 4);
        a.onDemandActivate(t, static_cast<unsigned>(rng.next() % 16),
                           cycle);
        if (i % 11 == 10)
            a.onPreventiveAction(1.0, cycle);
    }
    ASSERT_GT(a.suspectMarks(), 0u); // The stream must exercise Alg 1.

    std::string blob = stateBlob(a);
    std::string mshr_blob = stateBlob(mshr_a);
    {
        StateReader r(blob);
        b.loadState(r);
        ASSERT_TRUE(r.ok());
    }
    {
        StateReader r(mshr_blob);
        mshr_b.loadState(r);
        ASSERT_TRUE(r.ok());
    }
    EXPECT_EQ(stateBlob(b), blob);
    EXPECT_EQ(stateBlob(mshr_b), mshr_blob);
    for (ThreadId t = 0; t < 4; ++t) {
        EXPECT_EQ(a.score(t), b.score(t));
        EXPECT_EQ(a.quota(t), b.quota(t));
        EXPECT_EQ(a.isSuspect(t), b.isSuspect(t));
        EXPECT_EQ(a.wasRecentSuspect(t), b.wasRecentSuspect(t));
    }

    // Identical continuations, including a window rollover.
    Rng drive(55);
    Cycle c2 = cycle;
    for (int i = 0; i < 2000; ++i) {
        c2 += 10 + drive.next() % 150;
        ThreadId t = static_cast<ThreadId>(drive.next() % 4);
        unsigned bank = static_cast<unsigned>(drive.next() % 16);
        a.onDemandActivate(t, bank, c2);
        b.onDemandActivate(t, bank, c2);
        if (i % 13 == 12) {
            a.onPreventiveAction(1.5, c2);
            b.onPreventiveAction(1.5, c2);
        }
    }
    EXPECT_EQ(stateBlob(a), stateBlob(b));
    EXPECT_EQ(stateBlob(mshr_a), stateBlob(mshr_b));
    EXPECT_EQ(a.suspectMarks(), b.suspectMarks());
}

// --------------------------------------------- adaptive attacker trace

/** Deterministic feedback script for driving mid-adaptation state. */
class AlternatingFeedback : public IThrottleFeedbackView
{
  public:
    ThrottleFeedback
    sampleThrottleFeedback(ThreadId) const override
    {
        ThrottleFeedback fb;
        fb.suspect = calls_++ % 2 == 0;
        fb.score = static_cast<double>(calls_) * 0.25;
        fb.quota = 3;
        fb.fullQuota = 16;
        return fb;
    }

  private:
    mutable std::uint64_t calls_ = 0;
};

TEST(AdaptiveTraceSnapshotTest, MidAdaptationRoundTripIsFieldExact)
{
    AddressMap mapper(DramSpec::ddr5().org);
    AttackerConfig attack;
    attack.pattern = AttackPattern::kHalfDouble;
    attack.rowBase = 96;
    AdaptiveConfig adaptive;
    adaptive.observeEvery = 16;
    adaptive.groupSize = 2;
    adaptive.slotIndex = 0;
    adaptive.handoffEpoch = 96;

    // Drive to an arbitrary point mid-epoch and mid-observation window,
    // with rotations, back-off, and feedback history all non-trivial.
    AlternatingFeedback feedback;
    AdaptiveAttackerTrace a(attack, adaptive, mapper, 13);
    a.bindFeedback(&feedback, 2);
    for (int i = 0; i < 16 * 7 + 5; ++i)
        a.next();
    ASSERT_GT(a.rotation(), 0u);
    ASSERT_GT(a.lastScore(), 0.0);

    // Restore into a fresh twin: serialized state must be byte-equal
    // (covers the RNG cursor and the observed-feedback history).
    std::string blob = stateBlob(a);
    AdaptiveAttackerTrace b(attack, adaptive, mapper, 13);
    {
        StateReader r(blob);
        b.loadState(r);
        ASSERT_TRUE(r.ok());
        ASSERT_TRUE(r.atEnd());
    }
    EXPECT_EQ(stateBlob(b), blob);
    EXPECT_EQ(b.rotation(), a.rotation());
    EXPECT_EQ(b.currentBubbles(), a.currentBubbles());
    EXPECT_EQ(b.lastScore(), a.lastScore());
    EXPECT_EQ(b.lastQuota(), a.lastQuota());
    EXPECT_EQ(b.currentAggressorRows(), a.currentAggressorRows());

    // And both continue bit-identically through further adaptation.
    AlternatingFeedback fa, fb2;
    // Re-bind fresh scripts at the same call offset: copy-construct the
    // original's position by replaying its observation count.
    for (std::uint64_t i = 0; i < a.observations(); ++i) {
        fa.sampleThrottleFeedback(0);
        fb2.sampleThrottleFeedback(0);
    }
    a.bindFeedback(&fa, 2);
    b.bindFeedback(&fb2, 2);
    for (int i = 0; i < 500; ++i) {
        TraceRecord ra = a.next(), rb = b.next();
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(ra.bubbles, rb.bubbles);
        EXPECT_EQ(ra.uncached, rb.uncached);
    }
    EXPECT_EQ(stateBlob(a), stateBlob(b));
}

// ------------------------------------------------------- full System

SystemConfig
systemConfigFor(const ExperimentConfig &cfg)
{
    SystemConfig sys;
    sys.numCores = static_cast<unsigned>(cfg.mix.slots.size());
    sys.spec = DramSpec::ddr5();
    applyTimingSideEffects(cfg.mechanism, cfg.nRh, &sys.spec);
    sys.mitigation = cfg.mechanism;
    sys.nRh = cfg.nRh;
    sys.breakHammer = cfg.breakHammer;
    sys.bh = scaledBreakHammerConfig(cfg.instructions);
    sys.enableOracle = cfg.oracle;
    sys.seed = cfg.seed;
    if (cfg.channels)
        sys.spec.org.channels = cfg.channels;
    if (cfg.ranks)
        sys.spec.org.ranks = cfg.ranks;
    return sys;
}

void
expectRunResultsIdentical(const RunResult &a, const RunResult &b)
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
    EXPECT_TRUE(a.benignReadLatencyNs == b.benignReadLatencyNs);
    EXPECT_EQ(a.hitCycleCap, b.hitCycleCap);
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].name, b.cores[i].name);
        EXPECT_EQ(a.cores[i].retired, b.cores[i].retired);
        EXPECT_EQ(a.cores[i].finishCycle, b.cores[i].finishCycle);
        EXPECT_EQ(a.cores[i].ipc, b.cores[i].ipc);
        EXPECT_EQ(a.cores[i].rejectStalls, b.cores[i].rejectStalls);
    }
}

struct SystemRegime
{
    const char *name;
    const char *pattern;
    MitigationType mechanism;
    unsigned nRh;
    bool breakHammer;
    bool oracle;
    /** Red-team strategy applied to the mix's attacker slots (or null). */
    const char *redteam = nullptr;
};

class SystemSnapshotTest : public ::testing::TestWithParam<SystemRegime>
{};

TEST_P(SystemSnapshotTest, ResumedRunMatchesUninterruptedRun)
{
    const SystemRegime &regime = GetParam();
    ExperimentConfig cfg;
    cfg.mix = makeMix(regime.pattern, 0);
    cfg.mechanism = regime.mechanism;
    cfg.nRh = regime.nRh;
    cfg.breakHammer = regime.breakHammer;
    cfg.oracle = regime.oracle;
    cfg.instructions = 5000;
    if (regime.redteam != nullptr) {
        RedteamStrategy strategy;
        ASSERT_TRUE(parseRedteamStrategy(regime.redteam, &strategy));
        applyRedteamStrategy(strategy, &cfg.mix.slots);
    }
    SystemConfig sys = systemConfigFor(cfg);
    const std::uint64_t insts = cfg.instructions;
    const Cycle cap = insts * 150;

    // Reference: one uninterrupted run.
    RunResult reference;
    {
        System system(sys, cfg.mix.slots);
        reference = system.run(insts, cap);
    }

    // Checkpointed run: identical results (saving is observation-only),
    // and it leaves its last snapshot on disk.
    std::string snap = tempPath(std::string("sys_") + regime.name +
                                ".snap");
    std::remove(snap.c_str());
    {
        System system(sys, cfg.mix.slots);
        System::CheckpointConfig ckpt;
        ckpt.path = snap;
        ckpt.everyInsts = 1500;
        system.setCheckpoint(ckpt);
        RunResult checkpointed = system.run(insts, cap);
        expectRunResultsIdentical(reference, checkpointed);
    }

    // "Kill": throw that run away; resume a fresh System from the last
    // snapshot and finish. Bit-identical to the uninterrupted run.
    {
        System system(sys, cfg.mix.slots);
        std::string error;
        ASSERT_TRUE(system.resumeFromSnapshot(snap, &error)) << error;
        RunResult resumed = system.run(insts, cap);
        expectRunResultsIdentical(reference, resumed);
    }
    std::remove(snap.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, SystemSnapshotTest,
    ::testing::Values(
        SystemRegime{"graphene_bh_attack", "HHMA",
                     MitigationType::kGraphene, 512, true, false},
        SystemRegime{"hydra_benign", "HHMM", MitigationType::kHydra, 512,
                     false, false},
        SystemRegime{"prac_attack_oracle", "LLLA", MitigationType::kPrac,
                     256, true, true},
        SystemRegime{"blockhammer_lowthresh", "LLLA",
                     MitigationType::kBlockHammer, 128, false, false},
        SystemRegime{"para_rng", "MMLA", MitigationType::kPara, 1024,
                     true, false},
        SystemRegime{"redteam_adaptive_rotating", "MMAA",
                     MitigationType::kPara, 512, true, false,
                     "pat=half,obs=32,bub=64,grp=2,ho=512"}),
    [](const ::testing::TestParamInfo<SystemRegime> &info) {
        return info.param.name;
    });

TEST(SystemSnapshotTest, CycleCadenceAndMidRunKillAlsoResumeExactly)
{
    // Kill at an arbitrary mid-run cycle (not a checkpoint boundary):
    // the run is cut by a max_cycles cap, so the snapshot on disk is
    // from the last cycle-cadence checkpoint strictly before the cut.
    ExperimentConfig cfg;
    cfg.mix = makeMix("HHMA", 0);
    cfg.mechanism = MitigationType::kGraphene;
    cfg.nRh = 512;
    cfg.breakHammer = true;
    cfg.instructions = 5000;
    SystemConfig sys = systemConfigFor(cfg);
    const Cycle cap = cfg.instructions * 150;

    RunResult reference;
    {
        System system(sys, cfg.mix.slots);
        reference = system.run(cfg.instructions, cap);
    }

    std::string snap = tempPath("sys_cycle_cadence.snap");
    std::remove(snap.c_str());
    {
        System system(sys, cfg.mix.slots);
        System::CheckpointConfig ckpt;
        ckpt.path = snap;
        ckpt.everyCycles = 7001; // Deliberately off every natural grid.
        system.setCheckpoint(ckpt);
        (void)system.run(cfg.instructions, reference.cycles / 2);
    }
    {
        System system(sys, cfg.mix.slots);
        std::string error;
        ASSERT_TRUE(system.resumeFromSnapshot(snap, &error)) << error;
        RunResult resumed = system.run(cfg.instructions, cap);
        expectRunResultsIdentical(reference, resumed);
    }
    std::remove(snap.c_str());
}

TEST(SystemSnapshotTest, DenseAndEventLoopsAcceptEachOthersSnapshots)
{
    // A snapshot is loop-mode agnostic: state at a cycle boundary is
    // identical in both loops (test_system_skip's invariant), so a
    // snapshot taken by the event loop resumes on the dense loop and
    // vice versa.
    ExperimentConfig cfg;
    cfg.mix = makeMix("HHMA", 0);
    cfg.mechanism = MitigationType::kGraphene;
    cfg.nRh = 512;
    cfg.breakHammer = true;
    cfg.instructions = 3000;
    SystemConfig sys = systemConfigFor(cfg);
    const Cycle cap = cfg.instructions * 150;

    RunResult reference;
    {
        System system(sys, cfg.mix.slots);
        reference = system.run(cfg.instructions, cap);
    }

    std::string snap = tempPath("sys_cross_mode.snap");
    std::remove(snap.c_str());
    {
        System system(sys, cfg.mix.slots);
        System::CheckpointConfig ckpt;
        ckpt.path = snap;
        ckpt.everyInsts = 1000;
        system.setCheckpoint(ckpt);
        (void)system.run(cfg.instructions, cap);
    }
    {
        System system(sys, cfg.mix.slots);
        System::CheckpointConfig dense;
        dense.denseTick = true;
        system.setCheckpoint(dense);
        std::string error;
        ASSERT_TRUE(system.resumeFromSnapshot(snap, &error)) << error;
        RunResult resumed = system.run(cfg.instructions, cap);
        expectRunResultsIdentical(reference, resumed);
    }
    std::remove(snap.c_str());
}

TEST(SystemSnapshotTest, FourChannelKillResumeIsFieldExactPerChannel)
{
    // Multi-channel scale-out: kill a 4-channel Graphene+BreakHammer run
    // mid-BreakHammer-window, resume from the last snapshot, and require
    // not just identical results but a byte-identical serialized System —
    // the snapshot blob carries one section per channel (controller,
    // Graphene tables with per-rank flat-bank state, oracle, census) plus
    // the shared BreakHammer scores, so blob equality is field-exact
    // equality of every per-channel/per-rank structure.
    ExperimentConfig cfg;
    cfg.mix = makeMix("HHMA", 0);
    cfg.mechanism = MitigationType::kGraphene;
    cfg.nRh = 512;
    cfg.breakHammer = true;
    cfg.instructions = 5000;
    cfg.channels = 4;
    cfg.ranks = 2;
    SystemConfig sys = systemConfigFor(cfg);
    const Cycle cap = cfg.instructions * 150;

    RunResult reference;
    std::string reference_state;
    {
        System system(sys, cfg.mix.slots);
        reference = system.run(cfg.instructions, cap);
        reference_state = system.snapshotBlob();
    }

    std::string snap = tempPath("sys_four_channel.snap");
    std::remove(snap.c_str());
    {
        // "Kill" mid-run: cut at half the reference cycle count, off any
        // checkpoint boundary, leaving the last mid-window snapshot.
        System system(sys, cfg.mix.slots);
        System::CheckpointConfig ckpt;
        ckpt.path = snap;
        ckpt.everyInsts = 1500;
        system.setCheckpoint(ckpt);
        (void)system.run(cfg.instructions, reference.cycles / 2);
    }
    {
        System system(sys, cfg.mix.slots);
        std::string error;
        ASSERT_TRUE(system.resumeFromSnapshot(snap, &error)) << error;
        RunResult resumed = system.run(cfg.instructions, cap);
        expectRunResultsIdentical(reference, resumed);
        EXPECT_EQ(system.snapshotBlob(), reference_state);
    }
    std::remove(snap.c_str());
}

TEST(SystemSnapshotTest, FourChannelWriteHeavyKillResumeIsByteExact)
{
    // Store-streaming cores behind a 16 KiB LLC on four channels: while a
    // controller's read queue is empty and a few writes wait out a
    // blackout, its write-drain flag flips every cycle, and the skip loop
    // leaves the controller unvisited, behind its replay anchor. A
    // checkpoint cut then must catch it up before saving, and the resume
    // must re-anchor it at the restored cycle. Each kill point below
    // resumes and runs a few cycles on, still inside such a span, and
    // must serialize exactly like the uninterrupted run at that cycle.
    SystemConfig sys;
    sys.numCores = 3;
    sys.spec.org.channels = 4;
    sys.llc.sizeBytes = 16 << 10;
    sys.mitigation = MitigationType::kHydra;
    sys.nRh = 512;
    std::vector<WorkloadSlot> slots(sys.numCores);
    const char *apps[] = {"lbm_like", "lbm_like", "namd_like"};
    for (unsigned i = 0; i < sys.numCores; ++i)
        slots[i].appName = apps[i];
    const std::uint64_t insts = 20000;
    const Cycle cap = insts * 150;
    constexpr Cycle kProbeCycles = 20;

    std::string snap = tempPath("sys_four_channel_writes.snap");
    std::string error;
    unsigned resumed = 0;
    unsigned anchor_sensitive = 0;
    for (Cycle at = 15000; at < 23000; at += 97) {
        SCOPED_TRACE(at);
        std::remove(snap.c_str());
        {
            // The checkpoint falls on the first simulated cycle at or
            // after `at`; the run is killed a few cycles later.
            System system(sys, slots);
            System::CheckpointConfig ckpt;
            ckpt.path = snap;
            ckpt.everyCycles = at;
            system.setCheckpoint(ckpt);
            (void)system.run(insts, at + kProbeCycles);
        }
        System probe(sys, slots);
        if (!probe.resumeFromSnapshot(snap, nullptr))
            continue; // The loop skipped every cycle before the kill.
        ++resumed;
        std::string expected;
        {
            System system(sys, slots);
            (void)system.run(insts, at + kProbeCycles);
            expected = system.snapshotBlob();
        }
        for (bool late_anchor : {false, true}) {
            System system(sys, slots);
            ASSERT_TRUE(system.resumeFromSnapshot(snap, &error)) << error;
            // A resume anchored at the probe cycle skips the drain steps
            // since the checkpoint; when that shows in the bytes, the
            // checkpoint left a controller behind its anchor.
            if (late_anchor)
                for (unsigned ch = 0; ch < system.numChannels(); ++ch)
                    system.controller(ch).anchorReplayAt(at + kProbeCycles);
            (void)system.run(insts, at + kProbeCycles);
            if (!late_anchor)
                EXPECT_EQ(system.snapshotBlob(), expected);
            else if (system.snapshotBlob() != expected)
                ++anchor_sensitive;
        }
    }
    EXPECT_GT(resumed, 40u);
    EXPECT_GT(anchor_sensitive, 0u);

    // Killed mid-run off any natural grid, a resumed run finishes exactly
    // like the uninterrupted one, results and final state alike.
    RunResult reference;
    std::string reference_state;
    {
        System system(sys, slots);
        reference = system.run(insts, cap);
        reference_state = system.snapshotBlob();
    }
    std::remove(snap.c_str());
    {
        System system(sys, slots);
        System::CheckpointConfig ckpt;
        ckpt.path = snap;
        ckpt.everyCycles = 7001;
        system.setCheckpoint(ckpt);
        (void)system.run(insts, reference.cycles / 2);
    }
    {
        System system(sys, slots);
        ASSERT_TRUE(system.resumeFromSnapshot(snap, &error)) << error;
        RunResult resumed = system.run(insts, cap);
        expectRunResultsIdentical(reference, resumed);
        EXPECT_EQ(system.snapshotBlob(), reference_state);
    }
    std::remove(snap.c_str());
}

TEST(SystemSnapshotTest, MidRunSnapshotBytesArePinned)
{
    // The snapshot layout is a compatibility contract (kSnapshotVersion):
    // a seeded mid-run System must serialize to exactly these bytes.
    // The LLC writes its whole logical tag store and the latency
    // histogram all of its bins, however few sets and bins are stored.
    // The digest was computed from the dense-storage layouts.
    ExperimentConfig cfg;
    cfg.mix = makeMix("HHMA", 0);
    cfg.mechanism = MitigationType::kGraphene;
    cfg.nRh = 512;
    cfg.breakHammer = true;
    cfg.instructions = 5000;
    SystemConfig sys = systemConfigFor(cfg);
    System system(sys, cfg.mix.slots);
    RunResult mid = system.run(cfg.instructions, 30000);
    ASSERT_TRUE(mid.hitCycleCap);
    ASSERT_GT(mid.benignReadLatencyNs.count(), 0u);
    const std::string blob = system.snapshotBlob();
    EXPECT_EQ(blob.size(), 1131965u);
    EXPECT_EQ(fnv1a64(blob.data(), blob.size()), 0x8191837283b2faa7ull);
}

TEST(SystemSnapshotTest, StaleVersionSnapshotsAreRejected)
{
    // Regression for the v2 -> v3 format bump (per-channel sections): a
    // snapshot carrying an older version number must be rejected by the
    // version check itself — not by a downstream parse error — even when
    // its checksum is valid. Stale snapshots recompute, never mislead.
    ExperimentConfig cfg;
    cfg.mix = makeMix("MMLL", 0);
    cfg.mechanism = MitigationType::kNone;
    cfg.nRh = 1024;
    cfg.instructions = 2000;
    SystemConfig sys = systemConfigFor(cfg);

    std::string snap = tempPath("sys_stale_version.snap");
    std::remove(snap.c_str());
    {
        System system(sys, cfg.mix.slots);
        System::CheckpointConfig ckpt;
        ckpt.path = snap;
        ckpt.everyInsts = 500;
        system.setCheckpoint(ckpt);
        (void)system.run(cfg.instructions, cfg.instructions * 150);
    }

    std::string blob;
    ASSERT_TRUE(readFile(snap, &blob));
    // The u32 format version sits right after the magic string (u64
    // length prefix + 8 magic bytes = offset 16). Patch it to the
    // previous version and re-seal the trailing checksum so the version
    // check is the only thing standing.
    std::string stale = blob;
    StateWriter version;
    version.u32(System::kSnapshotVersion - 1);
    ASSERT_EQ(version.data().size(), 4u);
    stale.replace(16, 4, version.data());
    std::uint64_t checksum = fnv1a64Chunked(stale.data(), stale.size() - 8);
    StateWriter tail;
    tail.u64(checksum);
    stale.replace(stale.size() - 8, 8, tail.data());
    ASSERT_TRUE(writeFileAtomic(snap, stale, nullptr));

    System system(sys, cfg.mix.slots);
    std::string error;
    EXPECT_FALSE(system.resumeFromSnapshot(snap, &error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
    std::remove(snap.c_str());
}

TEST(SystemSnapshotTest, DamagedOrForeignSnapshotsAreRejected)
{
    ExperimentConfig cfg;
    cfg.mix = makeMix("MMLL", 0);
    cfg.mechanism = MitigationType::kNone;
    cfg.nRh = 1024;
    cfg.instructions = 2000;
    SystemConfig sys = systemConfigFor(cfg);

    std::string snap = tempPath("sys_damage.snap");
    std::remove(snap.c_str());
    {
        System system(sys, cfg.mix.slots);
        System::CheckpointConfig ckpt;
        ckpt.path = snap;
        ckpt.everyInsts = 500;
        system.setCheckpoint(ckpt);
        (void)system.run(cfg.instructions, cfg.instructions * 150);
    }

    // Bit flip in the middle: checksum rejects it.
    std::string blob;
    ASSERT_TRUE(readFile(snap, &blob));
    {
        std::string damaged = blob;
        damaged[damaged.size() / 2] ^= 0x40;
        ASSERT_TRUE(writeFileAtomic(snap, damaged, nullptr));
        System system(sys, cfg.mix.slots);
        std::string error;
        EXPECT_FALSE(system.resumeFromSnapshot(snap, &error));
        EXPECT_NE(error.find("checksum"), std::string::npos) << error;
    }

    // Intact blob, wrong configuration: fingerprint rejects it.
    {
        ASSERT_TRUE(writeFileAtomic(snap, blob, nullptr));
        SystemConfig other = sys;
        other.nRh = 64;
        System system(other, cfg.mix.slots);
        EXPECT_FALSE(system.resumeFromSnapshot(snap, nullptr));
    }

    // Intact blob, wrong identity: the caller's schema guard rejects it.
    {
        System system(sys, cfg.mix.slots);
        System::CheckpointConfig ckpt;
        ckpt.path = snap;
        ckpt.everyInsts = 500;
        ckpt.identity = "some-other-experiment|store_schema=999";
        system.setCheckpoint(ckpt);
        std::string error;
        EXPECT_FALSE(system.resumeFromSnapshot(snap, &error));
        EXPECT_NE(error.find("identity"), std::string::npos) << error;
    }

    // Missing file: plain "no snapshot", not an error state.
    std::remove(snap.c_str());
    {
        System system(sys, cfg.mix.slots);
        EXPECT_FALSE(system.resumeFromSnapshot(snap, nullptr));
    }
}

TEST(SystemSnapshotTest, RunExperimentResumesAndCleansUpItsSnapshot)
{
    // The bench-level wiring: with a CheckpointSpec in its RunContext,
    // runExperiment() writes snapshots while running, resumes from one
    // when present, and removes it on completion.
    std::string dir = tempPath("exp_ckpt_dir");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    ExperimentConfig cfg;
    cfg.mix = makeMix("HHMA", 0);
    cfg.mechanism = MitigationType::kGraphene;
    cfg.nRh = 512;
    cfg.breakHammer = true;
    cfg.instructions = 4000;

    ExperimentResult reference = runExperiment(cfg);

    RunContext ctx;
    ctx.checkpoint.dir = dir;
    ctx.checkpoint.everyInsts = 1500;
    ExperimentResult checkpointed = runExperiment(cfg, ctx);

    EXPECT_EQ(reference.weightedSpeedup, checkpointed.weightedSpeedup);
    EXPECT_EQ(reference.maxSlowdown, checkpointed.maxSlowdown);
    EXPECT_EQ(reference.energyNj, checkpointed.energyNj);
    expectRunResultsIdentical(reference.raw, checkpointed.raw);
    // Completed runs leave no snapshot behind.
    EXPECT_FALSE(std::filesystem::exists(
        snapshotPath(dir, cfg)));

    std::filesystem::remove_all(dir);
}

// ------------------------------------------ restore of hostile bytes

/** A mid-run snapshot and the System shape that accepts it. */
struct FuzzSeed
{
    SystemConfig sys;
    std::vector<WorkloadSlot> slots;
    std::string body; ///< The blob without its trailing checksum.
};

FuzzSeed
midRunSeed(const char *pattern, MitigationType mechanism, unsigned n_rh,
           bool break_hammer, bool oracle, unsigned channels,
           const char *redteam = nullptr)
{
    ExperimentConfig cfg;
    cfg.mix = makeMix(pattern, 0);
    cfg.mechanism = mechanism;
    cfg.nRh = n_rh;
    cfg.breakHammer = break_hammer;
    cfg.oracle = oracle;
    cfg.instructions = 5000;
    cfg.channels = channels;
    if (redteam != nullptr) {
        RedteamStrategy strategy;
        EXPECT_TRUE(parseRedteamStrategy(redteam, &strategy));
        applyRedteamStrategy(strategy, &cfg.mix.slots);
    }
    FuzzSeed seed{systemConfigFor(cfg), cfg.mix.slots, {}};
    System system(seed.sys, seed.slots);
    (void)system.run(cfg.instructions, 30000); // Stops mid-run.
    seed.body = system.snapshotBlob();
    seed.body.resize(seed.body.size() - 8);
    return seed;
}

/** @p body sealed with the trailing checksum restore verifies first. */
std::string
sealed(std::string body)
{
    StateWriter tail;
    tail.u64(fnv1a64Chunked(body.data(), body.size()));
    return body + tail.data();
}

/**
 * Seeded mutations of mid-run snapshots: bit flips, byte overwrites,
 * truncations, u32/u64 field overwrites with boundary values (lengths,
 * counts, indices, tags), and byte insertions and deletions that shift
 * every later field. Each mutant is re-sealed, so the decoder rather
 * than the checksum sees the bytes. restoreSnapshotBlob() must return
 * false or succeed on every one; the ASan+UBSan build holds it to no
 * crash and no out-of-bounds access.
 */
TEST(SystemSnapshotTest, MutatedSnapshotsRestoreOrFailCleanly)
{
    const std::vector<FuzzSeed> seeds = {
        midRunSeed("HHMA", MitigationType::kGraphene, 512, true, false, 1),
        midRunSeed("LLLA", MitigationType::kPrac, 256, true, true, 1),
        midRunSeed("LLLA", MitigationType::kBlockHammer, 128, false, false,
                   1),
        midRunSeed("HHMM", MitigationType::kHydra, 512, false, false, 2),
        midRunSeed("HHMA", MitigationType::kAqua, 256, true, false, 1),
        midRunSeed("LLLA", MitigationType::kTwice, 512, false, false, 1),
        midRunSeed("HHMA", MitigationType::kRega, 256, true, false, 1),
        midRunSeed("LLLA", MitigationType::kRfm, 256, true, false, 1),
        midRunSeed("MMAA", MitigationType::kPara, 512, true, false, 1,
                   "pat=half,obs=32,bub=64,grp=2,ho=512")};

    // Section tags: most of a blob is the LLC's dense tag store, so
    // half the edits land just past a tag, where the headers, lengths
    // and counts of each component live.
    const char *kSections[] = {
        "system", "rejectsnap", "llc", "mshr", "channels", "controller",
        "bankq", "timing", "energy", "census", "oracle", "graphene",
        "misra_gries", "prac", "blockhammer", "cbf", "hydra", "aqua",
        "twice", "rega", "rfm", "para", "breakhammer", "hist", "core",
        "benign_trace", "attacker_trace", "adaptive_trace"};
    std::vector<std::vector<std::size_t>> tag_offsets(seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        for (const char *name : kSections) {
            StateWriter w;
            w.tag(name);
            const std::string &needle = w.data();
            for (std::size_t at = seeds[i].body.find(needle);
                 at != std::string::npos;
                 at = seeds[i].body.find(needle, at + 1))
                tag_offsets[i].push_back(at);
        }
        ASSERT_GT(tag_offsets[i].size(), 10u);
        System intact(seeds[i].sys, seeds[i].slots);
        std::string error;
        ASSERT_TRUE(intact.restoreSnapshotBlob(sealed(seeds[i].body),
                                               &error))
            << error;
    }

    const std::uint64_t kBoundary[] = {
        0, 1, 2, 3, 7, 8, 255, 256, 4095, 65536, 0x7fffffffull,
        0xffffffffull, 1ull << 32, 1ull << 40, 1ull << 62, 1ull << 63,
        ~0ull};
    std::mt19937_64 rng(0x5eed5a9);
    auto below = [&rng](std::size_t n) {
        return n ? static_cast<std::size_t>(rng() % n) : 0;
    };

    constexpr int kCases = 1500;
    int accepted = 0;
    for (int c = 0; c < kCases; ++c) {
        const std::size_t which = below(seeds.size());
        const FuzzSeed &seed = seeds[which];
        std::string body = seed.body;
        const std::size_t edits = 1 + below(2);
        for (std::size_t e = 0; e < edits && !body.empty(); ++e) {
            const std::vector<std::size_t> &tags = tag_offsets[which];
            std::size_t pos = below(2) ? below(body.size())
                                       : tags[below(tags.size())] +
                                             below(160);
            pos = std::min(pos, body.size() - 1);
            switch (below(6)) {
              case 0: // bit flip
                body[pos] ^= static_cast<char>(1u << below(8));
                break;
              case 1: // byte overwrite
                body[pos] = static_cast<char>(rng());
                break;
              case 2: // truncation
                body.resize(pos);
                break;
              case 3: { // u64 field edit: lengths, counts, cycles
                StateWriter w;
                w.u64(kBoundary[below(std::size(kBoundary))] +
                      (below(4) == 0 ? body.size() - pos : 0));
                body.replace(pos, 8, w.data());
                break;
              }
              case 4: { // u32 field edit: tags, versions, indices
                StateWriter w;
                w.u32(static_cast<std::uint32_t>(
                    kBoundary[below(std::size(kBoundary))]));
                body.replace(pos, 4, w.data());
                break;
              }
              default: // insert or delete bytes: shift later fields
                if (below(2))
                    body.insert(pos, 1 + below(8), static_cast<char>(rng()));
                else
                    body.erase(pos, 1 + below(8));
                break;
            }
        }
        System system(seed.sys, seed.slots);
        std::string error;
        if (system.restoreSnapshotBlob(sealed(body), &error)) {
            ++accepted;
        } else {
            ASSERT_FALSE(error.empty());
        }
    }
    // Both outcomes must be well exercised for the test to mean much.
    EXPECT_GT(accepted, kCases / 20);
    EXPECT_LT(accepted, kCases - kCases / 20);
}

} // namespace
} // namespace bh
