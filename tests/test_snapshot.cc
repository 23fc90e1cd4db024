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

/** Serialized state of any component exposing transfer(). */
template <class T>
std::string
stateBlob(T &component)
{
    StateWriter w;
    StateIo io(w);
    component.transfer(io);
    return w.take();
}

/** Load @p blob into @p component; true when it read all of it. */
template <class T>
bool
loadBlob(T &component, const std::string &blob)
{
    StateReader r(blob);
    StateIo io(r);
    component.transfer(io);
    return r.atEnd();
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
    StateIo io(r);
    std::vector<std::uint64_t> v;
    io.list(v, [](StateIo &sub, std::uint64_t &e) { sub.u64(e); });
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(v.empty());
}

using U64Map = std::unordered_map<std::uint64_t, std::uint64_t>;

void
transferMap(StateIo &io, U64Map &m)
{
    io.map(m, [](StateIo &sub, std::uint64_t &k, std::uint64_t &v) {
        sub.u64(k);
        sub.u64(v);
    });
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
        StateIo io(r);
        U64Map m;
        transferMap(io, m);
        EXPECT_FALSE(r.ok());
    }
}

TEST(SnapshotCodecTest, EmptyBulkVectorsRoundTrip)
{
    // Regression (snapshot mutation test, UBSan): an empty vector's
    // data() is null, and the bulk decoders passed it to memcpy.
    std::vector<std::uint32_t> v32; // Never allocated: data() is null.
    std::vector<std::uint64_t> v64;
    StateWriter w;
    StateIo save(w);
    save.u32s(v32);
    save.u64s(v64);
    StateReader r(w.take());
    StateIo load(r);
    load.u32s(v32);
    load.u64s(v64);
    EXPECT_TRUE(v32.empty());
    EXPECT_TRUE(v64.empty());
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapshotCodecTest, VectorWidthIsNamedNotDeduced)
{
    // The bulk copy and the element loop write the same bytes, and the
    // call names the width: unsigned elements travel as u64 through
    // u64s() and as u32 through u32s(), whatever their own size.
    std::vector<std::uint64_t> wide = {1, 2, 0xffffffffull};
    std::vector<unsigned> narrow = {1, 2, 0xffffffffu};
    std::vector<std::uint32_t> narrow32 = {1, 2, 0xffffffffu};
    auto bytes = [](auto &v, bool as_u64) {
        StateWriter w;
        StateIo io(w);
        if (as_u64)
            io.u64s(v);
        else
            io.u32s(v);
        return w.take();
    };
    EXPECT_EQ(bytes(wide, true), bytes(narrow, true));
    EXPECT_EQ(bytes(narrow, true).size(), 8u + 3 * 8);
    EXPECT_EQ(bytes(narrow32, false), bytes(narrow, false));
    EXPECT_EQ(bytes(narrow, false).size(), 8u + 3 * 4);

    // A load of a config-sized vector refuses another length.
    std::vector<unsigned> four(4);
    StateReader r(bytes(narrow, true));
    StateIo io(r);
    io.u64s(four);
    EXPECT_FALSE(r.ok());
}

TEST(SnapshotCodecTest, UnorderedMapPreservesIterationOrder)
{
    // The property that keeps a resumed run's snapshot bytes equal to
    // an uninterrupted run's: reloading a map reproduces not just its
    // contents but its exact iteration order and bucket count.
    U64Map m;
    Rng rng(42);
    for (int i = 0; i < 1000; ++i)
        m[rng.next() % 1500] = i;
    for (int i = 0; i < 300; ++i)
        m.erase(rng.next() % 1500);

    StateWriter w;
    StateIo save(w);
    transferMap(save, m);

    U64Map back;
    StateReader r(w.take());
    StateIo load(r);
    transferMap(load, back);
    ASSERT_TRUE(r.atEnd());

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
    ASSERT_TRUE(loadBlob(b, stateBlob(a)));
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
    ASSERT_TRUE(loadBlob(*b, blob));
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
    ASSERT_TRUE(loadBlob(b, blob));
    ASSERT_TRUE(loadBlob(mshr_b, mshr_blob));
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
    ASSERT_TRUE(loadBlob(b, blob));
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
    // Graphene tables with per-rank flat-bank state, oracle) plus
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
    // blackout, the skip loop leaves the controller unvisited, and its
    // write-drain mode is whatever it was at its last demand command.
    // Each kill point below resumes and runs a few cycles on, still
    // inside such a span, and must serialize exactly like the
    // uninterrupted run at that cycle.
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
        System system(sys, slots);
        ASSERT_TRUE(system.resumeFromSnapshot(snap, &error)) << error;
        (void)system.run(insts, at + kProbeCycles);
        EXPECT_EQ(system.snapshotBlob(), expected);
    }
    EXPECT_GT(resumed, 40u);

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

// ------------------------------------------------ pinned snapshot bytes

/** One mid-run snapshot regime and the bytes it must serialize to. */
struct PinnedRegime
{
    const char *pattern;
    MitigationType mechanism;
    unsigned nRh;
    bool breakHammer;
    bool oracle;
    unsigned channels;
    const char *redteam;
    std::size_t size;     ///< Blob size, trailing checksum included.
    std::uint64_t digest; ///< fnv1a64 of the whole blob.
};

/**
 * Every regime the snapshot tests restore: the first nine seed the
 * mutation test (all mechanisms but NoDefense, the oracle, 2 channels
 * and the adaptive attacker), then NoDefense and a 4-channel point.
 */
const PinnedRegime kPinnedRegimes[] = {
    {"HHMA", MitigationType::kGraphene, 512, true, false, 1, nullptr,
     1131776u, 0x93f5b65ba32531baull},
    {"LLLA", MitigationType::kPrac, 256, true, true, 1, nullptr, 1127537u,
     0x5feaf18d0337067aull},
    {"LLLA", MitigationType::kBlockHammer, 128, false, false, 1, nullptr,
     1134153u, 0x16f03a9f5fc57ec3ull},
    {"HHMM", MitigationType::kHydra, 512, false, false, 2, nullptr,
     1260029u, 0x271e5952238f0d6dull},
    {"HHMA", MitigationType::kAqua, 256, true, false, 1, nullptr, 1131784u,
     0x59970ffe77d7fcceull},
    {"LLLA", MitigationType::kTwice, 512, false, false, 1, nullptr,
     1127089u, 0xa7baa43b74d3c282ull},
    {"HHMA", MitigationType::kRega, 256, true, false, 1, nullptr, 1125013u,
     0xbb79799a2f287998ull},
    {"LLLA", MitigationType::kRfm, 256, true, false, 1, nullptr, 1125409u,
     0x5e20e30e5de9f8f9ull},
    {"MMAA", MitigationType::kPara, 512, true, false, 1,
     "pat=half,obs=32,bub=64,grp=2,ho=512", 1124076u,
     0x4494ae8910b1adefull},
    {"HHMA", MitigationType::kNone, 1024, false, false, 1, nullptr,
     1125168u, 0x05c6c3d8f9dea2b7ull},
    {"HHMA", MitigationType::kHydra, 512, true, false, 4, nullptr,
     1397829u, 0x7c1f40f19eb411b7ull},
};

/** The mutation test's seeds: the first nine pinned regimes. */
constexpr std::size_t kFuzzRegimes = 9;

/** A mid-run snapshot and the System shape that accepts it. */
struct FuzzSeed
{
    SystemConfig sys;
    std::vector<WorkloadSlot> slots;
    std::string body; ///< The blob without its trailing checksum.
};

FuzzSeed
midRunSeed(const PinnedRegime &regime)
{
    ExperimentConfig cfg;
    cfg.mix = makeMix(regime.pattern, 0);
    cfg.mechanism = regime.mechanism;
    cfg.nRh = regime.nRh;
    cfg.breakHammer = regime.breakHammer;
    cfg.oracle = regime.oracle;
    cfg.instructions = 5000;
    cfg.channels = regime.channels;
    if (regime.redteam != nullptr) {
        RedteamStrategy strategy;
        EXPECT_TRUE(parseRedteamStrategy(regime.redteam, &strategy));
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

/** Offset of section tag @p name in @p body at or after @p from. */
std::size_t
tagAt(const std::string &body, const char *name, std::size_t from)
{
    StateWriter w;
    w.tag(name);
    return body.find(w.data(), from);
}

TEST(SystemSnapshotTest, MidRunSnapshotBytesArePinned)
{
    // The snapshot layout is a compatibility contract (kSnapshotVersion):
    // a seeded mid-run System of every regime must serialize to exactly
    // these bytes, so a component whose state transfer changes its
    // layout fails here even when its own round trip still agrees.
    // The LLC writes its whole logical tag store and the latency
    // histogram all of its bins, however few sets and bins are stored.
    for (const PinnedRegime &regime : kPinnedRegimes) {
        SCOPED_TRACE(std::string(regime.pattern) + " " +
                     mitigationName(regime.mechanism) + " ch=" +
                     std::to_string(regime.channels));
        FuzzSeed seed = midRunSeed(regime);
        const std::string blob = sealed(seed.body);
        EXPECT_EQ(blob.size(), regime.size);
        EXPECT_EQ(fnv1a64(blob.data(), blob.size()), regime.digest);
    }
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
    std::vector<FuzzSeed> seeds;
    for (std::size_t i = 0; i < kFuzzRegimes; ++i)
        seeds.push_back(midRunSeed(kPinnedRegimes[i]));

    // Section tags: most of a blob is the LLC's dense tag store, so
    // half the edits land just past a tag, where the headers, lengths
    // and counts of each component live.
    const char *kSections[] = {
        "system", "llc", "mshr", "channels", "controller",
        "bankq", "timing", "energy", "oracle", "graphene",
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

TEST(SystemSnapshotTest, SectionsSplicedFromAnotherCycleAreRefused)
{
    // Every section of these blobs parses, but the MSHR file or the
    // cores come from another cycle of the same run, and the checksum
    // is re-sealed. A restore must refuse them: run on, the first read
    // completion would find no MSHR entry or wake an idle load slot.
    ExperimentConfig cfg;
    cfg.mix = makeMix("HHMA", 0);
    cfg.mechanism = MitigationType::kGraphene;
    cfg.nRh = 512;
    cfg.breakHammer = true;
    cfg.instructions = 5000;
    SystemConfig sys = systemConfigFor(cfg);
    auto body_at = [&](Cycle cycle) {
        System system(sys, cfg.mix.slots);
        (void)system.run(cfg.instructions, cycle);
        std::string body = system.snapshotBlob();
        body.resize(body.size() - 8);
        return body;
    };
    // [begin, end) of the MSHR section, or of every core's section.
    auto mshr_section = [](const std::string &body) {
        std::size_t at = tagAt(body, "mshr", tagAt(body, "llc", 0));
        return std::make_pair(at, tagAt(body, "channels", at));
    };
    auto core_sections = [](const std::string &body) {
        std::size_t at = tagAt(body, "core", tagAt(body, "breakhammer", 0));
        return std::make_pair(at, body.size());
    };

    const std::string bodies[] = {body_at(20000), body_at(30000)};
    for (const std::string &body : bodies) {
        System intact(sys, cfg.mix.slots);
        std::string error;
        ASSERT_TRUE(intact.restoreSnapshotBlob(sealed(body), &error))
            << error;
    }
    for (int base = 0; base < 2; ++base) {
        const std::string &into = bodies[base];
        const std::string &from = bodies[1 - base];
        for (auto section : {+mshr_section, +core_sections}) {
            auto [begin, end] = section(into);
            auto [src_begin, src_end] = section(from);
            ASSERT_LT(begin, end);
            ASSERT_LE(end, into.size());
            ASSERT_LT(src_begin, src_end);
            ASSERT_LE(src_end, from.size());
            std::string spliced = into.substr(0, begin) +
                                  from.substr(src_begin, src_end - src_begin) +
                                  into.substr(end);
            System system(sys, cfg.mix.slots);
            std::string error;
            EXPECT_FALSE(system.restoreSnapshotBlob(sealed(spliced), &error));
            EXPECT_NE(error.find("disagree"), std::string::npos) << error;
        }
    }
}

TEST(SystemSnapshotTest, QueuedRequestsThatEnqueueCouldNotMakeAreRefused)
{
    // A re-sealed blob whose first queued request names another bank's
    // FIFO, a row past the bank or a thread past the cores parses, and
    // the MSHR and cores still agree with it; run on, its ACT would index
    // the timing engine's banks, a bank's rows or the per-thread ACT
    // counts out of range. A restore must refuse each.
    const PinnedRegime &regime = kPinnedRegimes[0];
    FuzzSeed seed = midRunSeed(regime);
    auto u64_at = [](const std::string &body, std::size_t at) {
        std::uint64_t v = 0;
        for (int i = 7; i >= 0; --i)
            v = v << 8 | static_cast<unsigned char>(body[at + i]);
        return v;
    };
    auto put_u64 = [](std::string &body, std::size_t at, std::uint64_t v) {
        StateWriter w;
        w.u64(v);
        body.replace(at, 8, w.data());
    };
    // The first queued request: each queue is its "bankq" tag (u32), the
    // bank count, then per bank a length and that many entries.
    std::size_t req_at = std::string::npos;
    std::uint64_t fifo_bank = 0;
    for (std::size_t q = tagAt(seed.body, "bankq", 0);
         q != std::string::npos && req_at == std::string::npos;
         q = tagAt(seed.body, "bankq", q + 4)) {
        std::size_t at = q + 4;
        const std::uint64_t banks = u64_at(seed.body, at);
        at += 8;
        for (std::uint64_t fb = 0; fb < banks; ++fb, at += 8) {
            if (u64_at(seed.body, at) != 0) {
                req_at = at + 8;
                fifo_bank = fb;
                break;
            }
            // An empty FIFO is its zero length alone.
        }
    }
    ASSERT_NE(req_at, std::string::npos);
    // transferRequest's layout: the type byte, then addr, rank, bank
    // group, bank, row, column, flatBank and thread as u64s.
    const std::size_t row_at = req_at + 1 + 4 * 8;
    const std::size_t flat_bank_at = req_at + 1 + 6 * 8;
    const std::size_t thread_at = req_at + 1 + 7 * 8;
    ASSERT_EQ(u64_at(seed.body, flat_bank_at), fifo_bank);
    ASSERT_LT(u64_at(seed.body, thread_at), seed.sys.numCores);
    {
        System intact(seed.sys, seed.slots);
        std::string error;
        ASSERT_TRUE(intact.restoreSnapshotBlob(sealed(seed.body), &error))
            << error;
    }
    const unsigned banks = seed.sys.spec.org.totalBanks();
    const std::pair<std::size_t, std::uint64_t> edits[] = {
        {flat_bank_at, (fifo_bank + 1) % banks},
        {row_at, seed.sys.spec.org.rowsPerBank},
        {thread_at, seed.sys.numCores},
    };
    for (const auto &[at, value] : edits) {
        SCOPED_TRACE(at - req_at);
        std::string body = seed.body;
        put_u64(body, at, value);
        System system(seed.sys, seed.slots);
        EXPECT_FALSE(system.restoreSnapshotBlob(sealed(body), nullptr));
    }
}

} // namespace
} // namespace bh
