/**
 * @file
 * Unit tests for src/mem: scheduling, refresh, maintenance operations, the
 * mitigation/observer hook points, and the memoized controller wake.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dram/address.h"
#include "mem/controller.h"
#include "mitigation/factory.h"

namespace bh {
namespace {

struct Completion
{
    Request req;
    Cycle at;
};

class ControllerFixture : public ::testing::Test
{
  protected:
    ControllerFixture()
        : spec(DramSpec::ddr5()), map(spec.org), mc(spec, map, McConfig{})
    {
        mc.onReadComplete = [this](const Request &r, Cycle c) {
            completions.push_back({r, c});
        };
    }

    /** Address of (bank 0, given row/column) through the mapper. */
    Addr
    addrOf(unsigned row, unsigned column = 0, unsigned bank_group = 0)
    {
        DramAddress da;
        da.row = row;
        da.column = column;
        da.bankGroup = bank_group;
        return map.encode(da);
    }

    void
    runUntil(Cycle end)
    {
        for (; now < end; ++now)
            mc.tick(now);
    }

    Request
    readReq(Addr addr, ThreadId thread = 0, std::uint64_t token = 0)
    {
        Request r;
        r.type = Request::Type::kRead;
        r.addr = addr;
        r.thread = thread;
        r.token = token;
        return r;
    }

    DramSpec spec;
    AddressMap map;
    MemoryController mc;
    std::vector<Completion> completions;
    Cycle now = 0;
};

TEST_F(ControllerFixture, SingleReadCompletesWithRowMissLatency)
{
    mc.enqueueRead(readReq(addrOf(5)), 0);
    runUntil(2000);
    ASSERT_EQ(completions.size(), 1u);
    // ACT + tRCD + tCL + tBL, plus command-slot granularity.
    Cycle min_latency =
        spec.timing.tRCD + spec.timing.tCL + spec.timing.tBL;
    EXPECT_GE(completions[0].at, min_latency);
    EXPECT_LE(completions[0].at, min_latency + 20);
}

TEST_F(ControllerFixture, RowHitFasterThanConflict)
{
    mc.enqueueRead(readReq(addrOf(5, 0), 0, 1), 0);
    runUntil(300);
    ASSERT_EQ(completions.size(), 1u);
    Cycle first = completions[0].at;

    // Same row: hit (no ACT needed).
    mc.enqueueRead(readReq(addrOf(5, 4), 0, 2), now);
    Cycle start = now;
    runUntil(now + 300);
    ASSERT_EQ(completions.size(), 2u);
    Cycle hit_latency = completions[1].at - start;
    EXPECT_LT(hit_latency, first);

    // Different row: conflict (PRE + ACT + RD).
    mc.enqueueRead(readReq(addrOf(9, 0), 0, 3), now);
    start = now;
    runUntil(now + 2000);
    ASSERT_EQ(completions.size(), 3u);
    Cycle conflict_latency = completions[2].at - start;
    EXPECT_GT(conflict_latency, hit_latency);
}

TEST_F(ControllerFixture, FrFcfsCapBoundsHitReordering)
{
    McConfig cfg;
    cfg.frfcfsCap = 4;
    MemoryController capped(spec, map, cfg);
    std::vector<Completion> done;
    capped.onReadComplete = [&](const Request &r, Cycle c) {
        done.push_back({r, c});
    };

    // Open row 5, then enqueue an older conflict (row 9) followed by a
    // stream of row-5 hits. At most `cap` hits may bypass the conflict.
    capped.enqueueRead(readReq(addrOf(5, 0), 0, 100), 0);
    Cycle t = 0;
    for (; t < 400; ++t)
        capped.tick(t);
    ASSERT_EQ(done.size(), 1u);

    capped.enqueueRead(readReq(addrOf(9, 0), 1, 999), t); // Conflict.
    for (unsigned i = 0; i < 12; ++i)
        capped.enqueueRead(readReq(addrOf(5, 1 + i), 0, i), t); // Hits.
    for (; t < 6000 && done.size() < 14; ++t)
        capped.tick(t);
    ASSERT_EQ(done.size(), 14u);

    // Find the conflict's completion position: <= cap hits before it.
    unsigned position = 0;
    for (unsigned i = 1; i < done.size(); ++i) {
        if (done[i].req.token == 999) {
            position = i - 1; // Hits served before the conflict.
            break;
        }
    }
    EXPECT_LE(position, cfg.frfcfsCap);
}

TEST_F(ControllerFixture, PeriodicRefreshHappens)
{
    unsigned refreshes = 0;
    mc.onPeriodicRefresh = [&](unsigned, unsigned, unsigned) {
        ++refreshes;
    };
    runUntil(spec.timing.tREFI * 3 + 100);
    // Two ranks, three intervals each (allow boundary slack).
    EXPECT_GE(refreshes, 4u);
    EXPECT_LE(refreshes, 8u);
}

TEST_F(ControllerFixture, RefreshSweepAdvances)
{
    std::vector<unsigned> starts;
    mc.onPeriodicRefresh = [&](unsigned rank, unsigned start, unsigned n) {
        if (rank == 0)
            starts.push_back(start);
        EXPECT_EQ(n, spec.org.rowsPerBank / 8192);
    };
    runUntil(spec.timing.tREFI * 3 + 100);
    ASSERT_GE(starts.size(), 2u);
    EXPECT_NE(starts[0], starts[1]);
}

TEST_F(ControllerFixture, VictimRefreshBlocksBankAndNotifies)
{
    unsigned protected_row = 0;
    mc.onRowProtected = [&](unsigned, unsigned row) {
        protected_row = row;
    };
    mc.performVictimRefresh(0, 42, 1.0);
    EXPECT_EQ(mc.preventiveActions(), 1u);
    runUntil(50);
    EXPECT_EQ(protected_row, 42u);
    // The bank is busy for ~2 tRC: a read takes much longer than usual.
    mc.enqueueRead(readReq(addrOf(7)), now);
    runUntil(now + 3000);
    ASSERT_EQ(completions.size(), 1u);
    EXPECT_GT(completions[0].at, 2 * spec.timing.tRC);
    EXPECT_EQ(mc.engine().energy().victimRows(), 2u);
}

TEST_F(ControllerFixture, MigrationChargesEnergy)
{
    mc.performMigration(3, 10);
    runUntil(100);
    EXPECT_EQ(mc.engine().energy().migrations(), 1u);
    EXPECT_EQ(mc.preventiveActions(), 1u);
}

TEST_F(ControllerFixture, ObserverSeesActionsAndActs)
{
    struct Recorder : IActionObserver
    {
        void onDemandActivate(ThreadId t, unsigned, Cycle) override
        {
            last_thread = t;
            ++acts;
        }
        void onPreventiveAction(double w, Cycle) override
        {
            weight += w;
        }
        void onDirectScore(ThreadId, double, Cycle) override {}
        ThreadId last_thread = kInvalidThread;
        unsigned acts = 0;
        double weight = 0;
    } recorder;

    mc.setObserver(&recorder);
    mc.enqueueRead(readReq(addrOf(5), 3), 0);
    runUntil(500);
    EXPECT_EQ(recorder.acts, 1u);
    EXPECT_EQ(recorder.last_thread, 3u);
    mc.performVictimRefresh(0, 1, 2.5);
    EXPECT_DOUBLE_EQ(recorder.weight, 2.5);
}

TEST_F(ControllerFixture, WritesDrainInBatches)
{
    // Fill the write queue beyond the high watermark; writes get served.
    for (unsigned i = 0; i < 50; ++i) {
        Request w;
        w.type = Request::Type::kWrite;
        w.addr = addrOf(5, i % 64);
        w.thread = 0;
        mc.enqueueWrite(w, 0);
    }
    runUntil(20000);
    EXPECT_GT(mc.writesServed(), 30u);
    EXPECT_LT(mc.writeQueueDepth(), 20u);
}

TEST_F(ControllerFixture, MitigationActReleaseDelaysIssue)
{
    struct Delayer : IMitigation
    {
        const char *name() const override { return "delayer"; }
        void commitAct(unsigned, unsigned, ThreadId, Cycle) override
        {
            ++acts;
        }
        Cycle
        probeActReleaseCycle(unsigned, unsigned row, ThreadId,
                             Cycle now) const override
        {
            // Absolute release time, as BlockHammer computes it.
            return row == 5 ? std::max<Cycle>(now, 5000) : now;
        }
        bool delaysActs() const override { return true; }
        unsigned acts = 0;
    } delayer;

    mc.setMitigation(&delayer);
    mc.enqueueRead(readReq(addrOf(5), 0, 1), 0);  // Delayed row.
    mc.enqueueRead(readReq(addrOf(9), 0, 2), 0);  // Free row, same bank.
    runUntil(2500);
    // The free row overtakes the delayed one.
    ASSERT_GE(completions.size(), 1u);
    EXPECT_EQ(completions[0].req.token, 2u);
    runUntil(9000);
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_EQ(completions[1].req.token, 1u);
    EXPECT_GE(completions[1].at, 5000u);
}

TEST_F(ControllerFixture, AlertBackoffBlocksEverything)
{
    mc.performAlertBackoff(4, 1.0);
    // All banks blocked for 4 * tRFM.
    mc.enqueueRead(readReq(addrOf(3)), now);
    runUntil(4 * spec.timing.tRFM - 10);
    EXPECT_TRUE(completions.empty());
    runUntil(4 * spec.timing.tRFM + 2000);
    EXPECT_EQ(completions.size(), 1u);
}

TEST_F(ControllerFixture, QueueCapacityChecks)
{
    McConfig cfg;
    cfg.readQueueSize = 2;
    MemoryController small(spec, map, cfg);
    EXPECT_TRUE(small.canEnqueueRead());
    small.enqueueRead(readReq(addrOf(1)), 0);
    small.enqueueRead(readReq(addrOf(2)), 0);
    EXPECT_FALSE(small.canEnqueueRead());
}

TEST_F(ControllerFixture, WakeMemoIsForcedByEnqueueAndRecomputedAfterTick)
{
    runUntil(100);
    EXPECT_EQ(mc.wakeAt(), mc.nextEventCycle(now - 1));

    mc.enqueueRead(readReq(addrOf(5)), now);
    EXPECT_EQ(mc.wakeAt(), now);
    mc.tick(now);
    EXPECT_EQ(mc.wakeAt(), mc.nextEventCycle(now));
    EXPECT_GT(mc.wakeAt(), now);

    ++now;
    Request w;
    w.type = Request::Type::kWrite;
    w.addr = addrOf(9);
    mc.enqueueWrite(w, now);
    EXPECT_EQ(mc.wakeAt(), now);
    mc.tick(now);
    EXPECT_EQ(mc.wakeAt(), mc.nextEventCycle(now));
}

/** One scripted request arrival of the wake-memo equivalence test. */
struct Arrival
{
    Cycle at;
    bool write;
    Addr addr;
};

/**
 * Phases of 3000 cycles: write bursts with no reads (the write queue
 * crosses the high watermark, then drains with an empty read queue, the
 * drain hysteresis's period-2 regime), mixed traffic, and near-idle gaps
 * the wake memo skips. Four rows per bank in four banks per rank make
 * row conflicts, so mitigations see repeated activations.
 */
std::vector<Arrival>
scriptedArrivals(const AddressMap &map, Cycle horizon)
{
    Rng rng(77);
    std::vector<Arrival> out;
    for (Cycle t = 0; t < horizon; ++t) {
        unsigned phase = static_cast<unsigned>(t / 3000) % 3;
        double p_write = phase == 0 ? 0.08 : (phase == 1 ? 0.01 : 0.0);
        double p_read = phase == 0 ? 0.0 : (phase == 1 ? 0.03 : 0.002);
        for (bool write : {true, false}) {
            if (!rng.nextBool(write ? p_write : p_read))
                continue;
            DramAddress da;
            da.rank = static_cast<unsigned>(rng.nextBounded(2));
            da.bankGroup = static_cast<unsigned>(rng.nextBounded(4));
            da.row = 100 + static_cast<unsigned>(rng.nextBounded(4));
            da.column = static_cast<unsigned>(rng.nextBounded(8));
            out.push_back({t, write, map.encode(da)});
        }
    }
    return out;
}

std::string
controllerState(const MemoryController &mc, const IMitigation *mitigation)
{
    StateWriter w;
    mc.saveState(w);
    if (mitigation != nullptr)
        mitigation->saveState(w);
    return w.take();
}

/**
 * saveState() bytes with lastSeenCycle (the fifth-last u64 of the
 * section) cut out: it records when a controller was last ticked, which
 * a controller caught up without a tick legitimately leaves behind.
 */
std::string
stateWithoutLastTick(const MemoryController &mc)
{
    std::string state = controllerState(mc, nullptr);
    return state.erase(state.size() - 5 * sizeof(std::uint64_t),
                       sizeof(std::uint64_t));
}

TEST(ControllerDrainReplayTest, UnvisitedSpansReplayLikeDenseTicks)
{
    // A few writes (at or below the low watermark), no reads, and a
    // rank-wide blackout: nothing can issue, and the drain flag flips on
    // every cycle. A controller left unvisited between its wakes must
    // come out of each span where the dense controller is, whether an
    // enqueue, a tick or a catch-up closes it, after an odd or an even
    // number of missed steps.
    DramSpec spec = DramSpec::ddr5();
    AddressMap map(spec.org);
    MemoryController dense(spec, map, McConfig{});
    MemoryController lazy(spec, map, McConfig{});
    unsigned column = 0;
    auto enqueue_both = [&](Cycle t) {
        DramAddress da;
        da.row = 7;
        da.column = column++;
        Request w;
        w.type = Request::Type::kWrite;
        w.addr = map.encode(da);
        dense.enqueueWrite(w, t);
        lazy.enqueueWrite(w, t);
    };
    for (int i = 0; i < 4; ++i)
        enqueue_both(0);
    constexpr unsigned kRfms = 8;
    dense.performAlertBackoff(kRfms, 1.0);
    lazy.performAlertBackoff(kRfms, 1.0);
    const Cycle quiet_until =
        std::min<Cycle>(kRfms * spec.timing.tRFM, spec.timing.tREFI);

    // Span lengths alternate odd and even while the closers rotate, so
    // each closer sees both parities.
    const Cycle gaps[] = {5, 8, 3, 6, 7, 4, 11, 2, 9, 10, 1, 12};
    enum Closer { kEnqueue, kTick, kCatchUp };
    std::size_t span = 0;
    Cycle close_at = gaps[0];
    unsigned stale_spans = 0;
    for (Cycle t = 0; span < std::size(gaps); ++t) {
        ASSERT_LT(t, quiet_until);
        const bool closing = t == close_at;
        const Closer closer = static_cast<Closer>(span % 3);
        if (closing) {
            SCOPED_TRACE(t);
            // The state a missed odd number of flips leaves behind.
            if (stateWithoutLastTick(lazy) != stateWithoutLastTick(dense))
                ++stale_spans;
            if (closer == kEnqueue)
                enqueue_both(t);
        }
        dense.tick(t);
        if (t >= lazy.wakeAt() || (closing && closer == kTick)) {
            // Only the enqueue at cycle 0 or a closing one wakes it.
            EXPECT_TRUE(t == 0 || closing) << t;
            lazy.tick(t);
        } else if (closing && closer == kCatchUp) {
            lazy.catchUp(t);
        }
        if (!closing)
            continue;
        SCOPED_TRACE(t);
        EXPECT_EQ(stateWithoutLastTick(lazy), stateWithoutLastTick(dense));
        if (closer != kCatchUp) {
            EXPECT_EQ(controllerState(lazy, nullptr),
                      controllerState(dense, nullptr));
        }
        ++span;
        if (span < std::size(gaps))
            close_at = t + gaps[span];
    }
    EXPECT_EQ(dense.writesServed(), 0u);
    // Every even gap leaves an odd number of flips unapplied.
    EXPECT_EQ(stale_spans, 6u);
}

/** Every mechanism, in MitigationType order. */
constexpr MitigationType kAllMechanisms[] = {
    MitigationType::kNone,     MitigationType::kPara,
    MitigationType::kGraphene, MitigationType::kHydra,
    MitigationType::kTwice,    MitigationType::kAqua,
    MitigationType::kRega,     MitigationType::kRfm,
    MitigationType::kPrac,     MitigationType::kBlockHammer,
};

/**
 * Drive scriptedArrivals through one controller per mechanism (N_RH=64,
 * four threads), ticking it only at its wake as System does, and digest
 * every decision it makes: each demand ACT (cycle, bank, row, thread),
 * each read completion (token, cycle), and the final controller and
 * mechanism state. With @p restore_at inside the horizon, each run is
 * saved at that cycle and continues in a freshly built controller and
 * mechanism, which must make the same decisions.
 */
std::uint64_t
scheduleDigest(Cycle restore_at)
{
    constexpr Cycle kHorizon = 27000;
    constexpr unsigned kThreads = 4;
    const unsigned n_rh = 64;
    StateWriter log;
    for (MitigationType type : kAllMechanisms) {
        DramSpec spec = DramSpec::ddr5();
        applyTimingSideEffects(type, n_rh, &spec);
        AddressMap map(spec.org);
        std::unique_ptr<MemoryController> mc;
        std::unique_ptr<IMitigation> mitigation;
        auto build = [&]() {
            mc = std::make_unique<MemoryController>(spec, map, McConfig{});
            mitigation = createMitigation(type, n_rh, spec, kThreads);
            mc->setMitigation(mitigation.get());
            mc->onDemandAct = [&log](unsigned bank, unsigned row,
                                     ThreadId thread, Cycle c) {
                log.u64(c);
                log.u64(bank);
                log.u64(row);
                log.u64(thread);
            };
            mc->onReadComplete = [&log](const Request &r, Cycle c) {
                log.u64(r.token);
                log.u64(c);
            };
        };
        build();

        std::vector<Arrival> arrivals = scriptedArrivals(map, kHorizon);
        std::size_t next = 0;
        std::uint64_t token = 0;
        for (Cycle t = 0; t < kHorizon; ++t) {
            if (t == restore_at) {
                mc->catchUp(t - 1);
                StateReader r(controllerState(*mc, mitigation.get()));
                build();
                mc->loadState(r);
                mc->anchorReplayAt(t);
                if (mitigation != nullptr)
                    mitigation->loadState(r);
                EXPECT_TRUE(r.atEnd()) << mitigationName(type);
            }
            for (; next < arrivals.size() && arrivals[next].at == t; ++next) {
                Request req;
                req.addr = arrivals[next].addr;
                req.thread = static_cast<ThreadId>(next % kThreads);
                if (arrivals[next].write) {
                    req.type = Request::Type::kWrite;
                    if (mc->canEnqueueWrite())
                        mc->enqueueWrite(req, t);
                } else {
                    req.type = Request::Type::kRead;
                    req.token = token++;
                    if (mc->canEnqueueRead())
                        mc->enqueueRead(req, t);
                }
            }
            if (t >= mc->wakeAt())
                mc->tick(t);
        }
        mc->catchUp(kHorizon - 1);
        log.str(controllerState(*mc, mitigation.get()));
    }
    return fnv1a64(log.data().data(), log.data().size());
}

/** scheduleDigest() of the scheduler these tests pin. */
constexpr std::uint64_t kPinnedScheduleDigest = 0xbd910f8bed4641b4ull;

TEST(ControllerDecisionTest, ScriptedDecisionsArePinnedForEveryMechanism)
{
    // The dense==event test below runs one scheduler on both sides, so a
    // change to which request gets picked would still pass it. This
    // digest pins the picks themselves: any scheduler rewrite must
    // reproduce every ACT, every completion and the final state.
    EXPECT_EQ(scheduleDigest(kNeverCycle), kPinnedScheduleDigest);
}

TEST_F(ControllerFixture, WakeMemoResetsOnRestore)
{
    // An idle controller's wake is its first refresh deadline, far past
    // the enqueue cycle a stale forced wake would still report.
    runUntil(50);
    const Cycle last = now - 1;
    StateWriter saved;
    mc.saveState(saved);

    mc.enqueueRead(readReq(addrOf(5)), now);
    ASSERT_EQ(mc.wakeAt(), now);
    StateReader r(saved.take());
    mc.loadState(r);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(mc.wakeAt(), mc.nextEventCycle(last));
    EXPECT_GT(mc.wakeAt(), now);

    // Mid-run, in the mixed-traffic phase with both queues busy: a
    // restore into a fresh controller rebuilds every derived per-bank
    // field and continues with the uninterrupted run's decisions.
    EXPECT_EQ(scheduleDigest(4321), kPinnedScheduleDigest);
}

TEST(ControllerWakeMemoTest, TickingOnlyAtWakeMatchesTickingEveryCycle)
{
    constexpr Cycle kHorizon = 27000;
    constexpr Cycle kStateCheckEvery = 997;
    for (MitigationType type : kAllMechanisms) {
        SCOPED_TRACE(mitigationName(type));
        const unsigned n_rh = 64;
        DramSpec spec = DramSpec::ddr5();
        applyTimingSideEffects(type, n_rh, &spec);
        AddressMap map(spec.org);

        MemoryController dense(spec, map, McConfig{});
        MemoryController event(spec, map, McConfig{});
        std::unique_ptr<IMitigation> dense_m =
            createMitigation(type, n_rh, spec, 1);
        std::unique_ptr<IMitigation> event_m =
            createMitigation(type, n_rh, spec, 1);
        dense.setMitigation(dense_m.get());
        event.setMitigation(event_m.get());
        std::vector<Completion> dense_done, event_done;
        dense.onReadComplete = [&](const Request &r, Cycle c) {
            dense_done.push_back({r, c});
        };
        event.onReadComplete = [&](const Request &r, Cycle c) {
            event_done.push_back({r, c});
        };

        std::vector<Arrival> arrivals = scriptedArrivals(map, kHorizon);
        std::size_t next = 0;
        std::uint64_t token = 0;
        std::size_t max_write_depth = 0;
        Cycle event_ticks = 0;
        for (Cycle t = 0; t < kHorizon; ++t) {
            for (; next < arrivals.size() && arrivals[next].at == t; ++next) {
                Request req;
                req.addr = arrivals[next].addr;
                if (arrivals[next].write) {
                    req.type = Request::Type::kWrite;
                    ASSERT_EQ(dense.canEnqueueWrite(),
                              event.canEnqueueWrite());
                    if (dense.canEnqueueWrite()) {
                        dense.enqueueWrite(req, t);
                        event.enqueueWrite(req, t);
                    }
                } else {
                    req.type = Request::Type::kRead;
                    req.token = token++;
                    ASSERT_EQ(dense.canEnqueueRead(), event.canEnqueueRead());
                    if (dense.canEnqueueRead()) {
                        dense.enqueueRead(req, t);
                        event.enqueueRead(req, t);
                    }
                }
            }
            dense.tick(t);
            // A periodic unconditional tick lets the full serialized
            // state (drain flag, hit streaks, bank timing) be compared.
            bool check_state = t % kStateCheckEvery == 0;
            if (check_state || t >= event.wakeAt()) {
                event.tick(t);
                ++event_ticks;
            }
            ASSERT_EQ(dense.readsServed(), event.readsServed()) << t;
            ASSERT_EQ(dense.writesServed(), event.writesServed()) << t;
            ASSERT_EQ(dense.readQueueDepth(), event.readQueueDepth()) << t;
            ASSERT_EQ(dense.writeQueueDepth(), event.writeQueueDepth())
                << t;
            max_write_depth = std::max(max_write_depth,
                                       dense.writeQueueDepth());
            if (check_state) {
                ASSERT_EQ(controllerState(dense, dense_m.get()),
                          controllerState(event, event_m.get()))
                    << t;
            }
        }

        ASSERT_EQ(dense_done.size(), event_done.size());
        for (std::size_t i = 0; i < dense_done.size(); ++i) {
            EXPECT_EQ(dense_done[i].req.token, event_done[i].req.token);
            EXPECT_EQ(dense_done[i].at, event_done[i].at);
        }
        EXPECT_EQ(dense.preventiveActions(), event.preventiveActions());
        EXPECT_EQ(dense.demandActs(), event.demandActs());
        // The script must exercise what it claims: served reads, a write
        // queue past the drain watermark, and cycles the memo skipped.
        EXPECT_GT(dense_done.size(), 100u);
        EXPECT_GE(max_write_depth, McConfig{}.wqHighWatermark);
        EXPECT_LT(event_ticks, kHorizon / 2);
    }
}

} // namespace
} // namespace bh
