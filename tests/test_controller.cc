/**
 * @file
 * Unit tests for src/mem: scheduling, refresh, maintenance operations, the
 * mitigation/observer hook points, and the memoized controller wake.
 */
#include <gtest/gtest.h>

#include <cstring>

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
controllerState(MemoryController &mc, IMitigation *mitigation)
{
    StateWriter w;
    StateIo io(w);
    mc.transfer(io);
    if (mitigation != nullptr)
        mitigation->transfer(io);
    return w.take();
}

TEST(ControllerDrainFlagTest, UnvisitedSpansLeaveNoState)
{
    // A few writes (at or below the low watermark), no reads, and a
    // rank-wide blackout: nothing can issue, so the drain-mode step
    // would flip on every cycle if it were stored. It is stored only
    // when a demand command issues, so a controller left unvisited
    // between its wakes must come out of each span exactly where the
    // densely ticked one is, in full state and with no catch-up call,
    // whether an enqueue or a tick closes it, after an odd or an even
    // number of unvisited cycles.
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

    // Span lengths alternate odd and even while the closer changes every
    // two spans, so each closer sees both parities.
    const Cycle gaps[] = {5, 8, 3, 6, 7, 4, 11, 2, 9, 10, 1, 12};
    std::size_t span = 0;
    Cycle close_at = gaps[0];
    for (Cycle t = 0; span < std::size(gaps); ++t) {
        ASSERT_LT(t, quiet_until);
        const bool closing = t == close_at;
        const bool by_enqueue = span / 2 % 2 == 0;
        if (closing && by_enqueue)
            enqueue_both(t);
        dense.tick(t);
        if (t >= lazy.wakeAt() || (closing && !by_enqueue)) {
            // Only the enqueue at cycle 0 or a closing one wakes it.
            EXPECT_TRUE(t == 0 || closing) << t;
            lazy.tick(t);
        }
        if (!closing)
            continue;
        SCOPED_TRACE(t);
        EXPECT_EQ(controllerState(lazy, nullptr),
                  controllerState(dense, nullptr));
        ++span;
        if (span < std::size(gaps))
            close_at = t + gaps[span];
    }
    EXPECT_EQ(dense.writesServed(), 0u);
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
                StateReader r(controllerState(*mc, mitigation.get()));
                StateIo io(r);
                build();
                mc->transfer(io);
                if (mitigation != nullptr)
                    mitigation->transfer(io);
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
        log.str(controllerState(*mc, mitigation.get()));
    }
    return fnv1a64(log.data().data(), log.data().size());
}

/**
 * scheduleDigest() of the scheduler these tests pin. It moved from
 * 0xbd910f8bed4641b4 when the write-drain mode began to be stored only
 * when a demand command issues. Only REGA's decisions changed (620
 * instead of 621; Hydra's and BlockHammer's final state differs in the
 * saved drain flag alone). REGA's first difference is the ACT at cycle
 * 22351 to bank 20, with 36 reads and 18 writes queued. A flag stepped
 * on every cycle had settled on read mode and drew row 100 for thread 2
 * from the read queue; the mode kept from the last issue is still
 * draining (18 writes exceed the low watermark) and draws row 101 for
 * thread 1 from the write queue.
 */
constexpr std::uint64_t kPinnedScheduleDigest = 0x0f7771c297798802ull;

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
    StateIo save(saved);
    mc.transfer(save);

    mc.enqueueRead(readReq(addrOf(5)), now);
    ASSERT_EQ(mc.wakeAt(), now);
    StateReader r(saved.take());
    StateIo load(r);
    mc.transfer(load);
    ASSERT_TRUE(r.atEnd());
    EXPECT_EQ(mc.wakeAt(), mc.nextEventCycle(last));
    EXPECT_GT(mc.wakeAt(), now);

    // Mid-run, in the mixed-traffic phase with both queues busy: a
    // restore into a fresh controller rebuilds every derived per-bank
    // field and continues with the uninterrupted run's decisions.
    EXPECT_EQ(scheduleDigest(4321), kPinnedScheduleDigest);
}

TEST_F(ControllerFixture, RestoreRefusesAliasedOrOutOfRangeFreeSlots)
{
    // Three reads to three bank groups; stop at the first completion,
    // which frees its pending-read slot while the others are in flight.
    for (unsigned g = 0; g < 3; ++g)
        mc.enqueueRead(readReq(addrOf(5, 0, g), 0, g), now);
    while (completions.empty())
        mc.tick(now++);
    StateWriter w;
    StateIo save(w);
    mc.transfer(save);
    const std::string state = w.take();

    // The first read's slot is free; the other two are awaited.
    ASSERT_EQ(completions.size(), 1u);
    const std::uint64_t free = 1, in_flight = 2;

    // Locate the free-slot and completion lists from the end of the
    // section: after them come nextRefAt and refSweepPos (per rank),
    // the hit streaks (per bank) and six counters.
    auto u64_at = [&state](std::size_t at) {
        std::uint64_t v;
        std::memcpy(&v, state.data() + at, sizeof(v));
        return v;
    };
    const std::size_t tail =
        (3 + 2 * spec.org.ranks + spec.org.totalBanks() + 6) * 8;
    const std::size_t completions_at =
        state.size() - tail - 8 - 16 * in_flight;
    const std::size_t free_at = completions_at - 8 * free;
    ASSERT_EQ(u64_at(completions_at), in_flight);
    ASSERT_EQ(u64_at(free_at - 8), free);
    const std::uint64_t slots = free + in_flight;
    ASSERT_LT(u64_at(free_at), slots);
    const std::uint64_t awaited = u64_at(completions_at + 16);

    auto loads = [&](const std::string &bytes) {
        MemoryController fresh(spec, map, McConfig{});
        StateReader r(bytes);
        StateIo load(r);
        fresh.transfer(load);
        return r.atEnd();
    };
    EXPECT_TRUE(loads(state));
    for (std::uint64_t slot : {slots, awaited}) {
        SCOPED_TRACE(slot);
        std::string bad = state;
        std::memcpy(bad.data() + free_at, &slot, sizeof(slot));
        EXPECT_FALSE(loads(bad));
    }
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
