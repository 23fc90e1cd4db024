#include "sim/system.h"

#include <algorithm>
#include <cstdio>

#include "common/log.h"
#include "common/snapshot.h"
#include "mitigation/blockhammer.h"

namespace bh {

namespace {

/** MSHR key space for uncached requests (disjoint from line addresses). */
constexpr Addr kUncachedKeyBase = 1ull << 63;

/** Leading bytes of every snapshot file. */
constexpr char kSnapshotMagic[] = "BHSNAP01";

static_assert(((System::kRollPeriodMask + 1) &
               System::kRollPeriodMask) == 0,
              "the roll cadence must be a power-of-two grid");

Addr
lineOf(Addr addr)
{
    return addr & ~static_cast<Addr>(kCacheLineBytes - 1);
}

/** The first multiple of @p every above @p v: a cadence's next mark. */
constexpr std::uint64_t
nextMark(std::uint64_t v, std::uint64_t every)
{
    return (v / every + 1) * every;
}

} // namespace

std::vector<double>
RunResult::benignIpcs() const
{
    std::vector<double> out;
    for (const CoreResult &c : cores)
        if (c.benign)
            out.push_back(c.ipc);
    return out;
}

System::System(const SystemConfig &config,
               const std::vector<WorkloadSlot> &slots)
    : config_(config),
      mapper(config.spec.org, 4, config.interleave),
      llc(config.llc),
      mshr(config.mshrEntries, config.numCores),
      slots_(slots)
{
    BH_ASSERT(slots.size() == config.numCores,
              "one workload slot per core required");

    const unsigned channels = config_.spec.org.channels;
    if (config_.breakHammer)
        bh = std::make_unique<BreakHammer>(config_.numCores, config_.bh,
                                           &mshr);

    for (unsigned ch = 0; ch < channels; ++ch) {
        mcs.push_back(std::make_unique<MemoryController>(
            config_.spec, mapper, config_.mc, ch));
        MemoryController *mc = mcs.back().get();

        // One mitigation instance per channel: tracking tables index flat
        // (rank-major) banks, so per-rank state lives inside the channel's
        // instance exactly as it does on a single-channel part.
        mitigations.push_back(createMitigation(config_.mitigation,
                                               config_.nRh, config_.spec,
                                               config_.numCores));
        if (mitigations.back() != nullptr)
            mc->setMitigation(mitigations.back().get());

        if (bh)
            mc->setObserver(bh.get());

        // BlockHammer's AttackThrottler shares the MSHR throttle point.
        if (auto *bhm = dynamic_cast<BlockHammer *>(mitigations.back().get()))
            bhm->setThrottleTarget(&mshr);

        if (config_.enableOracle) {
            oracles.push_back(std::make_unique<HammerOracle>(
                config_.spec.org, config_.nRh));
            HammerOracle *oracle = oracles.back().get();
            mc->onRowProtected = [oracle](unsigned bank, unsigned row) {
                oracle->onRowProtected(bank, row);
            };
        }

        HammerOracle *oracle =
            config_.enableOracle ? oracles.back().get() : nullptr;
        mc->onDemandAct = [this, oracle](unsigned bank, unsigned row,
                                         ThreadId thread, Cycle) {
            ++demandActsByThread_[thread];
            if (oracle)
                oracle->onActivate(bank, row);
        };
        mc->onPeriodicRefresh = [oracle](unsigned rank, unsigned start,
                                         unsigned rows) {
            if (oracle)
                oracle->onRefreshSweep(rank, start, rows);
        };
        mc->onReadComplete = [this](const Request &req, Cycle done) {
            handleReadComplete(req, done);
        };
    }

    // Each core slot owns a private row region so apps never share rows.
    unsigned region = config_.spec.org.rowsPerBank / (config_.numCores * 2);
    benignSlot.resize(config_.numCores);
    rejectCountsQuota.resize(config_.numCores, false);
    rejectTouchesLlc.resize(config_.numCores, false);
    demandActsByThread_.resize(config_.numCores, 0);
    for (unsigned i = 0; i < config_.numCores; ++i) {
        const WorkloadSlot &slot = slots[i];
        std::uint64_t seed = config_.seed * 0x10001 + i * 0x9e3779b9;
        if (slot.kind == WorkloadSlot::Kind::kBenign) {
            benignSlot[i] = true;
            traces.push_back(std::make_unique<BenignTrace>(
                findApp(slot.appName), mapper, i * region, region, seed));
        } else {
            benignSlot[i] = false;
            AttackerConfig atk = slot.attacker;
            if (atk.rowBase == 0)
                atk.rowBase = i * region + 16;
            if (slot.kind == WorkloadSlot::Kind::kAdaptiveAttacker) {
                auto trace = std::make_unique<AdaptiveAttackerTrace>(
                    atk, slot.adaptive, mapper, seed);
                // The feedback view is this System; sampling is const
                // and fires only from next(), after construction.
                trace->bindFeedback(this, i);
                traces.push_back(std::move(trace));
            } else {
                traces.push_back(
                    std::make_unique<AttackerTrace>(atk, mapper, seed));
            }
        }
        cores.push_back(std::make_unique<Core>(
            i, traces.back().get(), this, config_.core, benignSlot[i]));
    }
}

ThrottleFeedback
System::sampleThrottleFeedback(ThreadId thread) const
{
    ThrottleFeedback fb;
    if (bh) {
        fb.score = bh->score(thread);
        fb.suspect =
            bh->isSuspect(thread) || bh->wasRecentSuspect(thread);
    }
    fb.quota = mshr.quota(thread);
    fb.fullQuota = mshr.fullQuota();
    fb.rejectStallCycles = cores[thread]->rejectStallCycles();
    return fb;
}

System::~System() = default;

unsigned
System::channelOf(Addr addr) const
{
    // A single-channel map always decodes channel 0; skip the decode.
    if (mcs.size() == 1)
        return 0;
    return mapper.decode(addr).channel;
}

bool
System::allChannelsHaveWriteRoom() const
{
    for (const auto &mc : mcs)
        if (!mc->canEnqueueWrite())
            return false;
    return true;
}

AccessOutcome
System::load(ThreadId thread, Addr addr, bool uncached, std::uint64_t token)
{
    if (uncached) {
        if (!mshr.canAllocate(thread)) {
            bool quota = mshr.totalInflight() < mshr.fullQuota();
            if (quota)
                mshr.noteQuotaRejection();
            rejectCountsQuota[thread] = quota;
            rejectTouchesLlc[thread] = false;
            return AccessOutcome::kRejected;
        }
        MemoryController &mc = *mcs[channelOf(addr)];
        if (!mc.canEnqueueRead()) {
            rejectCountsQuota[thread] = false;
            rejectTouchesLlc[thread] = false;
            return AccessOutcome::kRejected;
        }
        Addr key = kUncachedKeyBase + uncachedKeyCounter++;
        mshr.allocate(key, thread, false);
        mshr.merge(key, MshrWaiter{thread, token, true}, false);
        Request req;
        req.type = Request::Type::kRead;
        req.addr = addr;
        req.thread = thread;
        req.token = key;
        req.uncached = true;
        mc.enqueueRead(req, now);
        return AccessOutcome::kQueued;
    }

    Addr line = lineOf(addr);
    if (llc.access(line, false))
        return AccessOutcome::kHit;

    if (mshr.has(line)) {
        if (config_.bluntThrottle &&
            mshr.inflightOf(thread) >= mshr.quota(thread)) {
            mshr.noteQuotaRejection();
            rejectCountsQuota[thread] = true;
            rejectTouchesLlc[thread] = true;
            return AccessOutcome::kRejected;
        }
        mshr.merge(line, MshrWaiter{thread, token, true}, false);
        return AccessOutcome::kQueued;
    }
    if (!mshr.canAllocate(thread)) {
        bool quota = mshr.totalInflight() < mshr.fullQuota();
        if (quota)
            mshr.noteQuotaRejection();
        rejectCountsQuota[thread] = quota;
        rejectTouchesLlc[thread] = true;
        return AccessOutcome::kRejected;
    }
    // Room for the fill read plus a worst-case writeback: the victim's
    // channel is unknown until the LLC picks it, so all channels need
    // write space (identical to the old check with one channel).
    MemoryController &fill = *mcs[channelOf(line)];
    if (!fill.canEnqueueRead() || !allChannelsHaveWriteRoom()) {
        rejectCountsQuota[thread] = false;
        rejectTouchesLlc[thread] = true;
        return AccessOutcome::kRejected;
    }

    Llc::Victim victim;
    llc.allocate(line, false, &victim);
    if (victim.dirtyWriteback) {
        Request wb;
        wb.type = Request::Type::kWrite;
        wb.addr = victim.writebackLine;
        wb.thread = thread;
        mcs[channelOf(victim.writebackLine)]->enqueueWrite(wb, now);
    }
    mshr.allocate(line, thread, false);
    mshr.merge(line, MshrWaiter{thread, token, true}, false);

    Request req;
    req.type = Request::Type::kRead;
    req.addr = line;
    req.thread = thread;
    req.token = line;
    fill.enqueueRead(req, now);
    return AccessOutcome::kQueued;
}

AccessOutcome
System::store(ThreadId thread, Addr addr, bool uncached)
{
    if (uncached) {
        MemoryController &mc = *mcs[channelOf(addr)];
        if (!mc.canEnqueueWrite()) {
            rejectCountsQuota[thread] = false;
            rejectTouchesLlc[thread] = false;
            return AccessOutcome::kRejected;
        }
        Request req;
        req.type = Request::Type::kWrite;
        req.addr = addr;
        req.thread = thread;
        req.uncached = true;
        mc.enqueueWrite(req, now);
        return AccessOutcome::kHit;
    }

    Addr line = lineOf(addr);
    if (llc.access(line, true))
        return AccessOutcome::kHit;

    if (mshr.has(line)) {
        mshr.merge(line, MshrWaiter{thread, 0, false}, true);
        return AccessOutcome::kHit;
    }
    if (!mshr.canAllocate(thread)) {
        bool quota = mshr.totalInflight() < mshr.fullQuota();
        if (quota)
            mshr.noteQuotaRejection();
        rejectCountsQuota[thread] = quota;
        rejectTouchesLlc[thread] = true;
        return AccessOutcome::kRejected;
    }
    MemoryController &fill = *mcs[channelOf(line)];
    if (!fill.canEnqueueRead() || !allChannelsHaveWriteRoom()) {
        rejectCountsQuota[thread] = false;
        rejectTouchesLlc[thread] = true;
        return AccessOutcome::kRejected;
    }

    Llc::Victim victim;
    llc.allocate(line, true, &victim);
    if (victim.dirtyWriteback) {
        Request wb;
        wb.type = Request::Type::kWrite;
        wb.addr = victim.writebackLine;
        wb.thread = thread;
        mcs[channelOf(victim.writebackLine)]->enqueueWrite(wb, now);
    }
    mshr.allocate(line, thread, true);

    Request req;
    req.type = Request::Type::kRead; // Write-allocate fill.
    req.addr = line;
    req.thread = thread;
    req.token = line;
    fill.enqueueRead(req, now);
    return AccessOutcome::kHit;
}

void
System::handleReadComplete(const Request &req, Cycle done_cycle)
{
    if (req.thread < cores.size() && benignSlot[req.thread])
        latencyHist.record(cyclesToNs(done_cycle - req.enqueueCycle));

    std::vector<MshrWaiter> waiters;
    bool any_store = mshr.release(req.token, &waiters);
    if (!req.uncached && any_store)
        llc.setDirty(lineOf(req.addr));
    for (const MshrWaiter &w : waiters)
        cores[w.thread]->completeLoad(w.token, done_cycle);
}

Cycle
System::nextWakeCycle() const
{
    // Cores first: most wakes come from a core with issue work at now+1,
    // and then no controller wake needs recomputing.
    Cycle wake = kNeverCycle;
    for (const auto &core : cores) {
        wake = std::min(wake, core->nextEventCycle(now));
        if (wake <= now + 1)
            return now + 1;
    }
    for (const auto &mc : mcs)
        wake = std::min(wake, mc->wakeAt());
    if (bh) {
        // The dense loop only calls rollWindows at roll-grid marks, so
        // the next effective boundary is the first such mark at or after
        // the window end (same grid as isRollCycle — structurally, via
        // the shared helpers).
        Cycle at = std::max(now + 1, bh->nextWindowBoundary());
        wake = std::min(wake, nextRollCycleAtOrAfter(at));
    }
    return std::max(wake, now + 1);
}

void
System::accountSkippedCycles(Cycle skipped)
{
    for (unsigned i = 0; i < cores.size(); ++i) {
        if (!cores[i]->stalledOnReject())
            continue;
        cores[i]->addRejectStallCycles(skipped);
        if (rejectCountsQuota[i])
            mshr.addQuotaRejections(skipped);
        if (rejectTouchesLlc[i])
            llc.addMisses(skipped); // Each retry probes and misses.
    }
}

void
System::catchUpControllers(Cycle last)
{
    for (auto &mc : mcs)
        mc->catchUp(last);
}

std::uint64_t
System::rejectKey() const
{
    std::uint64_t key = mshr.changes();
    for (const auto &mc : mcs)
        key += mc->queueEvents();
    return key;
}

RunResult
System::run(std::uint64_t benign_target, Cycle max_cycles)
{
    for (auto &core : cores)
        if (core->benign())
            core->setTarget(benign_target);

    if (resumePending_) {
        // A restored snapshot re-enters the loop exactly where the
        // interrupted run left it: `now` and every component came from
        // transfer(). Saving is side-effect-free, so from here on the
        // results are the uninterrupted run's (the reset reject key may
        // simulate one cycle that run skipped, a no-op tick).
        resumePending_ = false;
    } else {
        snapKey_ = kNoRejectKey;
        now = 0;
    }

    return runLoop(max_cycles, benign_target);
}

RunResult
System::runLoop(Cycle max_cycles, std::uint64_t ipc_target)
{
    // Reference mode: tick every cycle. The event-driven loop below must
    // match it bit for bit (test_system_skip compares both). ACT-delaying
    // mechanisms (BlockHammer) ride the event loop too: scheduler probes
    // are const, epoch state rolls in IMitigation::advanceTo() at the top
    // of every controller tick, and the controller's wake set includes
    // the mechanism's next release/epoch-boundary cycle.
    const bool dense = checkpoint_.denseTick;

    // Checkpoint cadence marks, armed past the current progress so a
    // just-resumed run does not immediately re-save its own snapshot.
    const bool ckpt_armed =
        !checkpoint_.path.empty() &&
        (checkpoint_.everyInsts > 0 || checkpoint_.everyCycles > 0);
    std::uint64_t inst_mark = 0;
    Cycle cycle_mark = 0;
    auto min_benign_retired = [this]() {
        std::uint64_t min_retired = UINT64_MAX;
        for (const auto &core : cores)
            if (core->benign())
                min_retired = std::min(min_retired, core->retired());
        return min_retired == UINT64_MAX ? 0 : min_retired;
    };
    if (ckpt_armed) {
        if (checkpoint_.everyInsts)
            inst_mark = nextMark(min_benign_retired(), checkpoint_.everyInsts);
        if (checkpoint_.everyCycles)
            cycle_mark = nextMark(now, checkpoint_.everyCycles);
    }

    // Progress reporting rides the same cadence machinery but is armed
    // independently of snapshots: a sweep worker heartbeats without
    // checkpointing, a checkpointed local run never pays for callbacks.
    const bool prog_armed =
        checkpoint_.onProgress && checkpoint_.progressEveryInsts > 0;
    std::uint64_t prog_mark =
        prog_armed ? nextMark(min_benign_retired(),
                              checkpoint_.progressEveryInsts)
                   : 0;

    bool all_done = false;
    while (now < max_cycles) {
        if (ckpt_armed) {
            // Top-of-iteration is the one place a snapshot can cut the
            // loop: nothing at cycle `now` has run yet, so resume re-
            // enters here with bit-identical state.
            bool due = false;
            if (checkpoint_.everyCycles && now >= cycle_mark) {
                due = true;
                cycle_mark = nextMark(now, checkpoint_.everyCycles);
            }
            if (checkpoint_.everyInsts) {
                std::uint64_t retired = min_benign_retired();
                if (retired >= inst_mark) {
                    due = true;
                    inst_mark = nextMark(retired, checkpoint_.everyInsts);
                }
            }
            if (due) {
                // Controllers that sat out cycles replay their drain
                // steps first: the saved state is the dense loop's.
                catchUpControllers(now - 1);
                std::string error;
                if (!saveSnapshot(checkpoint_.path, &error))
                    std::fprintf(stderr, "checkpoint failed: %s\n",
                                 error.c_str());
            }
        }
        if (prog_armed) {
            std::uint64_t retired = min_benign_retired();
            if (retired >= prog_mark) {
                checkpoint_.onProgress(retired);
                prog_mark =
                    nextMark(retired, checkpoint_.progressEveryInsts);
            }
        }

        all_done = true;
        bool any_reject = false;
        bool core_issues_next = false;
        for (auto &core : cores) {
            core->tick(now);
            if (core->benign() && !core->reachedTarget())
                all_done = false;
            any_reject |= core->stalledOnReject();
            core_issues_next |= core->issuesNextCycle();
        }
        // A controller before its own wake would run a no-op tick apart
        // from the drain-hysteresis step, which it replays itself at its
        // next tick, enqueue or catch-up.
        for (auto &mc : mcs)
            if (dense || now >= mc->wakeAt())
                mc->tick(now);
        if (bh && isRollCycle(now))
            bh->rollWindows(now);
        if (all_done)
            break;
        Cycle next = now + 1;
        if (!dense) {
            // A tick with any memory-system activity can flip a
            // reject-blocked core's retry outcome at the very next
            // cycle, so that cycle must be simulated, not skipped. The
            // key is monotone: equal to its value at the last look, it
            // proves nothing happened in between, this tick included.
            bool retry_state_changed = false;
            if (any_reject) {
                std::uint64_t key = rejectKey();
                retry_state_changed = key != snapKey_;
                snapKey_ = key;
            }
            // A core that issues at now + 1 pins the next wake there
            // (only core ticks move either flag).
            if (!retry_state_changed && !core_issues_next) {
                // Jump to the next cycle anything can happen. Every
                // skipped cycle is a no-op tick for every component
                // except the batched reject-stall accounting.
                Cycle wake = std::min(nextWakeCycle(), max_cycles);
                if (wake > next) {
                    accountSkippedCycles(wake - next);
                    next = wake;
                }
            }
        }
        now = next;
    }
    // Leave every controller as the dense loop would: the break came
    // after ticking `now`, the cap after the cycles before it.
    catchUpControllers(all_done ? now : now - 1);

    RunResult result;
    result.cycles = now;
    result.hitCycleCap = now >= max_cycles;
    // Aggregate over channels: energies and action counts sum (each
    // channel's background term covers that channel's own ranks).
    for (const auto &mc : mcs) {
        const EnergyAccounting &energy = mc->engine().energy();
        result.energyNj += energy.totalNj(now, config_.spec.org.ranks);
        result.preventiveEnergyNj += energy.preventiveNj();
        result.preventiveActions += mc->preventiveActions();
        result.demandActs += mc->demandActs();
    }
    result.suspectMarks = bh ? bh->suspectMarks() : 0;
    result.quotaRejections = mshr.quotaRejections();
    result.demandActsPerThread = demandActsByThread_;
    if (bh) {
        for (unsigned t = 0; t < cores.size(); ++t) {
            result.bhScores.push_back(bh->score(t));
            result.bhQuotas.push_back(bh->quota(t));
        }
    }
    // Oracle: violations sum, the hottest row is the max across channels.
    for (const auto &oracle : oracles) {
        result.oracleViolations += oracle->violations();
        result.oracleMaxCount =
            std::max(result.oracleMaxCount, oracle->maxCount());
    }
    result.benignReadLatencyNs = latencyHist;

    for (unsigned i = 0; i < cores.size(); ++i) {
        CoreResult cr;
        cr.name = traces[i]->name();
        cr.benign = cores[i]->benign();
        cr.retired = cores[i]->retired();
        cr.finishCycle = cores[i]->finishCycle();
        cr.rejectStalls = cores[i]->rejectStallCycles();
        if (cr.benign && cr.finishCycle > 0 && ipc_target > 0) {
            cr.ipc = static_cast<double>(ipc_target) /
                     static_cast<double>(cr.finishCycle);
        } else if (cr.benign) {
            // Hit the cycle cap before the target: report progress IPC.
            cr.ipc = static_cast<double>(cr.retired) /
                     static_cast<double>(now ? now : 1);
        } else {
            cr.ipc = static_cast<double>(cr.retired) /
                     static_cast<double>(now ? now : 1);
        }
        result.cores.push_back(cr);
    }
    return result;
}

// --- Snapshot / checkpoint ---------------------------------------------

void
System::setCheckpoint(const CheckpointConfig &config)
{
    checkpoint_ = config;
}

std::uint64_t
System::configFingerprint() const
{
    // Serialize every constructor input that shapes the object graph and
    // hash the bytes; the DRAM spec and derived thresholds are functions
    // of these (spec timing side effects are applied by the caller, but
    // only as a function of mechanism + nRh, both included).
    StateWriter w;
    w.u64(config_.numCores);
    w.u64(config_.spec.org.channels);
    w.u64(static_cast<std::uint64_t>(config_.interleave));
    w.u64(config_.spec.org.ranks);
    w.u64(config_.spec.org.bankGroups);
    w.u64(config_.spec.org.banksPerGroup);
    w.u64(config_.spec.org.rowsPerBank);
    const DramTimingNs &t = config_.spec.timingNs;
    for (double ns : {t.tRCD, t.tRP, t.tRAS, t.tCL, t.tCWL, t.tBL,
                      t.tCCD, t.tRRD_L, t.tRRD_S, t.tFAW, t.tWR, t.tRTP,
                      t.tWTR, t.tRTW, t.tRFC, t.tREFI, t.tRFM, t.tREFW})
        w.d(ns);
    w.u64(config_.mc.readQueueSize);
    w.u64(config_.mc.writeQueueSize);
    w.u64(config_.mc.frfcfsCap);
    w.u64(config_.mc.wqHighWatermark);
    w.u64(config_.mc.wqLowWatermark);
    w.u64(config_.mc.commandSpacing);
    w.u64(config_.mc.victimRowsPerRefresh);
    w.d(config_.mc.migrationLatencyNs);
    w.u64(config_.mc.refsPerSweep);
    w.u64(config_.llc.sizeBytes);
    w.u64(config_.llc.ways);
    w.u64(config_.llc.hitLatency);
    w.u64(config_.mshrEntries);
    w.u64(config_.core.windowSize);
    w.u64(config_.core.width);
    w.u64(config_.core.llcHitLatency);
    w.u64(static_cast<std::uint64_t>(config_.mitigation));
    w.u64(config_.nRh);
    w.b(config_.breakHammer);
    w.u64(config_.bh.window);
    w.d(config_.bh.thThreat);
    w.d(config_.bh.thOutlier);
    w.u64(config_.bh.pOldSuspect);
    w.u64(config_.bh.pNewSuspect);
    w.u64(static_cast<std::uint64_t>(config_.bh.attribution));
    w.b(config_.bh.singleCounterSet);
    w.b(config_.bluntThrottle);
    w.b(config_.enableOracle);
    w.u64(config_.seed);
    for (const WorkloadSlot &slot : slots_) {
        w.u64(static_cast<std::uint64_t>(slot.kind));
        w.str(slot.appName);
        w.u64(static_cast<std::uint64_t>(slot.attacker.pattern));
        w.u64(slot.attacker.numAggressors);
        w.u64(slot.attacker.rowBase);
        w.u64(slot.attacker.rowSpacing);
        w.u64(slot.attacker.numBanks);
        w.u64(slot.attacker.bubbles);
        w.u64(slot.adaptive.observeEvery);
        w.u64(slot.adaptive.maxBubbles);
        w.u64(slot.adaptive.rotationStride);
        w.u64(slot.adaptive.calmStreak);
        w.u64(slot.adaptive.groupSize);
        w.u64(slot.adaptive.slotIndex);
        w.u64(slot.adaptive.handoffEpoch);
    }
    return fnv1a64(w.data().data(), w.data().size());
}

void
System::transfer(StateIo &io)
{
    io.tag("system");
    io.u64(now);
    io.u64(uncachedKeyCounter);
    latencyHist.transfer(io);
    io.bools(rejectCountsQuota);
    io.bools(rejectTouchesLlc);
    io.u64s(demandActsByThread_);
    if (io.loading())
        snapKey_ = kNoRejectKey;

    llc.transfer(io);
    mshr.transfer(io);

    // One section per channel: controller, then its mitigation and
    // oracle instances (presence flags match the constructed graph).
    io.tag("channels");
    io.count(mcs.size());
    for (std::size_t ch = 0; ch < mcs.size(); ++ch) {
        mcs[ch]->transfer(io);
        // A checkpoint is cut before cycle `now` runs, with every drain
        // step before it applied.
        if (io.loading())
            mcs[ch]->anchorReplayAt(now);
        io.present(mitigations[ch] != nullptr);
        if (mitigations[ch])
            mitigations[ch]->transfer(io);
        io.present(!oracles.empty());
        if (!oracles.empty())
            oracles[ch]->transfer(io);
    }

    io.present(bh != nullptr);
    if (bh)
        bh->transfer(io);

    io.count(cores.size());
    for (auto &core : cores)
        core->transfer(io);
}

std::string
System::snapshotBlob()
{
    StateWriter w;
    w.reserve(3 << 20);
    w.str(kSnapshotMagic);
    w.u32(kSnapshotVersion);
    w.str(checkpoint_.identity);
    w.u64(configFingerprint());
    StateIo io(w);
    transfer(io);
    std::string blob = w.take();
    std::uint64_t checksum = fnv1a64Chunked(blob.data(), blob.size());
    StateWriter tail;
    tail.u64(checksum);
    blob += tail.data();
    return blob;
}

bool
System::saveSnapshot(const std::string &path, std::string *error)
{
    return writeFileAtomic(path, snapshotBlob(), error);
}

bool
System::resumeFromSnapshot(const std::string &path, std::string *error)
{
    std::string blob;
    if (!readFile(path, &blob)) {
        if (error)
            *error = "no snapshot at " + path;
        return false;
    }
    if (!restoreSnapshotBlob(blob, error))
        return false;
    BH_LOG("resumed snapshot %s at cycle %llu", path.c_str(),
           static_cast<unsigned long long>(now));
    return true;
}

bool
System::restoreSnapshotBlob(const std::string &blob, std::string *error)
{
    if (blob.size() < 8) {
        if (error)
            *error = "snapshot too short";
        return false;
    }
    // Verify the checksum over the raw bytes before interpreting any of
    // them: a torn or bit-flipped file must read as "no snapshot".
    StateReader tail(blob.substr(blob.size() - 8));
    std::uint64_t stored = tail.u64();
    std::uint64_t actual = fnv1a64Chunked(blob.data(), blob.size() - 8);
    if (stored != actual) {
        if (error)
            *error = "snapshot checksum mismatch (torn write?)";
        return false;
    }

    // Borrow the payload instead of copying it: blobs are megabytes.
    StateReader r(std::string_view(blob.data(), blob.size() - 8),
                  StateReader::Borrow{});
    if (r.str() != kSnapshotMagic) {
        if (error)
            *error = "not a snapshot file";
        return false;
    }
    if (r.u32() != kSnapshotVersion) {
        if (error)
            *error = "snapshot format version mismatch";
        return false;
    }
    std::string identity = r.str();
    if (!checkpoint_.identity.empty() &&
        identity != checkpoint_.identity) {
        if (error)
            *error = "snapshot identity mismatch";
        return false;
    }
    if (r.u64() != configFingerprint()) {
        if (error)
            *error = "snapshot was taken under a different configuration";
        return false;
    }

    StateIo io(r);
    transfer(io);
    if (!r.ok() || !r.atEnd()) {
        if (error)
            *error = "snapshot payload is malformed";
        return false;
    }
    if (!sectionsAgree()) {
        if (error)
            *error = "snapshot sections disagree (MSHR entries, in-flight "
                     "reads, core loads)";
        return false;
    }
    resumePending_ = true;
    return true;
}

bool
System::sectionsAgree() const
{
    std::vector<Addr> reads;
    for (const auto &mc : mcs)
        mc->forEachInflightRead(
            [&reads](const Request &req) { reads.push_back(req.token); });
    std::sort(reads.begin(), reads.end());
    if (reads.size() != mshr.totalInflight() ||
        std::adjacent_find(reads.begin(), reads.end()) != reads.end())
        return false;
    for (Addr token : reads)
        if (!mshr.has(token))
            return false;

    std::vector<std::pair<ThreadId, std::uint64_t>> loads;
    bool waiting = true;
    mshr.forEachWaiter([&](const MshrWaiter &w) {
        waiting = waiting && w.thread < cores.size() &&
                  cores[w.thread]->awaitsFill(w.token);
        loads.emplace_back(w.thread, w.token);
    });
    std::size_t busy = 0;
    for (const auto &core : cores)
        busy += core->fillsAwaited();
    std::sort(loads.begin(), loads.end());
    return waiting && loads.size() == busy &&
           std::adjacent_find(loads.begin(), loads.end()) == loads.end();
}

} // namespace bh
