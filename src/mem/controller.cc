#include "mem/controller.h"

#include <algorithm>

#include "common/log.h"

namespace bh {

MemoryController::MemoryController(const DramSpec &spec,
                                   const AddressMap &mapper,
                                   const McConfig &config, unsigned channel)
    : spec_(spec), mapper(mapper), config_(config), channel_(channel),
      engine_(spec),
      readQ(spec.org.totalBanks()),
      writeQ(spec.org.totalBanks()),
      bank_(spec.org.totalBanks()),
      maintQ(spec.org.totalBanks()),
      nextRefAt(spec.org.ranks, spec.timing.tREFI),
      refSweepPos(spec.org.ranks, 0)
{
    syncAllBanks();
}

void
MemoryController::setMitigation(IMitigation *m)
{
    mitigation = m;
    if (m != nullptr)
        m->setHost(this);
}

void
MemoryController::enqueueRead(Request req, Cycle now)
{
    BH_ASSERT(canEnqueueRead(), "read queue overflow");
    req.da = mapper.decode(req.addr);
    BH_ASSERT(req.da.channel == channel_, "read routed to wrong channel");
    req.flatBank = mapper.flatBank(req.da);
    req.enqueueCycle = now;
    replayBefore(now); // The drain step reads the queue sizes.
    readQ.push(req);
    bank_[req.flatBank].scanValid[scanIndex(true)] = false;
    cmdBoundValid_ = false;
    wakeAt_ = now;
    wakeDirty_ = false;
}

void
MemoryController::enqueueWrite(Request req, Cycle now)
{
    BH_ASSERT(canEnqueueWrite(), "write queue overflow");
    req.da = mapper.decode(req.addr);
    BH_ASSERT(req.da.channel == channel_, "write routed to wrong channel");
    req.flatBank = mapper.flatBank(req.da);
    req.enqueueCycle = now;
    replayBefore(now); // The drain step reads the queue sizes.
    writeQ.push(req);
    bank_[req.flatBank].scanValid[scanIndex(false)] = false;
    cmdBoundValid_ = false;
    wakeAt_ = now;
    wakeDirty_ = false;
}

// --- Per-bank records ---------------------------------------------------

const MemoryController::BankScan &
MemoryController::rescan(bool is_read, unsigned fb) const
{
    BankRecord &rec = bank_[fb];
    BankScan &scan = rec.scan[scanIndex(is_read)];
    scan = BankScan{};
    rec.scanValid[scanIndex(is_read)] = true;
    const std::deque<QueuedRequest> &fifo =
        (is_read ? readQ : writeQ).bank(fb);
    if (fifo.empty())
        return scan;
    if (!rec.open) {
        // No open row: every entry is a conflict, the oldest leads.
        scan.confPos = 0;
        scan.confSeq = fifo.front().seq;
        return scan;
    }
    std::uint32_t i = 0;
    for (const QueuedRequest &qr : fifo) {
        if (qr.req.da.row == rec.openRow) {
            if (scan.hitPos == kNoPos) {
                scan.hitPos = i;
                scan.hitSeq = qr.seq;
            }
        } else if (scan.confPos == kNoPos) {
            scan.confPos = i;
            scan.confSeq = qr.seq;
        }
        if (scan.hitPos != kNoPos && scan.confPos != kNoPos)
            break;
        ++i;
    }
    return scan;
}

void
MemoryController::syncBank(unsigned fb)
{
    BankRecord &rec = bank_[fb];
    const BankState &b = engine_.bank(fb);
    rec.rank = engine_.rankOf(fb);
    rec.group = engine_.bankGroupOf(fb);
    if (rec.open != b.open || rec.openRow != b.openRow)
        rec.invalidateScans();
    rec.open = b.open;
    rec.openRow = b.openRow;
    rec.blockedUntil = b.blockedUntil;
    // Every command waits out both blackouts: fold them in once here.
    Cycle gate =
        std::max(b.blockedUntil, engine_.rank(rec.rank).blockedUntil);
    rec.actAt = std::max(gate, b.nextAct);
    rec.preAt = std::max(gate, b.nextPre);
    rec.colAt = std::max(gate, b.nextRdWr);
}

void
MemoryController::syncRank(unsigned rank)
{
    unsigned base = rank * spec_.org.banksPerRank();
    for (unsigned i = 0; i < spec_.org.banksPerRank(); ++i)
        syncBank(base + i);
}

void
MemoryController::syncAllBanks()
{
    for (unsigned fb = 0; fb < bank_.size(); ++fb)
        syncBank(fb);
}

// --- IMitigationHost -------------------------------------------------

void
MemoryController::queueMaintenance(unsigned fb, const MaintOp &op)
{
    maintQ[fb].push_back(op);
    ++maintOpsPending_;
    bank_[fb].maintPending = true;
    cmdBoundValid_ = false;
}

void
MemoryController::performVictimRefresh(unsigned flat_bank, unsigned row,
                                       double weight)
{
    MaintOp op;
    op.victimRows = config_.victimRowsPerRefresh;
    op.duration = spec_.timing.tRC * op.victimRows;
    op.protectedRow = static_cast<long>(row);
    queueMaintenance(flat_bank, op);
    ++preventiveActions_;
    if (observer != nullptr)
        observer->onPreventiveAction(weight, lastSeenCycle);
}

void
MemoryController::performMigration(unsigned flat_bank, unsigned row)
{
    MaintOp op;
    op.isMigration = true;
    op.duration = nsToCycles(config_.migrationLatencyNs);
    op.protectedRow = static_cast<long>(row);
    queueMaintenance(flat_bank, op);
    ++preventiveActions_;
    if (observer != nullptr)
        observer->onPreventiveAction(1.0, lastSeenCycle);
}

void
MemoryController::performRfm(unsigned flat_bank, double weight)
{
    MaintOp op;
    op.duration = spec_.timing.tRFM;
    queueMaintenance(flat_bank, op);
    engine_.energy().addRfm();
    ++preventiveActions_;
    if (observer != nullptr)
        observer->onPreventiveAction(weight, lastSeenCycle);
}

void
MemoryController::performAlertBackoff(unsigned rfms, double weight)
{
    // The back-off blocks the whole device while the DRAM performs its
    // internal preventive refreshes (JEDEC PRAC ABO protocol).
    Cycle duration = spec_.timing.tRFM * rfms;
    for (unsigned r = 0; r < spec_.org.ranks; ++r) {
        engine_.blockRank(r, lastSeenCycle, duration);
        for (unsigned i = 0; i < rfms; ++i)
            engine_.energy().addRfm();
    }
    syncAllBanks(); // blockRank closes every open row.
    cmdBoundValid_ = false;
    ++preventiveActions_;
    if (observer != nullptr)
        observer->onPreventiveAction(weight, lastSeenCycle);
}

void
MemoryController::performTrackerAccess(unsigned flat_bank, Cycle duration,
                                       double weight)
{
    MaintOp op;
    op.duration = duration;
    queueMaintenance(flat_bank, op);
    ++preventiveActions_;
    if (observer != nullptr)
        observer->onPreventiveAction(weight, lastSeenCycle);
}

void
MemoryController::notifyRowProtected(unsigned flat_bank, unsigned row)
{
    if (onRowProtected)
        onRowProtected(flat_bank, row);
}

void
MemoryController::creditDirectScore(ThreadId thread, double amount)
{
    if (observer != nullptr)
        observer->onDirectScore(thread, amount, lastSeenCycle);
}

// --- Tick pipeline ----------------------------------------------------

void
MemoryController::processCompletions(Cycle now)
{
    while (!completions.empty() && completions.top().readyAt <= now) {
        PendingCompletion done = completions.top();
        completions.pop();
        const Request req = pendingReads[done.index];
        freePendingSlots.push_back(done.index);
        if (onReadComplete)
            onReadComplete(req, done.readyAt);
    }
}

bool
MemoryController::serviceRefresh(Cycle now)
{
    for (unsigned rank = 0; rank < spec_.org.ranks; ++rank) {
        if (!rankHasRefreshPending(rank, now))
            continue;
        if (engine_.rankQuiesced(rank, now)) {
            engine_.issueRefresh(rank, now);
            syncRank(rank);
            useCommandSlot(now);
            nextRefAt[rank] += spec_.timing.tREFI;

            unsigned sweep_rows = std::max(
                1u, spec_.org.rowsPerBank / config_.refsPerSweep);
            unsigned start = refSweepPos[rank];
            refSweepPos[rank] =
                (start + sweep_rows) % spec_.org.rowsPerBank;
            if (onPeriodicRefresh)
                onPeriodicRefresh(rank, start, sweep_rows);
            if (mitigation != nullptr)
                mitigation->onPeriodicRefresh(rank, start, sweep_rows, now);
            return true;
        }
        // Quiesce: precharge open banks of this rank, oldest first.
        unsigned base = rank * spec_.org.banksPerRank();
        for (unsigned i = 0; i < spec_.org.banksPerRank(); ++i) {
            unsigned fb = base + i;
            if (bank_[fb].open && now >= bank_[fb].preAt) {
                issuePrecharge(fb, now);
                return true;
            }
        }
    }
    return false;
}

bool
MemoryController::serviceMaintenance(Cycle now)
{
    if (maintOpsPending_ == 0)
        return false;
    for (unsigned fb = 0; fb < bank_.size(); ++fb) {
        BankRecord &rec = bank_[fb];
        if (!rec.maintPending)
            continue;
        // Never start a blackout on a rank that is quiescing for REF;
        // otherwise a stream of preventive actions could starve refresh.
        if (rankHasRefreshPending(rec.rank, now))
            continue;
        if (rec.open) {
            if (now >= rec.preAt) {
                issuePrecharge(fb, now);
                return true;
            }
            continue;
        }
        if (now < rec.blockedUntil)
            continue;
        MaintOp op = maintQ[fb].front();
        maintQ[fb].pop_front();
        --maintOpsPending_;
        rec.maintPending = !maintQ[fb].empty();
        engine_.blockBank(fb, now, op.duration);
        syncBank(fb);
        if (op.isMigration)
            engine_.energy().addMigration();
        else if (op.victimRows > 0)
            engine_.energy().addVictimRefresh(op.victimRows);
        if (op.protectedRow >= 0)
            notifyRowProtected(fb, static_cast<unsigned>(op.protectedRow));
        useCommandSlot(now);
        return true;
    }
    return false;
}

void
MemoryController::issuePrecharge(unsigned fb, Cycle now)
{
    engine_.issuePre(fb, now);
    bank_[fb].hitStreak = 0;
    syncBank(fb);
    useCommandSlot(now);
}

void
MemoryController::issueDemandAct(const Request &req, Cycle now)
{
    engine_.issueAct(req.flatBank, req.da.row, now);
    bank_[req.flatBank].hitStreak = 0;
    syncBank(req.flatBank);
    ++demandActs_;
    if (onDemandAct)
        onDemandAct(req.flatBank, req.da.row, req.thread, now);
    if (observer != nullptr)
        observer->onDemandActivate(req.thread, req.flatBank, now);
    if (mitigation != nullptr)
        mitigation->commitAct(req.flatBank, req.da.row, req.thread, now);
}

void
MemoryController::issueColumn(BankedRequestQueue &queue, bool is_read,
                              unsigned fb, std::uint32_t pos,
                              bool counts_against_cap, Cycle now)
{
    const QueuedRequest &qr = queue.bank(fb)[pos];
    if (is_read) {
        Cycle ready = engine_.issueRead(fb, now);
        std::uint64_t slot;
        if (!freePendingSlots.empty()) {
            slot = freePendingSlots.back();
            freePendingSlots.pop_back();
            pendingReads[slot] = qr.req;
        } else {
            slot = pendingReads.size();
            pendingReads.push_back(qr.req);
        }
        completions.push(PendingCompletion{ready, slot});
        ++readsServed_;
    } else {
        engine_.issueWrite(fb, now);
        ++writesServed_;
    }
    BankRecord &rec = bank_[fb];
    if (counts_against_cap)
        ++rec.hitStreak;
    queue.erase(fb, pos);
    rec.scanValid[scanIndex(is_read)] = false;
    syncBank(fb);
    useCommandSlot(now);
}

bool
MemoryController::tryIssueForQueue(BankedRequestQueue &queue, bool is_read,
                                   Cycle now)
{
    // One walk collects two candidates; the second counts only when no
    // bank offers the first.
    //
    // First: the oldest row hit whose bank's hit streak is under the cap
    // (FR-FCFS+Cap: row hits first, but no more than `cap` younger hits
    // may bypass an older row-conflict request to the same bank). Within
    // a bank only the oldest hit can fire (younger hits share its bank
    // timing and inherit its conflict), so the globally oldest eligible
    // hit is the min-seq per-bank candidate.
    //
    // Second: the oldest request that needs an ACT or a PRE. Per bank the
    // first actionable entry is unique: a closed bank's candidate is its
    // oldest request whose row the mitigation has released (probes are
    // const, so a delayed older entry is simply skipped, exactly as the
    // linear reference scan does), an open bank's is its oldest row
    // conflict, precharging only when no same-row hit is pending or the
    // hit streak reached the reordering cap. Once some bank offers a hit,
    // the walk stops looking for this one.
    //
    // While the bound behind the current wake holds, nothing this walk
    // reads has changed since the wake walk recorded every bank's
    // candidates with their first legal cycles: pick from those instead.
    if (planComplete_[scanIndex(is_read)] && commandBoundHolds(now))
        return issueFromPlan(queue, is_read, now);
    const bool delays = mitigation != nullptr && mitigation->delaysActs();
    const bool bus_free = now >= engine_.columnBusAt(is_read);
    const bool refresh_due = anyRefreshPending(now);
    const unsigned cap = config_.frfcfsCap;

    std::uint64_t hit_seq = kNoSeq;
    unsigned hit_fb = 0;
    std::uint32_t hit_pos = 0;
    bool hit_conflict = false;

    std::uint64_t cmd_seq = kNoSeq;
    unsigned cmd_fb = 0;
    std::uint32_t cmd_pos = 0;
    bool cmd_is_pre = false;

    for (unsigned fb : queue.activeBanks()) {
        const BankRecord &rec = bank_[fb];
        if (rec.maintPending ||
            (refresh_due && rankHasRefreshPending(rec.rank, now)))
            continue;

        if (!rec.open) {
            if (hit_seq != kNoSeq || now < rec.actAt ||
                now < engine_.rankActAt(rec.rank, rec.group))
                continue;
            std::uint32_t pos = 0;
            std::uint64_t seq = scanOf(is_read, fb).confSeq; // The oldest.
            if (delays) {
                const std::deque<QueuedRequest> &fifo = queue.bank(fb);
                pos = kNoPos;
                std::uint32_t i = 0;
                for (const QueuedRequest &qr : fifo) {
                    if (mitigation->probeActReleaseCycle(
                            fb, qr.req.da.row, qr.req.thread, now) <= now) {
                        pos = i;
                        seq = qr.seq;
                        break;
                    }
                    ++i;
                }
                if (pos == kNoPos)
                    continue; // Every queued row is delayed right now.
            }
            if (seq < cmd_seq) {
                cmd_seq = seq;
                cmd_fb = fb;
                cmd_pos = pos;
                cmd_is_pre = false;
            }
            continue;
        }

        const BankScan &scan = scanOf(is_read, fb);
        const bool hit_pending = scan.hitPos != kNoPos;
        // Entries ahead of the oldest hit are all row conflicts.
        const bool older_conflict = hit_pending && scan.hitPos > 0;
        if (hit_pending && bus_free && now >= rec.colAt &&
            !(older_conflict && rec.hitStreak >= cap)) {
            if (scan.hitSeq < hit_seq) {
                hit_seq = scan.hitSeq;
                hit_fb = fb;
                hit_pos = scan.hitPos;
                hit_conflict = older_conflict;
            }
            continue;
        }
        if (hit_seq != kNoSeq || scan.confPos == kNoPos)
            continue; // Only same-row entries: column not legal yet.
        if (hit_pending && rec.hitStreak < cap)
            continue; // Keep the row open for the pending hit.
        if (now < rec.preAt)
            continue;
        if (scan.confSeq < cmd_seq) {
            cmd_seq = scan.confSeq;
            cmd_fb = fb;
            cmd_pos = scan.confPos;
            cmd_is_pre = true;
        }
    }

    if (hit_seq != kNoSeq) {
        issueColumn(queue, is_read, hit_fb, hit_pos, hit_conflict, now);
        return true;
    }
    if (cmd_seq == kNoSeq)
        return false;
    if (cmd_is_pre) {
        issuePrecharge(cmd_fb, now);
        return true;
    }
    const Request &req = queue.bank(cmd_fb)[cmd_pos].req;
    // Guard the delaysActs() contract: a mechanism that overrides
    // probeActReleaseCycle() without also overriding delaysActs() would
    // silently lose its ACT delays on this fast path. Probes are const,
    // so re-asking here is always safe.
    BH_ASSERT(mitigation == nullptr ||
                  mitigation->probeActReleaseCycle(cmd_fb, req.da.row,
                                                   req.thread, now) <= now,
              "mitigation delays ACTs but delaysActs() returns false");
    issueDemandAct(req, now);
    useCommandSlot(now);
    return true;
}

bool
MemoryController::stepDrainFlag(bool draining) const
{
    if (draining)
        return writeQ.size() > config_.wqLowWatermark;
    return writeQ.size() >= config_.wqHighWatermark ||
           (readQ.empty() && !writeQ.empty());
}

void
MemoryController::replayDrainSteps(Cycle steps)
{
    bool f1 = stepDrainFlag(drainingWrites);
    if (f1 == drainingWrites)
        return; // Fixed point.
    if (stepDrainFlag(f1) == f1) {
        drainingWrites = f1; // Converges after one step.
        return;
    }
    // Period-2 oscillation: parity of the step count decides.
    if (steps % 2 != 0)
        drainingWrites = f1;
}

bool
MemoryController::serviceDemand(Cycle now)
{
    drainingWrites = stepDrainFlag(drainingWrites);

    if (drainingWrites && !writeQ.empty()) {
        if (tryIssueForQueue(writeQ, false, now))
            return true;
        // Keep reads flowing if writes are timing-blocked.
        return tryIssueForQueue(readQ, true, now);
    }
    if (tryIssueForQueue(readQ, true, now))
        return true;
    return !writeQ.empty() && tryIssueForQueue(writeQ, false, now);
}

void
MemoryController::tick(Cycle now)
{
    // The cycles since the last visit replay first; this tick is the
    // dense tick of `now` itself.
    replayBefore(now);
    replayFrom_ = std::max(replayFrom_, now + 1);
    lastSeenCycle = now;
    wakeDirty_ = true;
    // Roll time-based mitigation state (epoch boundaries) before any
    // scheduling decision — and before the command-slot gate, exactly as
    // a dense per-cycle loop would reach this point every cycle. The
    // skip-ahead loop ticks at every cycle nextEventCycle() names, and
    // that set includes nextTimedEventCycle(), so both loops roll at the
    // same cycle.
    if (mitigation != nullptr)
        mitigation->advanceTo(now);
    processCompletions(now);
    if (!commandSlotFree(now))
        return;
    if (commandBoundHolds(now) && cmdBound_ > now) {
        // Nothing has changed since the bound was taken, and it says no
        // command is legal yet: only the drain hysteresis steps, exactly
        // as the failing walks below would have left it.
        drainingWrites = stepDrainFlag(drainingWrites);
        return;
    }
    if (serviceRefresh(now))
        return;
    if (serviceMaintenance(now))
        return;
    serviceDemand(now);
}

// --- Snapshot serialization --------------------------------------------

namespace {

void
transferRequest(StateIo &io, Request &req)
{
    std::uint8_t write = req.type == Request::Type::kWrite ? 1 : 0;
    io.u8(write);
    req.type = write != 0 ? Request::Type::kWrite : Request::Type::kRead;
    io.u64(req.addr);
    io.u64(req.da.rank);
    io.u64(req.da.bankGroup);
    io.u64(req.da.bank);
    io.u64(req.da.row);
    io.u64(req.da.column);
    io.u64(req.flatBank);
    io.u64(req.thread);
    io.u64(req.enqueueCycle);
    io.u64(req.token);
    io.b(req.uncached);
}

} // namespace

void
BankedRequestQueue::transfer(StateIo &io)
{
    io.tag("bankq");
    io.count(banks_.size());
    for (std::deque<QueuedRequest> &fifo : banks_)
        io.list(fifo, [](StateIo &sub, QueuedRequest &qr) {
            transferRequest(sub, qr.req);
            sub.u64(qr.seq);
        });
    // The active-bank list order never steers scheduling (candidates
    // compare by seq), but restoring it verbatim keeps a resumed run on
    // the uninterrupted run's exact trajectory.
    io.list(active_, [](StateIo &sub, unsigned &fb) { sub.u64(fb); });
    io.u64(nextSeq_);
    if (!io.loading() || !io.ok())
        return;
    std::fill(activePos_.begin(), activePos_.end(), -1);
    for (std::size_t i = 0; i < active_.size() && io.ok(); ++i) {
        unsigned fb = active_[i];
        io.require(fb < banks_.size() && !banks_[fb].empty());
        if (io.ok())
            activePos_[fb] = static_cast<int>(i);
    }
    size_ = 0;
    for (std::size_t fb = 0; fb < banks_.size() && io.ok(); ++fb) {
        // A non-empty bank must be on the active list.
        io.require(banks_[fb].empty() || activePos_[fb] >= 0);
        size_ += banks_[fb].size();
    }
}

void
MemoryController::transfer(StateIo &io)
{
    io.tag("controller");
    engine_.transfer(io);
    readQ.transfer(io);
    writeQ.transfer(io);
    io.b(drainingWrites);

    io.count(maintQ.size());
    for (std::deque<MaintOp> &q : maintQ)
        io.list(q, [](StateIo &sub, MaintOp &op) {
            sub.u64(op.duration);
            sub.u64(op.victimRows);
            sub.b(op.isMigration);
            sub.u64(op.protectedRow);
        });

    // Completions: save drains a copy in ready order. Completion times
    // are strictly increasing with issue order (one column command per
    // command slot, fixed read latency), so rebuilding by pushes in this
    // order reproduces the pop sequence exactly.
    io.list(pendingReads, transferRequest);
    io.list(freePendingSlots,
            [](StateIo &sub, std::uint64_t &slot) { sub.u64(slot); });
    std::vector<PendingCompletion> ready;
    if (!io.loading())
        for (auto pq = completions; !pq.empty(); pq.pop())
            ready.push_back(pq.top());
    io.list(ready, [](StateIo &sub, PendingCompletion &c) {
        sub.u64(c.readyAt);
        sub.u64(c.index);
    });

    io.u64s(nextRefAt);
    io.u64s(refSweepPos);
    std::vector<unsigned> streak;
    for (const BankRecord &rec : bank_)
        streak.push_back(rec.hitStreak);
    io.u64s(streak);
    io.u64(nextCommandAt);
    io.u64(lastSeenCycle);
    io.u64(preventiveActions_);
    io.u64(demandActs_);
    io.u64(readsServed_);
    io.u64(writesServed_);
    if (!io.loading() || !io.ok())
        return;

    // Each pending-read slot is free or awaited by exactly one
    // completion: issueColumn() fills a free slot unchecked, so an
    // aliased or out-of-range one would corrupt an in-flight read.
    std::vector<bool> held(pendingReads.size(), false);
    auto claim = [&](std::uint64_t slot) {
        io.require(slot < held.size() && !held[slot]);
        if (io.ok())
            held[slot] = true;
    };
    for (std::uint64_t slot : freePendingSlots)
        claim(slot);
    completions = decltype(completions)();
    for (const PendingCompletion &c : ready) {
        claim(c.index);
        completions.push(c);
    }
    io.require(freePendingSlots.size() + ready.size() == held.size());
    maintOpsPending_ = 0;
    for (const std::deque<MaintOp> &q : maintQ)
        maintOpsPending_ += q.size();
    // The replay anchor is left to the caller, which knows the cycle the
    // saved drain flag was caught up to (see anchorReplayAt()). The
    // per-bank records and the wake memo are pure accelerations:
    // apart from the hit streak, rebuild them from the restored engine,
    // maintenance queues and FIFOs rather than serializing them.
    for (unsigned fb = 0; fb < bank_.size(); ++fb) {
        BankRecord &rec = bank_[fb];
        rec.hitStreak = streak[fb];
        rec.maintPending = !maintQ[fb].empty();
        rec.invalidateScans();
        syncBank(fb);
    }
    cmdBoundValid_ = false;
    planComplete_[0] = planComplete_[1] = false;
    wakeDirty_ = true;
}

// --- Skip-ahead support ------------------------------------------------

Cycle
MemoryController::demandEventCycle(const BankedRequestQueue &queue,
                                   bool is_read, Cycle now, Cycle floor,
                                   bool plan) const
{
    // nextEventCycle() clamps the command bound to the command slot and
    // to now+1, so once the running minimum reaches @p floor (the larger
    // of the two) no later bank can change its answer. With @p plan, the
    // walk also records each bank's candidates for tryIssueForQueue();
    // they are complete only if the walk visited every bank and no ACT
    // delays (which move with time alone) are in play.
    const bool delays = mitigation != nullptr && mitigation->delaysActs();
    const Cycle bus_at = engine_.columnBusAt(is_read);
    const bool refresh_due = anyRefreshPending(now);
    const unsigned cap = config_.frfcfsCap;
    Cycle at = kNeverCycle;
    std::vector<PlanEntry> *entries = nullptr;
    if (plan) {
        entries = &plan_[scanIndex(is_read)];
        entries->clear();
    }
    for (unsigned fb : queue.activeBanks()) {
        const BankRecord &rec = bank_[fb];
        // Banks gated by maintenance or refresh wake through those paths'
        // own events (computed in nextEventCycle), not through demand.
        if (rec.maintPending ||
            (refresh_due && rankHasRefreshPending(rec.rank, now)))
            continue;
        if (!rec.open) {
            Cycle issue_at = std::max(
                {now, rec.actAt, engine_.rankActAt(rec.rank, rec.group)});
            if (entries != nullptr) {
                PlanEntry e;
                e.fb = fb;
                e.rowAt = issue_at;
                e.rowPos = 0;
                e.rowSeq = scanOf(is_read, fb).confSeq;
                entries->push_back(e);
            }
            if (delays && issue_at < at) {
                // Mitigation row delays (BlockHammer) postpone the ACT
                // beyond the bank timing: the bank's next chance is the
                // earliest release among its queued rows. Probes are
                // const and already account for the epoch boundary
                // clearing every delay, so this stays a valid lower
                // bound; delays added by *future* commits only move the
                // true event later, making an early wake a harmless
                // no-op tick. (A bank whose timing alone is no earlier
                // than the running minimum cannot lower it, so it is not
                // probed.)
                Cycle release = kNeverCycle;
                for (const QueuedRequest &qr : queue.bank(fb)) {
                    Cycle r = mitigation->probeActReleaseCycle(
                        fb, qr.req.da.row, qr.req.thread, now);
                    if (r <= now) {
                        release = now;
                        break;
                    }
                    release = std::min(release, r);
                }
                issue_at = std::max(issue_at, release);
            }
            at = std::min(at, issue_at);
        } else {
            const BankScan &scan = scanOf(is_read, fb);
            const bool capped = rec.hitStreak >= cap;
            PlanEntry e;
            e.fb = fb;
            if (scan.hitPos != kNoPos && !(scan.hitPos > 0 && capped)) {
                e.hitAt = std::max({now, rec.colAt, bus_at});
                e.hitSeq = scan.hitSeq;
                e.hitPos = scan.hitPos;
                e.hitConflict = scan.hitPos > 0;
            }
            if (scan.confPos != kNoPos && (scan.hitPos == kNoPos || capped)) {
                e.rowAt = std::max(now, rec.preAt);
                e.rowSeq = scan.confSeq;
                e.rowPos = scan.confPos;
                e.rowIsPre = true;
            }
            at = std::min({at, e.hitAt, e.rowAt});
            if (entries != nullptr)
                entries->push_back(e);
        }
        if (at <= floor) {
            if (plan)
                planComplete_[scanIndex(is_read)] = false;
            return at;
        }
    }
    if (plan)
        planComplete_[scanIndex(is_read)] = !delays;
    return at;
}

bool
MemoryController::issueFromPlan(BankedRequestQueue &queue, bool is_read,
                                Cycle now)
{
    const PlanEntry *hit = nullptr;
    const PlanEntry *row = nullptr;
    for (const PlanEntry &e : plan_[scanIndex(is_read)]) {
        if (e.hitAt <= now && (hit == nullptr || e.hitSeq < hit->hitSeq))
            hit = &e;
        if (e.rowAt <= now && (row == nullptr || e.rowSeq < row->rowSeq))
            row = &e;
    }
    if (hit != nullptr) {
        issueColumn(queue, is_read, hit->fb, hit->hitPos, hit->hitConflict,
                    now);
        return true;
    }
    if (row == nullptr)
        return false;
    if (row->rowIsPre) {
        issuePrecharge(row->fb, now);
        return true;
    }
    const Request &req = queue.bank(row->fb)[row->rowPos].req;
    // The delaysActs() contract guard of tryIssueForQueue().
    BH_ASSERT(mitigation == nullptr ||
                  mitigation->probeActReleaseCycle(row->fb, req.da.row,
                                                   req.thread, now) <= now,
              "mitigation delays ACTs but delaysActs() returns false");
    issueDemandAct(req, now);
    useCommandSlot(now);
    return true;
}

Cycle
MemoryController::commandBound(Cycle now, bool plan) const
{
    if (plan)
        planComplete_[0] = planComplete_[1] = false;
    Cycle cmd_at = kNeverCycle;

    // Refresh: upcoming deadlines, or quiesce progress of a pending REF.
    for (unsigned rank = 0; rank < spec_.org.ranks; ++rank) {
        if (!rankHasRefreshPending(rank, now)) {
            cmd_at = std::min(cmd_at, nextRefAt[rank]);
            continue;
        }
        Cycle quiesced = engine_.quiescedAt(rank, now);
        if (quiesced != kNeverCycle) {
            // All banks closed: REF issues once every blackout expires.
            cmd_at = std::min(cmd_at, quiesced);
            continue;
        }
        // Some bank still open: the next quiesce step is its PRE.
        unsigned base = rank * spec_.org.banksPerRank();
        for (unsigned i = 0; i < spec_.org.banksPerRank(); ++i) {
            const BankRecord &rec = bank_[base + i];
            if (rec.open)
                cmd_at = std::min(cmd_at, std::max(now, rec.preAt));
        }
    }

    // Maintenance: pending ops start when their bank is closed and clear.
    if (maintOpsPending_ > 0) {
        for (const BankRecord &rec : bank_) {
            if (!rec.maintPending)
                continue;
            if (rankHasRefreshPending(rec.rank, now))
                continue; // Wakes through the refresh path above.
            cmd_at = std::min(cmd_at,
                              rec.open ? std::max(now, rec.preAt)
                                       : std::max(now + 1, rec.blockedUntil));
        }
    }

    // Demand scheduling on both queues (drain-mode hysteresis only picks
    // the order; considering both directions is a safe lower bound). A
    // bound at or below `floor` already pins wakeFrom()'s result.
    const Cycle floor = std::max(now + 1, nextCommandAt);
    if (cmd_at > floor)
        cmd_at = std::min(cmd_at,
                          demandEventCycle(readQ, true, now, floor, plan));
    if (cmd_at > floor)
        cmd_at = std::min(cmd_at,
                          demandEventCycle(writeQ, false, now, floor, plan));
    return cmd_at;
}

Cycle
MemoryController::wakeFrom(Cycle now, Cycle cmd_at) const
{
    // Read completions fire before the command-slot gate in tick().
    Cycle completion_at =
        completions.empty() ? kNeverCycle : completions.top().readyAt;

    // Every command waits for the command-bus slot; completions do not.
    if (cmd_at != kNeverCycle)
        cmd_at = std::max(cmd_at, nextCommandAt);

    Cycle at = std::min(completion_at, cmd_at);

    // Time-based mitigation state (BlockHammer's epoch boundary) rolls in
    // tick() before the command-slot gate, so it is not subject to
    // nextCommandAt: the skip-ahead loop must tick at the boundary itself
    // or quota resets would land late.
    if (mitigation != nullptr)
        at = std::min(at, mitigation->nextTimedEventCycle(now));

    return std::max(at, now + 1);
}

Cycle
MemoryController::nextEventCycle(Cycle now) const
{
    return wakeFrom(now, commandBound(now, false));
}

bool
MemoryController::commandBoundHolds(Cycle now) const
{
    // Each term of commandBound() is a refresh deadline or max(now, X)
    // (max(now + 1, X) for a maintenance start) over state that only
    // commands, enqueues, host actions and restores change, and each of
    // those clears cmdBoundValid_. A bound taken at an earlier cycle
    // therefore gives wakeFrom() the same answer, and when it exceeds
    // @p now no command is legal at @p now. Two things move with time
    // alone and void it: a refresh deadline passing (it regates a rank's
    // banks) and a mechanism's ACT delays.
    if (!cmdBoundValid_ || (mitigation != nullptr && mitigation->delaysActs()))
        return false;
    for (Cycle ref_at : nextRefAt)
        if (cmdBoundAt_ < ref_at && ref_at <= now)
            return false;
    return true;
}

Cycle
MemoryController::recomputeWake() const
{
    // Anchored at the last tick, not at the (possibly later) cycle of the
    // recompute: the bound covers every cycle since the state was last
    // mutated, and its value does not depend on when it is recomputed.
    const Cycle now = lastSeenCycle;
    if (!commandBoundHolds(now)) {
        cmdBound_ = commandBound(now, true);
        cmdBoundAt_ = now;
        cmdBoundValid_ = true;
    }
    wakeAt_ = wakeFrom(now, cmdBound_);
    wakeDirty_ = false;
    return wakeAt_;
}

} // namespace bh
