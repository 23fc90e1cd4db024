#include "mem/controller.h"

#include <algorithm>

#include "common/log.h"

namespace bh {

namespace {

/** Sentinel sequence number meaning "no candidate". */
constexpr std::uint64_t kNoSeq = static_cast<std::uint64_t>(-1);

} // namespace

MemoryController::MemoryController(const DramSpec &spec,
                                   const AddressMap &mapper,
                                   const McConfig &config, unsigned channel)
    : spec_(spec), mapper(mapper), config_(config), channel_(channel),
      engine_(spec),
      readQ(spec.org.totalBanks()),
      writeQ(spec.org.totalBanks()),
      readScan(spec.org.totalBanks()),
      writeScan(spec.org.totalBanks()),
      maintQ(spec.org.totalBanks()),
      nextRefAt(spec.org.ranks, spec.timing.tREFI),
      refSweepPos(spec.org.ranks, 0),
      hitStreak(spec.org.totalBanks(), 0)
{}

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
    readQ.push(req);
    invalidateScan(true, req.flatBank);
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
    writeQ.push(req);
    invalidateScan(false, req.flatBank);
    wakeAt_ = now;
    wakeDirty_ = false;
}

// --- Scan-cache maintenance -------------------------------------------

const MemoryController::BankScan &
MemoryController::scanOf(bool is_read, unsigned fb) const
{
    BankScan &scan = (is_read ? readScan : writeScan)[fb];
    if (scan.valid)
        return scan;
    scan.hitPos = kNoPos;
    scan.confPos = kNoPos;
    const BankState &bank = engine_.bank(fb);
    const std::deque<QueuedRequest> &fifo =
        (is_read ? readQ : writeQ).bank(fb);
    if (!bank.open) {
        // No open row: every entry is a conflict, the oldest leads.
        if (!fifo.empty())
            scan.confPos = 0;
        scan.valid = true;
        return scan;
    }
    for (std::size_t i = 0; i < fifo.size(); ++i) {
        if (fifo[i].req.da.row == bank.openRow) {
            if (scan.hitPos == kNoPos)
                scan.hitPos = i;
        } else if (scan.confPos == kNoPos) {
            scan.confPos = i;
        }
        if (scan.hitPos != kNoPos && scan.confPos != kNoPos)
            break;
    }
    scan.valid = true;
    return scan;
}

void
MemoryController::invalidateScan(bool is_read, unsigned fb)
{
    (is_read ? readScan : writeScan)[fb].valid = false;
}

void
MemoryController::invalidateRowState(unsigned fb)
{
    readScan[fb].valid = false;
    writeScan[fb].valid = false;
}

void
MemoryController::invalidateRank(unsigned rank)
{
    unsigned base = rank * spec_.org.banksPerRank();
    for (unsigned i = 0; i < spec_.org.banksPerRank(); ++i)
        invalidateRowState(base + i);
}

void
MemoryController::invalidateAllRowState()
{
    for (unsigned r = 0; r < spec_.org.ranks; ++r)
        invalidateRank(r);
}

// --- IMitigationHost -------------------------------------------------

void
MemoryController::performVictimRefresh(unsigned flat_bank, unsigned row,
                                       double weight)
{
    MaintOp op;
    op.victimRows = config_.victimRowsPerRefresh;
    op.duration = spec_.timing.tRC * op.victimRows;
    op.protectedRow = static_cast<long>(row);
    maintQ[flat_bank].push_back(op);
    ++maintOpsPending_;
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
    maintQ[flat_bank].push_back(op);
    ++maintOpsPending_;
    ++preventiveActions_;
    if (observer != nullptr)
        observer->onPreventiveAction(1.0, lastSeenCycle);
}

void
MemoryController::performRfm(unsigned flat_bank, double weight)
{
    MaintOp op;
    op.duration = spec_.timing.tRFM;
    maintQ[flat_bank].push_back(op);
    ++maintOpsPending_;
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
    invalidateAllRowState(); // blockRank closes every open row.
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
    maintQ[flat_bank].push_back(op);
    ++maintOpsPending_;
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
MemoryController::rankHasRefreshPending(unsigned rank, Cycle now) const
{
    return now >= nextRefAt[rank];
}

bool
MemoryController::serviceRefresh(Cycle now)
{
    for (unsigned rank = 0; rank < spec_.org.ranks; ++rank) {
        if (!rankHasRefreshPending(rank, now))
            continue;
        if (engine_.rankQuiesced(rank, now)) {
            engine_.issueRefresh(rank, now);
            invalidateRank(rank);
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
            if (engine_.bank(fb).open &&
                engine_.canIssue(DramCommand::kPre, fb, now)) {
                engine_.issuePre(fb, now);
                hitStreak[fb] = 0;
                invalidateRowState(fb);
                useCommandSlot(now);
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
    for (unsigned fb = 0; fb < maintQ.size(); ++fb) {
        if (maintQ[fb].empty())
            continue;
        // Never start a blackout on a rank that is quiescing for REF;
        // otherwise a stream of preventive actions could starve refresh.
        if (rankHasRefreshPending(engine_.rankOf(fb), now))
            continue;
        const BankState &bank = engine_.bank(fb);
        if (bank.open) {
            if (engine_.canIssue(DramCommand::kPre, fb, now)) {
                engine_.issuePre(fb, now);
                hitStreak[fb] = 0;
                invalidateRowState(fb);
                useCommandSlot(now);
                return true;
            }
            continue;
        }
        if (now < bank.blockedUntil)
            continue;
        MaintOp op = maintQ[fb].front();
        maintQ[fb].pop_front();
        --maintOpsPending_;
        engine_.blockBank(fb, now, op.duration);
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
MemoryController::issueDemandAct(const Request &req, Cycle now)
{
    engine_.issueAct(req.flatBank, req.da.row, now);
    invalidateRowState(req.flatBank);
    hitStreak[req.flatBank] = 0;
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
                              unsigned fb, std::size_t pos,
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
    if (counts_against_cap)
        ++hitStreak[fb];
    queue.erase(fb, pos);
    invalidateScan(is_read, fb);
    useCommandSlot(now);
}

bool
MemoryController::tryIssueForQueue(BankedRequestQueue &queue, bool is_read,
                                   Cycle now)
{
    DramCommand col_cmd = is_read ? DramCommand::kRead : DramCommand::kWrite;

    // Pass 1: oldest row-hit request whose bank's hit streak is under the
    // cap (FR-FCFS+Cap: row hits first, but no more than `cap` younger
    // hits may bypass an older row-conflict request to the same bank).
    // Within a bank only the oldest hit can fire (younger hits share its
    // bank timing and inherit its conflict), so the globally oldest
    // eligible hit is the min-seq per-bank candidate.
    {
        std::uint64_t best_seq = kNoSeq;
        unsigned best_fb = 0;
        std::size_t best_pos = 0;
        bool best_conflict = false;
        for (unsigned fb : queue.activeBanks()) {
            const BankState &bank = engine_.bank(fb);
            if (!bank.open)
                continue;
            if (!maintQ[fb].empty())
                continue;
            if (rankHasRefreshPending(engine_.rankOf(fb), now))
                continue;
            const BankScan &scan = scanOf(is_read, fb);
            if (scan.hitPos == kNoPos)
                continue;
            if (!engine_.canIssue(col_cmd, fb, now))
                continue;
            // Entries ahead of the oldest hit are all row conflicts.
            bool older_conflict = scan.hitPos > 0;
            if (older_conflict && hitStreak[fb] >= config_.frfcfsCap)
                continue;
            std::uint64_t seq = queue.bank(fb)[scan.hitPos].seq;
            if (seq < best_seq) {
                best_seq = seq;
                best_fb = fb;
                best_pos = scan.hitPos;
                best_conflict = older_conflict;
            }
        }
        if (best_seq != kNoSeq) {
            issueColumn(queue, is_read, best_fb, best_pos, best_conflict,
                        now);
            return true;
        }
    }

    // Pass 2: oldest request that needs an ACT or a PRE. Per bank the
    // first actionable entry is unique: a closed bank's candidate is its
    // oldest request whose row the mitigation has released (probes are
    // const, so a delayed older entry is simply skipped — exactly the
    // linear reference scan's behaviour), an open bank's is its oldest
    // row conflict, precharging only when no same-row hit is pending or
    // the hit streak hit the reordering cap.
    bool delays = mitigation != nullptr && mitigation->delaysActs();

    std::uint64_t best_seq = kNoSeq;
    unsigned best_fb = 0;
    std::size_t best_pos = 0;
    bool best_is_pre = false;

    for (unsigned fb : queue.activeBanks()) {
        if (!maintQ[fb].empty())
            continue;
        if (rankHasRefreshPending(engine_.rankOf(fb), now))
            continue;
        const BankState &bank = engine_.bank(fb);
        const std::deque<QueuedRequest> &fifo = queue.bank(fb);

        if (!bank.open) {
            if (!engine_.canIssue(DramCommand::kAct, fb, now))
                continue;
            std::size_t pos = 0;
            if (delays) {
                pos = kNoPos;
                for (std::size_t i = 0; i < fifo.size(); ++i) {
                    const Request &r = fifo[i].req;
                    if (mitigation->probeActReleaseCycle(
                            fb, r.da.row, r.thread, now) <= now) {
                        pos = i;
                        break;
                    }
                }
                if (pos == kNoPos)
                    continue; // Every queued row is delayed right now.
            }
            if (fifo[pos].seq < best_seq) {
                best_seq = fifo[pos].seq;
                best_fb = fb;
                best_pos = pos;
                best_is_pre = false;
            }
            continue;
        }

        const BankScan &scan = scanOf(is_read, fb);
        if (scan.confPos == kNoPos)
            continue; // Only same-row entries: column not legal yet.
        bool hit_pending = scan.hitPos != kNoPos;
        if (hit_pending && hitStreak[fb] < config_.frfcfsCap)
            continue; // Keep the row open for the pending hit.
        if (!engine_.canIssue(DramCommand::kPre, fb, now))
            continue;
        std::uint64_t seq = fifo[scan.confPos].seq;
        if (seq < best_seq) {
            best_seq = seq;
            best_fb = fb;
            best_pos = scan.confPos;
            best_is_pre = true;
        }
    }

    if (best_seq == kNoSeq)
        return false;
    if (!best_is_pre) {
        const Request &req = queue.bank(best_fb)[best_pos].req;
        // Guard the delaysActs() contract: a mechanism that overrides
        // probeActReleaseCycle() without also overriding delaysActs()
        // would silently lose its ACT delays on this fast path. Probes
        // are const, so re-asking here is always safe.
        BH_ASSERT(mitigation == nullptr ||
                      mitigation->probeActReleaseCycle(best_fb, req.da.row,
                                                       req.thread, now) <=
                          now,
                  "mitigation delays ACTs but delaysActs() returns false");
        issueDemandAct(req, now);
        useCommandSlot(now);
        return true;
    }
    engine_.issuePre(best_fb, now);
    hitStreak[best_fb] = 0;
    invalidateRowState(best_fb);
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
MemoryController::accountSkippedCycles(Cycle first, Cycle last)
{
    // Dense ticks in [first, last] did nothing (the skip loop proved it),
    // but each one with a free command slot stepped the drain hysteresis.
    Cycle start = std::max(first, nextCommandAt);
    if (start > last)
        return;
    Cycle steps = last - start + 1;
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
    if (serviceRefresh(now))
        return;
    if (serviceMaintenance(now))
        return;
    serviceDemand(now);
}

// --- Snapshot serialization --------------------------------------------

namespace {

void
saveRequest(StateWriter &w, const Request &req)
{
    w.u8(req.type == Request::Type::kWrite ? 1 : 0);
    w.u64(req.addr);
    w.u64(req.da.rank);
    w.u64(req.da.bankGroup);
    w.u64(req.da.bank);
    w.u64(req.da.row);
    w.u64(req.da.column);
    w.u64(req.flatBank);
    w.u64(req.thread);
    w.u64(req.enqueueCycle);
    w.u64(req.token);
    w.b(req.uncached);
}

void
loadRequest(StateReader &r, Request *req)
{
    req->type = r.u8() ? Request::Type::kWrite : Request::Type::kRead;
    req->addr = r.u64();
    req->da.rank = static_cast<unsigned>(r.u64());
    req->da.bankGroup = static_cast<unsigned>(r.u64());
    req->da.bank = static_cast<unsigned>(r.u64());
    req->da.row = static_cast<unsigned>(r.u64());
    req->da.column = static_cast<unsigned>(r.u64());
    req->flatBank = static_cast<unsigned>(r.u64());
    req->thread = static_cast<ThreadId>(r.u64());
    req->enqueueCycle = r.u64();
    req->token = r.u64();
    req->uncached = r.b();
}

} // namespace

void
BankedRequestQueue::saveState(
    StateWriter &w, void (*save_req)(StateWriter &, const Request &)) const
{
    w.tag("bankq");
    w.u64(banks_.size());
    for (const std::deque<QueuedRequest> &fifo : banks_) {
        w.u64(fifo.size());
        for (const QueuedRequest &qr : fifo) {
            save_req(w, qr.req);
            w.u64(qr.seq);
        }
    }
    // The active-bank list order never steers scheduling (candidates
    // compare by seq), but restoring it verbatim keeps a resumed run on
    // the uninterrupted run's exact trajectory.
    saveUnsignedVector(w, active_);
    w.u64(nextSeq_);
}

void
BankedRequestQueue::loadState(StateReader &r,
                              void (*load_req)(StateReader &, Request *))
{
    r.tag("bankq");
    if (r.u64() != banks_.size()) {
        r.fail();
        return;
    }
    size_ = 0;
    for (std::deque<QueuedRequest> &fifo : banks_) {
        fifo.clear();
        std::uint64_t n = r.u64();
        if (!r.ok() || n > r.remaining()) {
            r.fail();
            return;
        }
        for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
            QueuedRequest qr;
            load_req(r, &qr.req);
            qr.seq = r.u64();
            fifo.push_back(qr);
        }
        size_ += fifo.size();
    }
    loadUnsignedVector(r, &active_);
    nextSeq_ = r.u64();
    if (!r.ok())
        return;
    std::fill(activePos_.begin(), activePos_.end(), -1);
    for (std::size_t i = 0; i < active_.size(); ++i) {
        unsigned fb = active_[i];
        if (fb >= banks_.size() || banks_[fb].empty()) {
            r.fail();
            return;
        }
        activePos_[fb] = static_cast<int>(i);
    }
    for (std::size_t fb = 0; fb < banks_.size(); ++fb)
        if (!banks_[fb].empty() && activePos_[fb] < 0) {
            r.fail(); // Non-empty bank absent from the active list.
            return;
        }
}

void
MemoryController::saveState(StateWriter &w) const
{
    w.tag("controller");
    engine_.saveState(w);
    readQ.saveState(w, &saveRequest);
    writeQ.saveState(w, &saveRequest);
    w.b(drainingWrites);

    w.u64(maintQ.size());
    for (const std::deque<MaintOp> &q : maintQ) {
        w.u64(q.size());
        for (const MaintOp &op : q) {
            w.u64(op.duration);
            w.u64(op.victimRows);
            w.b(op.isMigration);
            w.u64(static_cast<std::uint64_t>(op.protectedRow));
        }
    }

    // Completions: drain a copy in ready order. Completion times are
    // strictly increasing with issue order (one column command per
    // command slot, fixed read latency), so rebuilding by pushes in this
    // order reproduces the pop sequence exactly.
    saveVector(w, pendingReads, &saveRequest);
    saveU64Vector(w, freePendingSlots);
    auto pq = completions;
    w.u64(pq.size());
    while (!pq.empty()) {
        w.u64(pq.top().readyAt);
        w.u64(pq.top().index);
        pq.pop();
    }

    saveVector(w, nextRefAt, [](StateWriter &sw, Cycle c) { sw.u64(c); });
    saveUnsignedVector(w, refSweepPos);
    saveUnsignedVector(w, hitStreak);
    w.u64(nextCommandAt);
    w.u64(lastSeenCycle);
    w.u64(preventiveActions_);
    w.u64(demandActs_);
    w.u64(readsServed_);
    w.u64(writesServed_);
}

void
MemoryController::loadState(StateReader &r)
{
    r.tag("controller");
    engine_.loadState(r);
    readQ.loadState(r, &loadRequest);
    writeQ.loadState(r, &loadRequest);
    drainingWrites = r.b();

    if (r.u64() != maintQ.size()) {
        r.fail();
        return;
    }
    maintOpsPending_ = 0;
    for (std::deque<MaintOp> &q : maintQ) {
        q.clear();
        std::uint64_t n = r.u64();
        if (!r.ok() || n > r.remaining()) {
            r.fail();
            return;
        }
        for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
            MaintOp op;
            op.duration = r.u64();
            op.victimRows = static_cast<unsigned>(r.u64());
            op.isMigration = r.b();
            op.protectedRow = static_cast<long>(r.u64());
            q.push_back(op);
        }
        maintOpsPending_ += q.size();
    }

    loadVector(r, &pendingReads, &loadRequest);
    loadU64Vector(r, &freePendingSlots);
    completions = decltype(completions)();
    std::uint64_t n_completions = r.u64();
    if (!r.ok() || n_completions > r.remaining()) {
        r.fail();
        return;
    }
    for (std::uint64_t i = 0; i < n_completions && r.ok(); ++i) {
        PendingCompletion c{};
        c.readyAt = r.u64();
        c.index = r.u64();
        if (c.index >= pendingReads.size()) {
            r.fail();
            return;
        }
        completions.push(c);
    }

    std::vector<Cycle> ref_at;
    std::vector<unsigned> sweep, streak;
    loadVector(r, &ref_at, [](StateReader &sr, Cycle *c) { *c = sr.u64(); });
    loadUnsignedVector(r, &sweep);
    loadUnsignedVector(r, &streak);
    if (!r.ok() || ref_at.size() != nextRefAt.size() ||
        sweep.size() != refSweepPos.size() ||
        streak.size() != hitStreak.size()) {
        r.fail();
        return;
    }
    nextRefAt = std::move(ref_at);
    refSweepPos = std::move(sweep);
    hitStreak = std::move(streak);
    nextCommandAt = r.u64();
    lastSeenCycle = r.u64();
    preventiveActions_ = r.u64();
    demandActs_ = r.u64();
    readsServed_ = r.u64();
    writesServed_ = r.u64();

    // The scan caches and the wake memo are pure accelerations of
    // scanOf() and nextEventCycle(); recompute lazily rather than
    // serializing them.
    for (BankScan &scan : readScan)
        scan.valid = false;
    for (BankScan &scan : writeScan)
        scan.valid = false;
    wakeDirty_ = true;
}

// --- Skip-ahead support ------------------------------------------------

Cycle
MemoryController::demandEventCycle(const BankedRequestQueue &queue,
                                   bool is_read, Cycle now) const
{
    DramCommand col_cmd = is_read ? DramCommand::kRead : DramCommand::kWrite;
    bool delays = mitigation != nullptr && mitigation->delaysActs();
    Cycle at = kNeverCycle;
    for (unsigned fb : queue.activeBanks()) {
        // Banks gated by maintenance or refresh wake through those paths'
        // own events (computed in nextEventCycle), not through demand.
        if (!maintQ[fb].empty())
            continue;
        if (rankHasRefreshPending(engine_.rankOf(fb), now))
            continue;
        const BankState &bank = engine_.bank(fb);
        if (!bank.open) {
            Cycle issue_at =
                engine_.earliestIssue(DramCommand::kAct, fb, now);
            if (delays) {
                // Mitigation row delays (BlockHammer) postpone the ACT
                // beyond the bank timing: the bank's next chance is the
                // earliest release among its queued rows. Probes are
                // const and already account for the epoch boundary
                // clearing every delay, so this stays a valid lower
                // bound; delays added by *future* commits only move the
                // true event later, making an early wake a harmless
                // no-op tick.
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
            continue;
        }
        const BankScan &scan = scanOf(is_read, fb);
        bool hit_capped =
            scan.hitPos != kNoPos && scan.hitPos > 0 &&
            hitStreak[fb] >= config_.frfcfsCap;
        if (scan.hitPos != kNoPos && !hit_capped)
            at = std::min(at, engine_.earliestIssue(col_cmd, fb, now));
        if (scan.confPos != kNoPos &&
            (scan.hitPos == kNoPos || hitStreak[fb] >= config_.frfcfsCap))
            at = std::min(at,
                          engine_.earliestIssue(DramCommand::kPre, fb, now));
    }
    return at;
}

Cycle
MemoryController::nextEventCycle(Cycle now) const
{
    // Read completions fire before the command-slot gate in tick().
    Cycle completion_at =
        completions.empty() ? kNeverCycle : completions.top().readyAt;

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
            unsigned fb = base + i;
            if (engine_.bank(fb).open)
                cmd_at = std::min(cmd_at, engine_.earliestIssue(
                                              DramCommand::kPre, fb, now));
        }
    }

    // Maintenance: pending ops start when their bank is closed and clear.
    if (maintOpsPending_ > 0) {
        for (unsigned fb = 0; fb < maintQ.size(); ++fb) {
            if (maintQ[fb].empty())
                continue;
            if (rankHasRefreshPending(engine_.rankOf(fb), now))
                continue; // Wakes through the refresh path above.
            const BankState &bank = engine_.bank(fb);
            if (bank.open)
                cmd_at = std::min(cmd_at, engine_.earliestIssue(
                                              DramCommand::kPre, fb, now));
            else
                cmd_at = std::min(cmd_at,
                                  std::max(now + 1, bank.blockedUntil));
        }
    }

    // Demand scheduling on both queues (drain-mode hysteresis only picks
    // the order; considering both directions is a safe lower bound).
    cmd_at = std::min(cmd_at, demandEventCycle(readQ, true, now));
    cmd_at = std::min(cmd_at, demandEventCycle(writeQ, false, now));

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
MemoryController::wakeAt() const
{
    // Anchored at the last tick, not at the (possibly later) cycle of the
    // recompute: the bound covers every cycle since the state was last
    // mutated, and its value does not depend on when it is recomputed.
    if (wakeDirty_) {
        wakeAt_ = nextEventCycle(lastSeenCycle);
        wakeDirty_ = false;
    }
    return wakeAt_;
}

} // namespace bh
