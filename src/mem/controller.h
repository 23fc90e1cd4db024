/**
 * @file
 * Memory controller: request queues, FR-FCFS+Cap scheduling, periodic
 * refresh, and the maintenance machinery behind RowHammer-preventive
 * actions.
 *
 * Scheduling follows Table 1 of the paper: 64-entry read/write queues and
 * FR-FCFS with a cap of 4 on column-over-row reordering (Mutlu &
 * Moscibroda, MICRO'07). Writes drain in batches between watermarks.
 * Preventive actions requested by the attached mitigation mechanism run as
 * prioritized per-bank maintenance operations; each one notifies the
 * attached action observer (BreakHammer) and the row-protection listener
 * (the RowHammer oracle in tests).
 *
 * Requests are indexed per bank: each queue keeps one age-ordered FIFO per
 * flat bank plus a global enqueue sequence number, so the FR-FCFS walk
 * touches only non-empty banks. Everything a walk reads about a bank sits
 * in one packed record per flat bank: its row state and bank-local
 * earliest ACT/PRE/column cycles (mirrored from the timing engine after
 * every command to the bank or its rank, with the blackouts folded in),
 * its rank and bank group, a maintenance-pending flag, the FR-FCFS hit
 * streak, and per queue a cached scan (oldest row-hit and oldest
 * row-conflict position and sequence number) that is invalidated only on
 * enqueue, issue, or a row-state change of that bank. A visit is then a
 * few comparisons against the record, the rank's ACT spacing and the bus.
 *
 * Each issue attempt is one walk per queue. It collects both the oldest
 * eligible row hit (FR-FCFS+Cap's first choice) and the oldest
 * ACT/PRE candidate (used only when no hit is eligible), so it picks what
 * two oldest-first passes over the queue would. Within a bank the eligible
 * candidate of each kind is unique, so picking the globally smallest
 * sequence number among per-bank candidates reproduces a linear scan's
 * choice. ACT-delaying mechanisms (BlockHammer) are queried through the
 * const probeActReleaseCycle() (a closed bank's candidate is its oldest
 * *released* entry) and commit their tracking state only when the ACT
 * actually issues, so probing is free of side effects and the scans stay
 * cached.
 *
 * nextEventCycle() exposes a conservative lower bound on the next cycle
 * tick() can do anything, which System::run's skip-ahead loop uses to jump
 * over dead cycles. wakeAt() memoizes it between the controller's own
 * ticks, so System ticks each controller only at its own wake. Its demand
 * walk stops at the first bank that pins the answer to the command slot,
 * and its command-side part is itself memoized until the next command,
 * enqueue or host action: a tick that finds that bound still in the
 * future skips the walks it could not pass, and a tick at or past it
 * picks from the per-bank candidates the wake walk recorded instead of
 * walking the records again.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "common/snapshot.h"
#include "common/types.h"
#include "dram/address.h"
#include "dram/timing.h"
#include "mem/request.h"
#include "mitigation/mitigation.h"
#include "stats/histogram.h"

namespace bh {

/** Controller configuration (defaults = Table 1). */
struct McConfig
{
    unsigned readQueueSize = 64;
    unsigned writeQueueSize = 64;
    unsigned frfcfsCap = 4;  ///< Cap on column-over-row reordering.
    unsigned wqHighWatermark = 48;
    unsigned wqLowWatermark = 16;
    /** Command-bus spacing in CPU cycles (~tCK at DDR5-4800). */
    Cycle commandSpacing = 2;
    /** Victim rows refreshed per preventive refresh (blast radius 1). */
    unsigned victimRowsPerRefresh = 2;
    /** AQUA row migration blackout in nanoseconds (row read + write). */
    double migrationLatencyNs = 1300.0;
    /** REF commands per full per-bank row sweep (JEDEC: 8192). */
    unsigned refsPerSweep = 8192;
};

/** One queued request, stamped with its global enqueue order. */
struct QueuedRequest
{
    Request req;
    std::uint64_t seq = 0; ///< Smaller = older (FCFS age).
};

/**
 * Age-ordered request queue indexed by flat bank. Each bank holds its
 * requests in enqueue order; cross-bank age is compared via `seq`. The
 * active-bank list lets the scheduler iterate only banks that hold work.
 */
class BankedRequestQueue
{
  public:
    explicit BankedRequestQueue(unsigned num_banks)
        : banks_(num_banks), activePos_(num_banks, -1)
    {}

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Requests ever pushed (each took the next sequence number). */
    std::uint64_t pushes() const { return nextSeq_; }

    const std::deque<QueuedRequest> &bank(unsigned fb) const
    {
        return banks_[fb];
    }

    /** Non-empty banks, unordered (candidates compare by seq anyway). */
    const std::vector<unsigned> &activeBanks() const { return active_; }

    /**
     * Save or load the per-bank FIFOs, the active-bank list and the
     * global sequence counter (same bank count).
     */
    void transfer(StateIo &io);

    void
    push(const Request &req)
    {
        unsigned fb = req.flatBank;
        if (banks_[fb].empty()) {
            activePos_[fb] = static_cast<int>(active_.size());
            active_.push_back(fb);
        }
        banks_[fb].push_back(QueuedRequest{req, nextSeq_++});
        ++size_;
    }

    /** Remove the entry at @p pos of bank @p fb's FIFO. */
    void
    erase(unsigned fb, std::size_t pos)
    {
        std::deque<QueuedRequest> &fifo = banks_[fb];
        fifo.erase(fifo.begin() + static_cast<long>(pos));
        --size_;
        if (fifo.empty()) {
            // Swap-remove from the active list, patching the moved slot.
            int slot = activePos_[fb];
            unsigned moved = active_.back();
            active_[static_cast<std::size_t>(slot)] = moved;
            activePos_[moved] = slot;
            active_.pop_back();
            activePos_[fb] = -1;
        }
    }

  private:
    std::vector<std::deque<QueuedRequest>> banks_;
    std::vector<unsigned> active_;
    /** Per bank: index into active_, or -1 (rebuilt on load). */
    std::vector<int> activePos_;
    std::size_t size_ = 0; ///< Recomputed from the fifos on load.
    std::uint64_t nextSeq_ = 0;
};

/** The memory controller for one channel. */
class MemoryController : public IMitigationHost
{
  public:
    /**
     * @param channel This controller's channel index in [0, org.channels);
     *        enqueued requests must decode to it.
     */
    MemoryController(const DramSpec &spec, const AddressMap &mapper,
                     const McConfig &config, unsigned channel = 0);

    /** Channel index this controller serves. */
    unsigned channel() const { return channel_; }

    /** Space in the read queue? */
    bool
    canEnqueueRead() const
    {
        return readQ.size() < config_.readQueueSize;
    }

    /** Space in the write queue? */
    bool
    canEnqueueWrite() const
    {
        return writeQ.size() < config_.writeQueueSize;
    }

    /** Enqueue a read; @pre canEnqueueRead(). */
    void enqueueRead(Request req, Cycle now);

    /** Enqueue a write; @pre canEnqueueWrite(). */
    void enqueueWrite(Request req, Cycle now);

    /** Advance one CPU cycle. */
    void tick(Cycle now);

    /**
     * Lower bound > @p now on the next cycle tick() can do anything
     * (complete a read, issue a command, start maintenance, or service a
     * refresh), assuming no new requests arrive in between. Waking up
     * earlier than the true next action is harmless (the tick is a no-op,
     * exactly as a dense tick would be); waking later never happens.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * The next cycle this controller must be ticked: a memoized
     * nextEventCycle(lastSeenCycle), recomputed lazily after tick() or
     * a load, and forced to the enqueue cycle by
     * enqueueRead()/enqueueWrite(). Until then every tick is a no-op
     * (the drain mode is stored only when a demand command issues), so
     * System need not visit the controller at all.
     * Mitigation host actions arrive only from inside tick(), so they
     * need no reset.
     */
    Cycle
    wakeAt() const
    {
        return wakeDirty_ ? recomputeWake() : wakeAt_;
    }

    /**
     * Monotone count of the events that move a queue depth or a served
     * count: enqueues (each push takes a sequence number) and column
     * commands. The skip-ahead loop gates reject-blocked skips on it.
     */
    std::uint64_t
    queueEvents() const
    {
        return readQ.pushes() + writeQ.pushes() + readsServed_ +
               writesServed_;
    }

    /**
     * Calls @p fn(req, is_read) with every request this controller
     * holds: queued reads and writes, and issued reads awaiting their
     * data return, in no particular order (System's post-restore
     * consistency check).
     */
    template <typename Fn>
    void
    forEachRequest(Fn fn) const
    {
        for (unsigned fb = 0; fb < bank_.size(); ++fb) {
            for (const QueuedRequest &q : readQ.bank(fb))
                fn(q.req, true);
            for (const QueuedRequest &q : writeQ.bank(fb))
                fn(q.req, false);
        }
        for (auto pending = completions; !pending.empty(); pending.pop())
            fn(pendingReads[pending.top().index], true);
    }

    /** Fires when read data is fully returned. */
    // bh-audit: skip(onReadComplete) -- wiring callback installed by System
    std::function<void(const Request &, Cycle)> onReadComplete;

    /** Fires on every demand activation: (bank, row, thread, cycle). */
    // bh-audit: skip(onDemandAct) -- wiring callback installed by System
    std::function<void(unsigned, unsigned, ThreadId, Cycle)> onDemandAct;

    /** Fires when a row's victims were refreshed (oracle reset). */
    // bh-audit: skip(onRowProtected) -- wiring callback installed by System
    std::function<void(unsigned, unsigned)> onRowProtected;

    /**
     * Fires when a periodic REF retires: (rank, sweep_start, sweep_rows).
     * The per-bank rows [sweep_start, sweep_start + sweep_rows) of the rank
     * were refreshed by this REF.
     */
    // bh-audit: skip(onPeriodicRefresh) -- wiring callback installed by System
    std::function<void(unsigned, unsigned, unsigned)> onPeriodicRefresh;

    void setMitigation(IMitigation *m);
    void setObserver(IActionObserver *o) { observer = o; }

    // --- IMitigationHost ---
    void performVictimRefresh(unsigned flat_bank, unsigned row,
                              double weight) override;
    void performMigration(unsigned flat_bank, unsigned row) override;
    void performRfm(unsigned flat_bank, double weight) override;
    void performAlertBackoff(unsigned rfms, double weight) override;
    void performTrackerAccess(unsigned flat_bank, Cycle duration,
                              double weight) override;
    void notifyRowProtected(unsigned flat_bank, unsigned row) override;
    void creditDirectScore(ThreadId thread, double amount) override;

    // --- Introspection ---
    /** Read-only: every engine command goes through the controller,
     *  which mirrors the bank state it schedules from. */
    const TimingEngine &engine() const { return engine_; }

    /** Total preventive actions performed (Fig 10's metric). */
    std::uint64_t preventiveActions() const { return preventiveActions_; }

    std::uint64_t demandActs() const { return demandActs_; }
    std::uint64_t readsServed() const { return readsServed_; }
    std::uint64_t writesServed() const { return writesServed_; }
    std::size_t readQueueDepth() const { return readQ.size(); }
    std::size_t writeQueueDepth() const { return writeQ.size(); }

    /**
     * Save or load the controller's complete mutable state: queues,
     * maintenance ops, in-flight completions, refresh bookkeeping,
     * drain/cap/command-slot state, counters, and the timing engine.
     * The mitigation mechanism transfers separately (System owns it).
     */
    void transfer(StateIo &io);

  private:
    /** One pending RowHammer-preventive maintenance operation. */
    struct MaintOp
    {
        Cycle duration = 0;
        unsigned victimRows = 0;   ///< Energy accounting.
        bool isMigration = false;
        long protectedRow = -1;    ///< Aggressor row to report, or -1.
    };

    struct PendingCompletion
    {
        Cycle readyAt;
        std::uint64_t index; ///< Into pendingReads.
        bool
        operator>(const PendingCompletion &other) const
        {
            return readyAt > other.readyAt;
        }
    };

    static constexpr std::uint32_t kNoPos = static_cast<std::uint32_t>(-1);
    static constexpr std::uint64_t kNoSeq = static_cast<std::uint64_t>(-1);

    /**
     * Cached scan of one bank's FIFO in one queue against the bank's open
     * row: the oldest row-hit and oldest row-conflict entries. Valid only
     * while that FIFO and the bank's row state are unchanged.
     */
    struct BankScan
    {
        std::uint64_t hitSeq = kNoSeq;  ///< Sequence number at hitPos.
        std::uint64_t confSeq = kNoSeq; ///< Sequence number at confPos.
        std::uint32_t hitPos = kNoPos;  ///< Oldest entry, row == openRow.
        std::uint32_t confPos = kNoPos; ///< Oldest entry, row != openRow.
    };

    /**
     * Everything one scheduling visit reads about a flat bank, laid out
     * so a visit to the read queue touches one cache line. syncBank()
     * copies the row and timing fields from the engine after every
     * command to the bank or its rank; each `*At` already includes both
     * the bank's and the rank's blackout. Every field but hitStreak is
     * derived and rebuilt on load.
     */
    struct alignas(64) BankRecord
    {
        Cycle actAt = 0; ///< Bank-local earliest ACT (nextAct, blackouts).
        Cycle preAt = 0; ///< Bank-local earliest PRE (nextPre, blackouts).
        Cycle colAt = 0; ///< Bank-local earliest RD/WR (nextRdWr, ...).
        /** Consecutive row hits served while an older row conflict
         *  waits (FR-FCFS cap state; serialized). */
        unsigned hitStreak = 0;
        unsigned rank = 0;
        unsigned group = 0; ///< Bank group within the rank.
        bool open = false;
        bool maintPending = false; ///< maintQ of the bank is non-empty.
        bool scanValid[2] = {false, false}; ///< Per scan[] entry.
        BankScan scan[2]; ///< Read queue first (see scanIndex()).
        unsigned openRow = 0;
        Cycle blockedUntil = 0; ///< The bank's own blackout.

        void invalidateScans() { scanValid[0] = scanValid[1] = false; }
    };

    static unsigned scanIndex(bool is_read) { return is_read ? 0 : 1; }

    bool commandSlotFree(Cycle now) const { return now >= nextCommandAt; }
    void
    useCommandSlot(Cycle now)
    {
        nextCommandAt = now + config_.commandSpacing;
        cmdBoundValid_ = false;
    }

    bool stepDrainFlag(bool draining) const;
    void processCompletions(Cycle now);
    bool serviceRefresh(Cycle now);
    bool serviceMaintenance(Cycle now);
    bool serviceDemand(Cycle now);
    bool tryIssueForQueue(BankedRequestQueue &queue, bool is_read,
                          Cycle now);
    void issueColumn(BankedRequestQueue &queue, bool is_read, unsigned fb,
                     std::uint32_t pos, bool counts_against_cap, Cycle now);
    void issueDemandAct(const Request &req, Cycle now);
    void issuePrecharge(unsigned fb, Cycle now);
    void queueMaintenance(unsigned fb, const MaintOp &op);
    bool rankHasRefreshPending(unsigned rank, Cycle now) const
    {
        return now >= nextRefAt[rank];
    }
    /** Whether any rank has a refresh pending: the walks test each
     *  bank's rank only then. */
    bool
    anyRefreshPending(Cycle now) const
    {
        return now >= *std::min_element(nextRefAt.begin(), nextRefAt.end());
    }

    /** The bank's cached scan in one queue, rescanning if stale. */
    const BankScan &
    scanOf(bool is_read, unsigned fb) const
    {
        const BankRecord &rec = bank_[fb];
        unsigned i = scanIndex(is_read);
        return rec.scanValid[i] ? rec.scan[i] : rescan(is_read, fb);
    }
    const BankScan &rescan(bool is_read, unsigned fb) const;

    /** Refresh @p fb's record from the engine; drop its scans if the
     *  row state changed. */
    void syncBank(unsigned fb);
    void syncRank(unsigned rank);
    void syncAllBanks();

    /**
     * One bank's demand candidates as a wake walk found them, each legal
     * from its cycle on while nothing changes (kNeverCycle: none).
     */
    struct PlanEntry
    {
        Cycle hitAt = kNeverCycle; ///< Column to the oldest hit, if allowed.
        Cycle rowAt = kNeverCycle; ///< ACT (closed) or PRE (open), if allowed.
        std::uint64_t hitSeq = kNoSeq;
        std::uint64_t rowSeq = kNoSeq;
        unsigned fb = 0;
        std::uint32_t hitPos = kNoPos;
        std::uint32_t rowPos = kNoPos;
        bool hitConflict = false; ///< Older row conflicts wait.
        bool rowIsPre = false;
    };

    Cycle demandEventCycle(const BankedRequestQueue &queue, bool is_read,
                           Cycle now, Cycle floor, bool plan) const;
    bool issueFromPlan(BankedRequestQueue &queue, bool is_read, Cycle now);
    Cycle commandBound(Cycle now, bool plan) const;
    Cycle wakeFrom(Cycle now, Cycle cmd_at) const;
    bool commandBoundHolds(Cycle now) const;
    Cycle recomputeWake() const;

    DramSpec spec_;            // bh-audit: skip(spec_) -- constructor config, keyed by ExperimentConfig
    const AddressMap &mapper;  ///< Non-owning; owned by System.
    McConfig config_;          // bh-audit: skip(config_) -- constructor config, keyed by ExperimentConfig
    unsigned channel_ = 0;     ///< The channel this controller serves.
    TimingEngine engine_;

    BankedRequestQueue readQ;
    BankedRequestQueue writeQ;
    /** Per flat bank; scans are refreshed lazily (see scanOf()). */
    mutable std::vector<BankRecord> bank_;
    /** Write-drain mode as of the last demand command (serviceDemand()). */
    bool drainingWrites = false;

    std::vector<std::deque<MaintOp>> maintQ; ///< Per flat bank.
    /** Total ops across maintQ (recomputed on load). */
    std::size_t maintOpsPending_ = 0;

    // Read completions in flight.
    std::vector<Request> pendingReads;
    std::vector<std::uint64_t> freePendingSlots;
    std::priority_queue<PendingCompletion,
                        std::vector<PendingCompletion>,
                        std::greater<PendingCompletion>>
        completions;

    // Refresh bookkeeping.
    std::vector<Cycle> nextRefAt;     ///< Per rank.
    std::vector<unsigned> refSweepPos; ///< Per rank, row sweep pointer.

    IMitigation *mitigation = nullptr;   // bh-audit: skip(mitigation) -- non-owning wiring installed by System
    IActionObserver *observer = nullptr; // bh-audit: skip(observer) -- non-owning wiring installed by System

    Cycle nextCommandAt = 0;
    Cycle lastSeenCycle = 0;

    /** wakeAt()'s memo; wakeDirty_ forces a recompute. */
    mutable bool wakeDirty_ = true;
    // bh-audit: skip(wakeAt_) -- lazy cache, reset on load
    mutable Cycle wakeAt_ = 0;

    /**
     * The last commandBound() and the cycle it was taken at; every
     * command, enqueue and host action clears cmdBoundValid_ (see
     * commandBoundHolds()).
     */
    // bh-audit: skip(cmdBound_) -- lazy cache, reset on load
    mutable Cycle cmdBound_ = 0;
    // bh-audit: skip(cmdBoundAt_) -- lazy cache, reset on load
    mutable Cycle cmdBoundAt_ = 0;
    mutable bool cmdBoundValid_ = false;
    /**
     * Per queue (scanIndex()), every ungated bank's candidates from the
     * walk behind cmdBound_, when that walk visited every bank: while the
     * bound holds, they decide a tick without walking the records.
     */
    // bh-audit: skip(plan_) -- lazy cache, reset on load
    mutable std::vector<PlanEntry> plan_[2];
    mutable bool planComplete_[2] = {false, false};

    std::uint64_t preventiveActions_ = 0;
    std::uint64_t demandActs_ = 0;
    std::uint64_t readsServed_ = 0;
    std::uint64_t writesServed_ = 0;
};

} // namespace bh
