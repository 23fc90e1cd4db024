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
 * flat bank plus a global enqueue sequence number, so the FR-FCFS scan
 * touches only non-empty banks instead of walking the whole queue per
 * candidate. Per bank, the scheduler caches the oldest row-hit and oldest
 * row-conflict positions; the cache is invalidated only on enqueue, issue,
 * or a row-state change of that bank. Selection order is provably
 * identical to a linear oldest-first scan: within a bank the eligible
 * candidate is unique, so picking the globally smallest sequence number
 * among per-bank candidates reproduces the linear scan's choice. ACT-
 * delaying mechanisms (BlockHammer) are queried through the const
 * probeActReleaseCycle() — a closed bank's candidate is its oldest
 * *released* entry — and commit their tracking state only when the ACT
 * actually issues, so probing is free of side effects and the scan stays
 * cached.
 *
 * nextEventCycle() exposes a conservative lower bound on the next cycle
 * tick() can do anything, which System::run's skip-ahead loop uses to jump
 * over dead cycles. wakeAt() memoizes it between the controller's own
 * ticks, so System ticks each controller only at its own wake.
 */
#pragma once

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

    const std::deque<QueuedRequest> &bank(unsigned fb) const
    {
        return banks_[fb];
    }

    /** Non-empty banks, unordered (candidates compare by seq anyway). */
    const std::vector<unsigned> &activeBanks() const { return active_; }

    /** Serialize the per-bank FIFOs and the global sequence counter. */
    void saveState(StateWriter &w,
                   void (*save_req)(StateWriter &, const Request &)) const;

    /** Restore saveState() output into a same-bank-count queue. */
    void loadState(StateReader &r,
                   void (*load_req)(StateReader &, Request *));

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
    // bh-audit: skip(activePos_) -- index over active_, rebuilt in loadState
    std::vector<int> activePos_; ///< Per bank: index into active_, or -1.
    // bh-audit: skip(size_) -- recomputed from the fifos in loadState
    std::size_t size_ = 0;
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
     * loadState(), and forced to the enqueue cycle by
     * enqueueRead()/enqueueWrite(). Until then every tick is a no-op
     * apart from the drain-hysteresis step that accountSkippedCycles()
     * replays. Mitigation host actions arrive only from inside tick(),
     * so they need no reset.
     */
    Cycle wakeAt() const;

    /**
     * Replay the tick-granular bookkeeping of the dead cycles
     * [first, last] the skip-ahead loop jumped over: every such cycle
     * with a free command slot would have re-evaluated the write-drain
     * hysteresis, whose flag can oscillate with period 2 when the read
     * queue is empty and the write queue sits at/below the low
     * watermark — so its final state depends on how many evaluations
     * ran, not just on the frozen queue sizes.
     */
    void accountSkippedCycles(Cycle first, Cycle last);

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
    TimingEngine &engine() { return engine_; }
    const TimingEngine &engine() const { return engine_; }

    /** Total preventive actions performed (Fig 10's metric). */
    std::uint64_t preventiveActions() const { return preventiveActions_; }

    std::uint64_t demandActs() const { return demandActs_; }
    std::uint64_t readsServed() const { return readsServed_; }
    std::uint64_t writesServed() const { return writesServed_; }
    std::size_t readQueueDepth() const { return readQ.size(); }
    std::size_t writeQueueDepth() const { return writeQ.size(); }

    /**
     * Serialize the controller's complete mutable state: queues,
     * maintenance ops, in-flight completions, refresh bookkeeping,
     * drain/cap/command-slot state, counters, and the timing engine.
     * The mitigation mechanism serializes separately (System owns it).
     */
    void saveState(StateWriter &w) const;

    /** Restore saveState() output into a same-config controller. */
    void loadState(StateReader &r);

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

    static constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

    /**
     * Cached scan summary of one bank's FIFO against its current open
     * row: the oldest row-hit and oldest row-conflict positions. Valid
     * only while the bank FIFO and the bank's row state are unchanged.
     */
    struct BankScan
    {
        bool valid = false;
        std::size_t hitPos = kNoPos;  ///< Oldest entry, row == openRow.
        std::size_t confPos = kNoPos; ///< Oldest entry, row != openRow.
    };

    bool commandSlotFree(Cycle now) const { return now >= nextCommandAt; }
    void useCommandSlot(Cycle now) { nextCommandAt = now + config_.commandSpacing; }

    bool stepDrainFlag(bool draining) const;
    void processCompletions(Cycle now);
    bool serviceRefresh(Cycle now);
    bool serviceMaintenance(Cycle now);
    bool serviceDemand(Cycle now);
    bool tryIssueForQueue(BankedRequestQueue &queue, bool is_read,
                          Cycle now);
    void issueColumn(BankedRequestQueue &queue, bool is_read, unsigned fb,
                     std::size_t pos, bool counts_against_cap, Cycle now);
    void issueDemandAct(const Request &req, Cycle now);
    bool rankHasRefreshPending(unsigned rank, Cycle now) const;

    const BankScan &scanOf(bool is_read, unsigned fb) const;
    void invalidateScan(bool is_read, unsigned fb);
    void invalidateRowState(unsigned fb);
    void invalidateRank(unsigned rank);
    void invalidateAllRowState();

    Cycle demandEventCycle(const BankedRequestQueue &queue, bool is_read,
                           Cycle now) const;

    DramSpec spec_;            // bh-audit: skip(spec_) -- constructor config, keyed by ExperimentConfig
    const AddressMap &mapper;  // bh-audit: skip(mapper) -- non-owning wiring, owned by System
    McConfig config_;          // bh-audit: skip(config_) -- constructor config, keyed by ExperimentConfig
    unsigned channel_ = 0;     // bh-audit: skip(channel_) -- construction identity, fixed for the run
    TimingEngine engine_;

    BankedRequestQueue readQ;
    BankedRequestQueue writeQ;
    /** Lazily refreshed scan caches, per flat bank (see scanOf()). */
    // bh-audit: skip(readScan) -- lazy cache, invalidated in loadState
    mutable std::vector<BankScan> readScan;
    // bh-audit: skip(writeScan) -- lazy cache, invalidated in loadState
    mutable std::vector<BankScan> writeScan;
    bool drainingWrites = false;

    std::vector<std::deque<MaintOp>> maintQ; ///< Per flat bank.
    // bh-audit: skip(maintOpsPending_) -- recomputed from maintQ in loadState
    std::size_t maintOpsPending_ = 0; ///< Total ops across maintQ.

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

    // FR-FCFS cap state: consecutive row hits served per bank while an
    // older row-conflict request waits.
    std::vector<unsigned> hitStreak;

    IMitigation *mitigation = nullptr;   // bh-audit: skip(mitigation) -- non-owning wiring installed by System
    IActionObserver *observer = nullptr; // bh-audit: skip(observer) -- non-owning wiring installed by System

    Cycle nextCommandAt = 0;
    Cycle lastSeenCycle = 0;

    /** wakeAt()'s memo; wakeDirty_ forces a recompute. */
    // bh-audit: skip(wakeDirty_) -- lazy cache, reset in loadState
    mutable bool wakeDirty_ = true;
    // bh-audit: skip(wakeAt_) -- lazy cache, reset in loadState
    mutable Cycle wakeAt_ = 0;

    std::uint64_t preventiveActions_ = 0;
    std::uint64_t demandActs_ = 0;
    std::uint64_t readsServed_ = 0;
    std::uint64_t writesServed_ = 0;
};

} // namespace bh
