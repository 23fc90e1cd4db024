/**
 * @file
 * Trace-driven out-of-order core model (Table 1: 4.2 GHz, 4-wide issue,
 * 128-entry instruction window).
 *
 * Follows the Ramulator2 SimpleO3 approach: non-memory instructions retire
 * immediately (they only occupy issue slots and window entries); loads hold
 * their window entry until data returns; stores retire at issue and drain
 * through the write path. The window gives memory-level parallelism, and a
 * full window (or a rejected memory access, e.g., an MSHR-quota rejection
 * injected by BreakHammer) stalls the front end — the backpressure that
 * makes MSHR-quota throttling effective.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/snapshot.h"
#include "common/types.h"
#include "trace/trace.h"

namespace bh {

/** Outcome of presenting a memory access to the memory system. */
enum class AccessOutcome
{
    kHit,      ///< Completes after the LLC hit latency.
    kQueued,   ///< Miss in flight; completion arrives via callback.
    kRejected, ///< No resources (MSHR quota / queue full); retry later.
};

/** Interface the core uses to touch the memory system. */
class ICoreMemory
{
  public:
    virtual ~ICoreMemory() = default;

    /**
     * Issue a load.
     * @param token Core-private id echoed in the completion callback.
     */
    virtual AccessOutcome load(ThreadId thread, Addr addr, bool uncached,
                               std::uint64_t token) = 0;

    /** Issue a store (fire-and-forget for the core). */
    virtual AccessOutcome store(ThreadId thread, Addr addr,
                                bool uncached) = 0;
};

/** Core configuration (defaults = Table 1). */
struct CoreConfig
{
    unsigned windowSize = 128;
    unsigned width = 4; ///< Issue and retire width.
    Cycle llcHitLatency = 40; ///< Load-to-use latency of an LLC hit.
};

/** One trace-driven hardware thread. */
class Core
{
  public:
    /**
     * @param benign Benign cores define simulation end and metrics;
     *               attacker cores run for as long as the simulation does.
     */
    Core(ThreadId id, TraceSource *trace, ICoreMemory *memory,
         const CoreConfig &config, bool benign);

    /** Advance one CPU cycle. */
    void
    tick(Cycle now)
    {
        // A full window whose head is still waiting can neither retire
        // nor issue: most ticks of a memory-bound core end here.
        if (occupancy == window.size() && window[head].doneAt > now)
            return;
        retireAndIssue(now);
    }

    /** Completion callback for a queued load. */
    void completeLoad(std::uint64_t token, Cycle now);

    ThreadId id() const { return id_; }
    bool benign() const { return benign_; }
    std::uint64_t retired() const { return retired_; }

    /** First cycle at which @p target instructions had retired (or 0). */
    Cycle
    finishCycle() const
    {
        return finishCycle_;
    }

    /** Arm the retirement target that latches finishCycle(). */
    void setTarget(std::uint64_t target) { target_ = target; }

    bool
    reachedTarget() const
    {
        return target_ != 0 && retired_ >= target_;
    }

    /** Cycles the front end was blocked by a rejected memory access. */
    std::uint64_t rejectStallCycles() const { return rejectStalls; }

    /**
     * Earliest cycle > @p now at which this core's tick can do anything
     * beyond what a stalled tick does, assuming the memory system's state
     * does not change in between. kNeverCycle means only an external event
     * (a load completion, a quota or queue state change) can unblock it.
     * Called by System::run's skip-ahead loop right after tick(now).
     */
    Cycle
    nextEventCycle(Cycle now) const
    {
        if (issuesNextCycle())
            return now + 1;
        // Window full, or reject-blocked: while the memory system's state
        // is frozen, ticks are no-ops apart from the batched stall
        // accounting. The earliest in-order retire the core can perform
        // on its own is the head entry's completion time; a head waiting
        // on a DRAM fill (kNeverCycle) is woken by the controller's
        // completion event instead.
        if (occupancy == 0 || window[head].doneAt == kNeverCycle)
            return kNeverCycle;
        return std::max(window[head].doneAt, now + 1);
    }

    /**
     * Whether the last issue attempt was rejected by the memory system
     * while window slots remain: every further cycle with unchanged memory
     * state repeats the identical rejected retry. System::run batches
     * those retries' stall accounting across skipped cycles.
     */
    bool
    stalledOnReject() const
    {
        return occupancy < window.size() && stalledOnReject_;
    }

    /**
     * Whether the next cycle issues (or discovers a rejection): window
     * slots remain and the last attempt was not rejected. Only tick()
     * changes it, and while it holds nextEventCycle() is now + 1.
     */
    bool
    issuesNextCycle() const
    {
        return occupancy < window.size() && !stalledOnReject_;
    }

    /** Account @p cycles skipped reject-stall cycles (skip-ahead loop). */
    void addRejectStallCycles(std::uint64_t cycles)
    {
        rejectStalls += cycles;
    }

    /** Memory accesses issued (loads + stores). */
    std::uint64_t memoryAccesses() const { return memAccesses; }

    /** Serialize the core's mutable pipeline state (not the config). */
    void saveState(StateWriter &w) const;

    /** Restore saveState() output into a same-config core. */
    void loadState(StateReader &r);

  private:
    struct WindowEntry
    {
        Cycle doneAt = 0; ///< kNeverCycle while waiting on a fill.
    };

    void retireAndIssue(Cycle now);
    bool issueOne(Cycle now);

    ThreadId id_;         // bh-audit: skip(id_) -- construction identity, fixed for the run
    TraceSource *trace;
    ICoreMemory *memory;  // bh-audit: skip(memory) -- non-owning wiring installed by System
    CoreConfig config_;   // bh-audit: skip(config_) -- constructor config, keyed by ExperimentConfig
    bool benign_;         // bh-audit: skip(benign_) -- constructor config (slot role from the mix)

    std::vector<WindowEntry> window;
    unsigned head = 0;
    unsigned occupancy = 0;
    std::uint64_t issueCounter = 0; ///< Doubles as the load token.

    std::uint32_t pendingBubbles = 0;
    bool recValid = false;
    bool stalledOnReject_ = false; ///< Last issue attempt was rejected.
    TraceRecord rec;

    std::uint64_t retired_ = 0;
    std::uint64_t target_ = 0;
    Cycle finishCycle_ = 0;
    std::uint64_t rejectStalls = 0;
    std::uint64_t memAccesses = 0;
};

} // namespace bh
