/**
 * @file
 * Interfaces connecting RowHammer mitigation mechanisms, the memory
 * controller, and BreakHammer.
 *
 * A mitigation mechanism observes committed demand row activations via
 * `commitAct` and requests RowHammer-preventive actions through the
 * `IMitigationHost` (implemented by the memory controller): victim-row
 * refreshes, row migrations (AQUA), RFM commands, or an alert back-off
 * (PRAC). The host executes the action as a bank/rank maintenance
 * blackout, accounts its energy, informs the RowHammer oracle that the
 * aggressor's victims were refreshed, and notifies the attached
 * `IActionObserver` (BreakHammer) so it can attribute RowHammer-preventive
 * scores (§4.1).
 *
 * The interface separates *probes* from *commits* so the controller's
 * scheduler (and the skip-ahead loop's event computation) can query a
 * mechanism speculatively, any number of times, in any order:
 *
 *  - `probeActReleaseCycle()` is a const, side-effect-free query — N
 *    probes followed by one commit must behave exactly like one probe
 *    followed by one commit;
 *  - `commitAct()` mutates tracking state and fires only when the
 *    controller actually issues the ACT;
 *  - `advanceTo()` rolls purely time-based state (epoch rollovers, quota
 *    resets) and is called once per controller tick, before scheduling;
 *  - `nextTimedEventCycle()` exposes the next cycle at which that
 *    time-based state changes, so the skip-ahead loop never jumps past a
 *    throttling decision.
 */
#pragma once

#include "common/snapshot.h"
#include "common/types.h"

namespace bh {

/** Sink for the action stream BreakHammer consumes (§4.1). */
class IActionObserver
{
  public:
    virtual ~IActionObserver() = default;

    /** A demand activation by @p thread (attribution bookkeeping). */
    virtual void onDemandActivate(ThreadId thread, unsigned flat_bank,
                                  Cycle now) = 0;

    /**
     * A RowHammer-preventive action of cost @p weight was performed;
     * the observer attributes scores proportionally to per-thread
     * activation counts since the previous action.
     */
    virtual void onPreventiveAction(double weight, Cycle now) = 0;

    /**
     * Direct per-thread score credit (REGA's attribution: one point per
     * REGA_T activations performed by the thread, §4.1).
     */
    virtual void onDirectScore(ThreadId thread, double amount,
                               Cycle now) = 0;
};

/** Services the memory controller offers to a mitigation mechanism. */
class IMitigationHost
{
  public:
    virtual ~IMitigationHost() = default;

    /**
     * Preventively refresh the victims of @p row in @p flat_bank.
     * Blocks the bank for blast-radius * 2 row cycles, resets the
     * aggressor's hammer progress, and notifies the observer.
     * @param weight Observer score weight of this action.
     */
    virtual void performVictimRefresh(unsigned flat_bank, unsigned row,
                                      double weight) = 0;

    /** AQUA row migration: long bank blackout; resets hammer progress. */
    virtual void performMigration(unsigned flat_bank, unsigned row) = 0;

    /**
     * Issue an RFM to @p flat_bank (tRFM blackout). The caller (the
     * DRAM-side model) decides which rows get protected and reports them
     * via notifyRowProtected.
     */
    virtual void performRfm(unsigned flat_bank, double weight) = 0;

    /** PRAC alert back-off: rank-wide blackout of @p rfms RFM windows. */
    virtual void performAlertBackoff(unsigned rfms, double weight) = 0;

    /**
     * Auxiliary tracker work (e.g., Hydra's in-DRAM row-count-table
     * access): short bank blackout + observer notification, but no row
     * protection.
     */
    virtual void performTrackerAccess(unsigned flat_bank, Cycle duration,
                                      double weight) = 0;

    /** Report that @p row's victims were refreshed (oracle reset). */
    virtual void notifyRowProtected(unsigned flat_bank, unsigned row) = 0;

    /** REGA-style direct score credit, forwarded to the observer. */
    virtual void creditDirectScore(ThreadId thread, double amount) = 0;
};

/** A RowHammer mitigation mechanism. */
class IMitigation
{
  public:
    virtual ~IMitigation() = default;

    virtual const char *name() const = 0;

    /**
     * Commit one demand activation (the trigger algorithm). Called only
     * when the controller actually issues the ACT — never from a
     * scheduling probe.
     */
    virtual void commitAct(unsigned flat_bank, unsigned row,
                           ThreadId thread, Cycle now) = 0;

    /**
     * Called when a periodic REF retires on @p rank; @p sweep_start /
     * @p sweep_rows give the per-bank row range this REF refreshed
     * (mechanisms reset tracking state for refreshed rows).
     */
    virtual void
    onPeriodicRefresh(unsigned rank, unsigned sweep_start,
                      unsigned sweep_rows, Cycle now)
    {
        (void)rank;
        (void)sweep_start;
        (void)sweep_rows;
        (void)now;
    }

    /**
     * Earliest cycle a demand ACT to (@p flat_bank, @p row) may issue,
     * as of @p now. BlockHammer delays blacklisted rows here; everything
     * else returns @p now.
     *
     * This is a pure query: it must not mutate any tracking state, so
     * the scheduler may probe any row, any number of times, in any
     * order, without changing what the mechanism later commits. State
     * that would have rolled by @p now (e.g., an elapsed epoch boundary)
     * must be *accounted for* in the answer, not applied.
     */
    virtual Cycle
    probeActReleaseCycle(unsigned flat_bank, unsigned row, ThreadId thread,
                         Cycle now) const
    {
        (void)flat_bank;
        (void)row;
        (void)thread;
        return now;
    }

    /**
     * Roll purely time-based state (epoch rollovers, per-epoch quota
     * resets) forward to @p now. The controller calls this once at the
     * top of every tick, before any scheduling decision; it must be
     * idempotent within a cycle and depend only on @p now, never on how
     * often it was called on the way there.
     */
    virtual void
    advanceTo(Cycle now)
    {
        (void)now;
    }

    /**
     * Next cycle > @p now at which advanceTo() will change state that
     * scheduling decisions depend on (e.g., BlockHammer's epoch boundary,
     * which clears every blacklist delay and restores throttled quotas),
     * or kNeverCycle. The skip-ahead loop includes this in its wake set
     * so it never jumps past a throttling decision.
     */
    virtual Cycle
    nextTimedEventCycle(Cycle now) const
    {
        (void)now;
        return kNeverCycle;
    }

    /**
     * Whether probeActReleaseCycle() can return a cycle past @p now. The
     * controller's indexed FR-FCFS scan only probes per-row release
     * cycles for mechanisms that actually delay ACTs; everything else
     * resolves a closed bank's candidate to its oldest request without
     * any probe.
     */
    virtual bool delaysActs() const { return false; }

    /**
     * Save or load the mechanism's complete mutable tracking state (the
     * snapshot dual of the probe/commit contract: everything commitAct /
     * advanceTo / onPeriodicRefresh can mutate, nothing derived from the
     * constructor arguments). A mechanism loaded into a same-config
     * instance must behave bit-identically to the original from that
     * point on, and save the same bytes (hash tables keep their
     * iteration order; see common/snapshot.h). The default is for
     * stateless mechanisms: nothing to transfer.
     */
    virtual void transfer(StateIo &io) { (void)io; }

    /** Attach the host before simulation starts. */
    void setHost(IMitigationHost *h) { host = h; }

  protected:
    // bh-audit: skip(host) -- non-owning back-pointer installed by System
    IMitigationHost *host = nullptr;
};

} // namespace bh
