/**
 * @file
 * Miss-status holding register (MSHR) file with per-thread quotas.
 *
 * Tracks outstanding LLC misses. Secondary misses to an in-flight line merge
 * into the existing entry without consuming quota — this is what lets a
 * throttled thread keep accessing data "being brought to caches" (§4.3).
 * Primary misses require both a globally free entry and headroom under the
 * owning thread's quota, the quota being BreakHammer's throttle knob.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cache/throttle_target.h"
#include "common/log.h"
#include "common/snapshot.h"
#include "common/types.h"

namespace bh {

/** One waiter blocked on an outstanding fill. */
struct MshrWaiter
{
    ThreadId thread = kInvalidThread;
    std::uint64_t token = 0; ///< Core-private identifier of the load.
    bool isLoad = true;      ///< Stores merge but need no wakeup.
};

/** The MSHR file; implements the BreakHammer throttle-target interface. */
class MshrFile : public IThrottleTarget
{
  public:
    /**
     * @param num_entries Total MSHR count shared by all threads.
     * @param num_threads Hardware thread count.
     */
    MshrFile(unsigned num_entries, unsigned num_threads);

    /** Whether @p thread may allocate a new entry right now. */
    bool
    canAllocate(ThreadId thread) const
    {
        return entries.size() < numEntries &&
               inflight[thread] < quotas[thread];
    }

    /** Whether line @p line_addr already has an outstanding entry. */
    bool
    has(Addr line_addr) const
    {
        return entries.find(line_addr) != entries.end();
    }

    /**
     * Allocate an entry for @p line_addr owned by @p thread.
     * @pre canAllocate(thread) and !has(line_addr).
     */
    void allocate(Addr line_addr, ThreadId thread, bool is_write);

    /** Merge a secondary miss into the outstanding entry. */
    void merge(Addr line_addr, const MshrWaiter &waiter, bool is_write);

    /**
     * Complete the fill for @p line_addr.
     * @param[out] waiters Load waiters to wake.
     * @return true if any merged access was a store (line becomes dirty).
     */
    bool release(Addr line_addr, std::vector<MshrWaiter> *waiters);

    /** Outstanding entry count for @p thread. */
    unsigned inflightOf(ThreadId thread) const { return inflight[thread]; }

    /** Total outstanding entries. */
    unsigned
    totalInflight() const
    {
        return static_cast<unsigned>(entries.size());
    }

    // IThrottleTarget
    void
    setQuota(ThreadId thread, unsigned q) override
    {
        BH_ASSERT(thread < quotas.size(), "quota for unknown thread");
        quotas[thread] = q;
        ++changes_;
    }

    /**
     * Monotone count of allocate(), release() and setQuota() calls: the
     * only calls that move an occupancy or a quota. The skip-ahead loop
     * gates reject-blocked skips on it (System::rejectKey()).
     */
    std::uint64_t changes() const { return changes_; }

    unsigned fullQuota() const override { return numEntries; }

    unsigned
    quota(ThreadId thread) const override
    {
        return quotas[thread];
    }

    /** Rejections due to a thread being over quota (throttle pressure). */
    std::uint64_t quotaRejections() const { return quotaRejections_; }

    /** Call when canAllocate failed because of the quota, for stats. */
    void noteQuotaRejection() { ++quotaRejections_; }

    /**
     * Batch form of noteQuotaRejection() for System::run's skip-ahead
     * loop: a reject-blocked core repeats the identical quota-rejected
     * retry once per skipped cycle.
     */
    void addQuotaRejections(std::uint64_t n) { quotaRejections_ += n; }

    /** Calls @p fn with every outstanding entry's waiters, in no
     *  particular order (System's post-restore consistency check). */
    template <typename Fn>
    void
    forEachWaiter(Fn fn) const
    {
        for (const auto &[key, entry] : entries)
            for (const MshrWaiter &w : entry.waiters)
                fn(w);
    }

    /** Save or load outstanding entries, quotas, and counters. */
    void transfer(StateIo &io);

  private:
    struct Entry
    {
        ThreadId owner = kInvalidThread;
        bool anyStore = false;
        std::vector<MshrWaiter> waiters;
    };

    /** Whether each thread's inflight count is the entries it owns. */
    bool inflightMatchesOwners() const;

    unsigned numEntries;  // bh-audit: skip(numEntries) -- constructor config, keyed by ExperimentConfig
    std::vector<unsigned> quotas;
    mutable std::vector<unsigned> inflight;
    std::unordered_map<Addr, Entry> entries;
    std::uint64_t quotaRejections_ = 0;
    // bh-audit: skip(changes_) -- derived event key, never serialized; System invalidates its copy on restore
    std::uint64_t changes_ = 0;
};

} // namespace bh
