/**
 * @file
 * Misra-Gries frequent-element tracker (Misra & Gries, 1982), the counter
 * core of Graphene and AQUA.
 *
 * Uses the standard global-offset formulation of "decrement all": an entry's
 * effective count is `weight - offset`; entries whose weight falls to the
 * offset are stale and their slots are reclaimed lazily with a rotating scan
 * cursor, giving amortized O(1) updates while preserving exact Misra-Gries
 * semantics (a new element is only admitted when some counter has reached
 * zero).
 */
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/log.h"
#include "common/snapshot.h"

namespace bh {

/** Misra-Gries summary over row identifiers. */
class MisraGries
{
  public:
    explicit MisraGries(unsigned capacity) : capacity_(capacity)
    {
        BH_ASSERT(capacity > 0, "Misra-Gries needs at least one counter");
    }

    /**
     * Record one occurrence of @p row.
     * @return The row's effective counter after the update (0 if the row
     *         could not be admitted, i.e., all counters were decremented).
     */
    std::uint64_t
    increment(std::uint64_t row)
    {
        auto it = table.find(row);
        if (it != table.end()) {
            if (it->second <= offset) {
                it->second = offset + 1; // Stale entry: effectively new.
            } else {
                ++it->second;
            }
            return it->second - offset;
        }
        if (table.size() < capacity_) {
            table.emplace(row, offset + 1);
            return 1;
        }
        // Try to reclaim one stale slot.
        if (reclaimOne()) {
            table.emplace(row, offset + 1);
            return 1;
        }
        // Classic Misra-Gries: decrement everything, do not admit.
        ++offset;
        return 0;
    }

    /** Effective counter of @p row (0 if untracked or stale). */
    std::uint64_t
    estimate(std::uint64_t row) const
    {
        auto it = table.find(row);
        if (it == table.end() || it->second <= offset)
            return 0;
        return it->second - offset;
    }

    /** Reset @p row's counter to zero, keeping it tracked. */
    void
    resetRow(std::uint64_t row)
    {
        auto it = table.find(row);
        if (it != table.end())
            it->second = offset;
    }

    /** Drop all state (periodic table reset). */
    void
    clear()
    {
        table.clear();
        offset = 0;
    }

    std::size_t trackedRows() const { return table.size(); }
    unsigned capacity() const { return capacity_; }

    /**
     * Save or load the summary. Which stale entry reclaimOne() erases
     * depends on iteration order, but a stale entry acts exactly like an
     * absent row and a row is admitted iff fewer than capacity() entries
     * are live, so no return value depends on it; only the snapshot
     * bytes do. StateIo::map keeps the bucket structure so a resumed
     * run's later snapshots match.
     */
    void
    transfer(StateIo &io)
    {
        io.tag("misra_gries");
        io.u64(offset);
        io.map(table,
               [](StateIo &sub, std::uint64_t &row, std::uint64_t &weight) {
                   sub.u64(row);
                   sub.u64(weight);
               });
    }

  private:
    /** Erase one stale entry if any exists (amortized by full scan). */
    bool
    reclaimOne()
    {
        for (auto it = table.begin(); it != table.end(); ++it) {
            if (it->second <= offset) {
                table.erase(it);
                return true;
            }
        }
        return false;
    }

    unsigned capacity_;  // bh-audit: skip(capacity_) -- constructor config, keyed by ExperimentConfig
    std::uint64_t offset = 0;
    std::unordered_map<std::uint64_t, std::uint64_t> table;
};

} // namespace bh
