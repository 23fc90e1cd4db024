/**
 * @file
 * RowHammer oracle: ground-truth security checker used by the test suite.
 *
 * Tracks, per (bank, row), the number of activations since the row's
 * victims were last refreshed — by a preventive action (the controller
 * reports those through notifyRowProtected) or by the periodic refresh
 * sweep. A mitigation mechanism is RowHammer-safe iff this count never
 * reaches N_RH. The oracle records violations instead of aborting so tests
 * can assert on them.
 */
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/snapshot.h"
#include "common/types.h"
#include "dram/spec.h"

namespace bh {

/** Ground-truth per-row hammer counting. */
class HammerOracle
{
  public:
    HammerOracle(const DramOrg &org, unsigned n_rh)
        : org_(org), nRh(n_rh)
    {}

    /** A demand activation of (bank, row). */
    void
    onActivate(unsigned flat_bank, unsigned row)
    {
        std::uint32_t &count = counts[key(flat_bank, row)];
        ++count;
        if (count > maxCount_)
            maxCount_ = count;
        if (count == nRh)
            ++violations_; // Counted once, at the first crossing.
    }

    /** The victims of (bank, row) were preventively refreshed. */
    void
    onRowProtected(unsigned flat_bank, unsigned row)
    {
        counts.erase(key(flat_bank, row));
    }

    /**
     * A periodic REF refreshed per-bank rows [start, start + rows) on
     * @p rank. Aggressors with both neighbours inside the swept range
     * lose their accumulated disturbance (conservative at the edges).
     */
    void
    onRefreshSweep(unsigned rank, unsigned start, unsigned rows)
    {
        if (rows < 3)
            return; // Conservative: too narrow to cover both victims.
        unsigned base = rank * org_.banksPerRank();
        for (unsigned b = 0; b < org_.banksPerRank(); ++b) {
            for (unsigned r = 1; r + 1 < rows; ++r) {
                unsigned row = (start + r) % org_.rowsPerBank;
                counts.erase(key(base + b, row));
            }
        }
    }

    /** Rows whose activation count ever reached N_RH (must stay 0). */
    std::uint64_t violations() const { return violations_; }

    /** Largest hammer count ever observed. */
    std::uint32_t maxCount() const { return maxCount_; }

    unsigned threshold() const { return nRh; }

    /** Save or load the per-row counts and the verdict counters. */
    void
    transfer(StateIo &io)
    {
        io.tag("oracle");
        io.map(counts,
               [](StateIo &sub, std::uint64_t &row, std::uint32_t &count) {
                   sub.u64(row);
                   sub.u32(count);
               });
        io.u64(violations_);
        io.u64(maxCount_);
    }

  private:
    static std::uint64_t
    key(unsigned flat_bank, unsigned row)
    {
        return (static_cast<std::uint64_t>(flat_bank) << 32) | row;
    }

    DramOrg org_;  // bh-audit: skip(org_) -- constructor config, keyed by ExperimentConfig
    unsigned nRh;  // bh-audit: skip(nRh) -- constructor config, keyed by ExperimentConfig
    std::unordered_map<std::uint64_t, std::uint32_t> counts;
    std::uint64_t violations_ = 0;
    std::uint32_t maxCount_ = 0;
};

} // namespace bh
