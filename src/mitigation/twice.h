/**
 * @file
 * TWiCe: Time Window Counter based row refresh (Lee et al., ISCA'19).
 *
 * Keeps a per-bank table of activated rows with an activation count and a
 * lifetime (in refresh intervals). Rows whose count falls behind the prune
 * rate (rows that could not reach N_RH within the remaining window) are
 * periodically pruned; rows whose count reaches the trigger threshold get a
 * preventive victim refresh.
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dram/spec.h"
#include "mitigation/mitigation.h"

namespace bh {

/** TWiCe mitigation mechanism. */
class Twice : public IMitigation
{
  public:
    Twice(unsigned n_rh, const DramSpec &spec);

    const char *name() const override { return "TWiCe"; }

    void commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                    Cycle now) override;

    void onPeriodicRefresh(unsigned rank, unsigned sweep_start,
                           unsigned sweep_rows, Cycle now) override;

    void transfer(StateIo &io) override;

    unsigned triggerThreshold() const { return threshold; }

    /** Tracked entries in one bank's table (for cost comparisons). */
    std::size_t tableSize(unsigned flat_bank) const
    {
        return tables[flat_bank].size();
    }

  private:
    struct Entry
    {
        std::uint32_t acts = 0;
        std::uint32_t life = 0; ///< Age in pruning periods.
    };

    unsigned threshold;  // bh-audit: skip(threshold) -- constructor config, keyed by ExperimentConfig
    // bh-audit: skip(pruneRate) -- constructor config, keyed by ExperimentConfig
    double pruneRate; ///< Minimum ACTs per period to stay tracked.
    // bh-audit: skip(refsPerPrune) -- constructor config, keyed by ExperimentConfig
    unsigned refsPerPrune;
    unsigned refsSeen = 0;
    Cycle windowLength;  // bh-audit: skip(windowLength) -- constructor config, keyed by ExperimentConfig
    Cycle windowStart = 0;
    std::vector<std::unordered_map<std::uint32_t, Entry>> tables;
};

} // namespace bh
