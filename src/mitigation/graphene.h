/**
 * @file
 * Graphene: Misra-Gries-based aggressor tracking (Park et al., MICRO'20).
 *
 * One Misra-Gries table per bank counts activations of the most frequent
 * rows; when a row's counter reaches the refresh threshold, its victims are
 * preventively refreshed and the counter resets. Tables reset every half
 * refresh window. The refresh threshold is N_RH / 8: the factor covers the
 * Misra-Gries undercount (<= threshold) and the table-reset boundary,
 * keeping the oracle-checked activation bound below N_RH.
 */
#pragma once

#include <vector>

#include "dram/spec.h"
#include "mitigation/misra_gries.h"
#include "mitigation/mitigation.h"

namespace bh {

/** Graphene mitigation mechanism. */
class Graphene : public IMitigation
{
  public:
    Graphene(unsigned n_rh, const DramSpec &spec);

    const char *name() const override { return "Graphene"; }

    void commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                    Cycle now) override;

    void saveState(StateWriter &w) const override;
    void loadState(StateReader &r) override;

    unsigned refreshThreshold() const { return threshold; }
    unsigned tableCapacity() const { return capacity; }

  private:
    unsigned threshold;  // bh-audit: skip(threshold) -- constructor config, keyed by ExperimentConfig
    unsigned capacity;   // bh-audit: skip(capacity) -- constructor config, keyed by ExperimentConfig
    Cycle resetPeriod;   // bh-audit: skip(resetPeriod) -- constructor config, keyed by ExperimentConfig
    Cycle lastReset = 0;
    std::vector<MisraGries> tables; ///< One per flat bank.
};

} // namespace bh
