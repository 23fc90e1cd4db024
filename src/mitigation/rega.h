/**
 * @file
 * REGA: refresh-generating activations (Marazzi et al., S&P'23).
 *
 * REGA modifies the DRAM chip so each subarray refreshes victim rows in
 * parallel with normal activations, using a second row buffer. Protection
 * is by construction — there are no discrete preventive actions — but the
 * parallel refreshes lengthen the activation cycle. We model that as an
 * N_RH-dependent stretch of tRAS applied to the device spec (see
 * regaApplyTiming); the mitigation object itself only implements the score
 * attribution BreakHammer uses for REGA: one point per REGA_T activations
 * performed by a thread (§4.1).
 */
#pragma once

#include <vector>

#include "dram/spec.h"
#include "mitigation/mitigation.h"

namespace bh {

/** Stretch @p spec's tRAS for REGA operation at threshold @p n_rh. */
void regaApplyTiming(DramSpec *spec, unsigned n_rh);

/** REGA mitigation mechanism (score attribution only; see file docs). */
class Rega : public IMitigation
{
  public:
    Rega(unsigned n_rh, unsigned num_threads);

    const char *name() const override { return "REGA"; }

    void commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                    Cycle now) override;

    void transfer(StateIo &io) override;

    unsigned scorePeriod() const { return regaT; }

  private:
    // bh-audit: skip(regaT) -- constructor config, keyed by ExperimentConfig
    unsigned regaT; ///< Activations per attributed score point.
    std::vector<std::uint64_t> threadActs;
};

} // namespace bh
