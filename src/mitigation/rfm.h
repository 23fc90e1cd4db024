/**
 * @file
 * Periodic Refresh Management (RFM) per the DDR5 standard (JESD79-5).
 *
 * The controller counts rolling activations per bank (RAA counter) and
 * issues an RFM command whenever the count reaches RAAIMT, giving the DRAM
 * chip a time window for internal preventive refreshes. The DRAM-side
 * mitigation is modelled with exact per-row counters (the paper's
 * methodology assumes a per-row activation counter in DRAM for RFM/PRAC,
 * §7): during an RFM window the chip refreshes the victims of every row
 * whose counter crossed the service threshold.
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dram/spec.h"
#include "mitigation/mitigation.h"

namespace bh {

/** RFM-based mitigation (controller + DRAM-side model). */
class Rfm : public IMitigation
{
  public:
    Rfm(unsigned n_rh, const DramSpec &spec);

    const char *name() const override { return "RFM"; }

    void commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                    Cycle now) override;

    void onPeriodicRefresh(unsigned rank, unsigned sweep_start,
                           unsigned sweep_rows, Cycle now) override;

    void transfer(StateIo &io) override;

    unsigned raaimt() const { return raaimt_; }
    unsigned serviceThreshold() const { return serviceTh; }

  private:
    // bh-audit: skip(raaimt_) -- constructor config, keyed by ExperimentConfig
    unsigned raaimt_;   ///< RAA Initial Management Threshold.
    // bh-audit: skip(serviceTh) -- constructor config, keyed by ExperimentConfig
    unsigned serviceTh; ///< DRAM-side per-row service threshold.
    std::vector<unsigned> raa; ///< Per-bank rolling activation counter.
    /** DRAM-side per-row activation counters, one map per bank. */
    std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> rowCounts;
    unsigned banksPerRank;  // bh-audit: skip(banksPerRank) -- constructor config, keyed by ExperimentConfig
    unsigned rowsPerBank;   // bh-audit: skip(rowsPerBank) -- constructor config, keyed by ExperimentConfig
};

} // namespace bh
