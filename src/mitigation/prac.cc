#include "mitigation/prac.h"

#include <algorithm>

namespace bh {

void
pracApplyTiming(DramSpec *spec)
{
    // The per-row counter is read-modified-written during precharge; the
    // JEDEC PRAC proposal lengthens the row cycle by a few nanoseconds.
    spec->timingNs.tRP += 4.0;
    spec->refreshTiming();
}

Prac::Prac(unsigned n_rh, const DramSpec &spec, unsigned abo_rfms)
    : alertTh(std::max(2u, n_rh / 4)),
      aboRfms(abo_rfms),
      rowCounts(spec.org.totalBanks()),
      banksPerRank(spec.org.banksPerRank()),
      rowsPerBank(spec.org.rowsPerBank)
{}

void
Prac::commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                 Cycle now)
{
    (void)thread;
    (void)now;
    std::uint32_t &count = rowCounts[flat_bank][row];
    if (++count < alertTh)
        return;
    // alert_n: the controller performs the ABO protocol; the chip
    // refreshes this row's victims during the back-off and resets its
    // counter.
    ++alerts_;
    host->performAlertBackoff(aboRfms, 1.0);
    host->notifyRowProtected(flat_bank, row);
    rowCounts[flat_bank].erase(row);
}

void
Prac::onPeriodicRefresh(unsigned rank, unsigned sweep_start,
                        unsigned sweep_rows, Cycle now)
{
    (void)now;
    unsigned base_bank = rank * banksPerRank;
    for (unsigned b = 0; b < banksPerRank; ++b) {
        auto &bank_counts = rowCounts[base_bank + b];
        for (unsigned r = 0; r < sweep_rows; ++r)
            bank_counts.erase((sweep_start + r) % rowsPerBank);
    }
}

void
Prac::transfer(StateIo &io)
{
    io.tag("prac");
    io.u64(alerts_);
    io.count(rowCounts.size());
    for (auto &bank_counts : rowCounts)
        io.map(bank_counts,
               [](StateIo &sub, std::uint32_t &row, std::uint32_t &count) {
                   sub.u32(row);
                   sub.u32(count);
               });
}

} // namespace bh
