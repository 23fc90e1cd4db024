#include "mitigation/aqua.h"

#include <algorithm>

namespace bh {

Aqua::Aqua(unsigned n_rh, const DramSpec &spec)
    : threshold(std::max(1u, n_rh / 8))
{
    resetPeriod = spec.timing.tREFW / 2;
    double max_acts = static_cast<double>(resetPeriod) /
                      static_cast<double>(spec.timing.tRC);
    auto cap = static_cast<unsigned>(max_acts / threshold) + 1;
    tables.assign(spec.org.totalBanks(),
                  MisraGries(std::clamp(cap, 64u, 262144u)));
}

void
Aqua::commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                 Cycle now)
{
    (void)thread;
    if (now - lastReset >= resetPeriod) {
        for (MisraGries &t : tables)
            t.clear();
        lastReset = now;
    }
    MisraGries &table = tables[flat_bank];
    if (table.increment(row) >= threshold) {
        table.resetRow(row);
        ++migrations_;
        host->performMigration(flat_bank, row);
    }
}

void
Aqua::transfer(StateIo &io)
{
    io.tag("aqua");
    io.u64(lastReset);
    io.u64(migrations_);
    io.count(tables.size());
    for (MisraGries &t : tables)
        t.transfer(io);
}

} // namespace bh
