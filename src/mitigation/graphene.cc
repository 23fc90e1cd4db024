#include "mitigation/graphene.h"

#include <algorithm>

namespace bh {

Graphene::Graphene(unsigned n_rh, const DramSpec &spec)
    : threshold(std::max(1u, n_rh / 8))
{
    // Max activations a bank can absorb within one reset period bounds the
    // number of rows that can reach the threshold, which sizes the table.
    resetPeriod = spec.timing.tREFW / 2;
    double max_acts = static_cast<double>(resetPeriod) /
                      static_cast<double>(spec.timing.tRC);
    auto cap = static_cast<unsigned>(max_acts / threshold) + 1;
    capacity = std::clamp(cap, 64u, 262144u);
    tables.assign(spec.org.totalBanks(), MisraGries(capacity));
}

void
Graphene::commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
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
        host->performVictimRefresh(flat_bank, row, 1.0);
    }
}

void
Graphene::transfer(StateIo &io)
{
    io.tag("graphene");
    io.u64(lastReset);
    io.count(tables.size());
    for (MisraGries &t : tables)
        t.transfer(io);
}

} // namespace bh
