#include "mitigation/twice.h"

#include <algorithm>

namespace bh {

Twice::Twice(unsigned n_rh, const DramSpec &spec)
    : threshold(std::max(1u, n_rh / 4)), tables(spec.org.totalBanks())
{
    // Pruning happens every 16 REF intervals; the prune rate is the pace a
    // row must sustain to ever reach the trigger threshold in a window.
    refsPerPrune = 16;
    double periods_per_window =
        static_cast<double>(spec.timing.tREFW) /
        (static_cast<double>(spec.timing.tREFI) * refsPerPrune);
    pruneRate = static_cast<double>(threshold) / periods_per_window;
    windowLength = spec.timing.tREFW / 2;
}

void
Twice::commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                  Cycle now)
{
    (void)thread;
    if (now - windowStart >= windowLength) {
        for (auto &t : tables)
            t.clear();
        windowStart = now;
    }
    Entry &e = tables[flat_bank][row];
    if (++e.acts >= threshold) {
        e.acts = 0;
        host->performVictimRefresh(flat_bank, row, 1.0);
    }
}

void
Twice::onPeriodicRefresh(unsigned rank, unsigned sweep_start,
                         unsigned sweep_rows, Cycle now)
{
    (void)rank;
    (void)sweep_start;
    (void)sweep_rows;
    (void)now;
    if (++refsSeen < refsPerPrune)
        return;
    refsSeen = 0;
    for (auto &table : tables) {
        for (auto it = table.begin(); it != table.end();) {
            Entry &e = it->second;
            ++e.life;
            if (static_cast<double>(e.acts) <
                pruneRate * static_cast<double>(e.life)) {
                it = table.erase(it);
            } else {
                ++it;
            }
        }
    }
}

void
Twice::transfer(StateIo &io)
{
    io.tag("twice");
    io.u64(refsSeen);
    io.u64(windowStart);
    io.count(tables.size());
    for (auto &table : tables)
        io.map(table, [](StateIo &sub, std::uint32_t &row, Entry &e) {
            sub.u32(row);
            sub.u32(e.acts);
            sub.u32(e.life);
        });
}

} // namespace bh
