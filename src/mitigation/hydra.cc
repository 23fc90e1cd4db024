#include "mitigation/hydra.h"

#include <algorithm>

namespace bh {

Hydra::Hydra(unsigned n_rh, const DramSpec &spec, unsigned rows_per_group,
             unsigned rcc_entries)
    : rowTh(std::max(2u, n_rh / 4)),
      groupTh(std::max(1u, n_rh / 8)),
      rowsPerGroup(rows_per_group),
      rccCapacity(rcc_entries)
{
    // An RCT access behaves like one DRAM read: ACT + RD + PRE worth of
    // bank occupancy.
    rctAccessLatency = spec.timing.tRCD + spec.timing.tCL +
                       spec.timing.tBL + spec.timing.tRP;
    windowLength = spec.timing.tREFW / 2;
    unsigned groups_per_bank =
        (spec.org.rowsPerBank + rows_per_group - 1) / rows_per_group;
    gct.assign(spec.org.totalBanks(),
               std::vector<std::uint32_t>(groups_per_bank, 0));
}

void
Hydra::rccTouch(std::uint64_t row_key, unsigned flat_bank)
{
    auto it = rccIndex.find(row_key);
    if (it != rccIndex.end()) {
        rccLru.splice(rccLru.begin(), rccLru, it->second);
        return;
    }
    ++rccMisses_;
    // Fetching (and possibly writing back) an RCT entry occupies the bank
    // like a read and counts as a RowHammer-preventive action (§4.1).
    host->performTrackerAccess(flat_bank, rctAccessLatency, 1.0);
    if (rccLru.size() >= rccCapacity) {
        rccIndex.erase(rccLru.back());
        rccLru.pop_back();
    }
    rccLru.push_front(row_key);
    rccIndex[row_key] = rccLru.begin();
}

void
Hydra::commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                  Cycle now)
{
    (void)thread;
    if (now - windowStart >= windowLength) {
        for (auto &bank : gct)
            std::fill(bank.begin(), bank.end(), 0);
        rct.clear();
        rccLru.clear();
        rccIndex.clear();
        windowStart = now;
    }

    unsigned group = row / rowsPerGroup;
    std::uint32_t &gcount = gct[flat_bank][group];
    if (gcount < groupTh) {
        ++gcount;
        return;
    }

    // Escalated group: per-row tracking via RCT/RCC.
    std::uint64_t key = (static_cast<std::uint64_t>(flat_bank) << 32) | row;
    auto it = rct.find(key);
    if (it == rct.end()) {
        // Conservative initialization: the row may have contributed up to
        // the whole group count before escalation.
        it = rct.emplace(key, gcount).first;
    }
    rccTouch(key, flat_bank);
    if (++it->second >= rowTh) {
        it->second = 0;
        host->performVictimRefresh(flat_bank, row, 1.0);
    }
}

void
Hydra::transfer(StateIo &io)
{
    io.tag("hydra");
    io.u64(windowStart);
    io.u64(rccMisses_);
    io.count(gct.size());
    for (auto &bank : gct)
        io.u32s(bank);
    io.map(rct, [](StateIo &sub, std::uint64_t &key, std::uint32_t &count) {
        sub.u64(key);
        sub.u32(count);
    });
    // The RCC is an LRU list plus a key->iterator index; the list order
    // IS the replacement state, so it travels front to back and the
    // index is rebuilt on load.
    io.list(rccLru, [](StateIo &sub, std::uint64_t &key) { sub.u64(key); });
    if (io.loading()) {
        rccIndex.clear();
        for (auto it = rccLru.begin(); it != rccLru.end(); ++it)
            rccIndex[*it] = it;
    }
}

} // namespace bh
