#include "cache/mshr.h"

namespace bh {

MshrFile::MshrFile(unsigned num_entries, unsigned num_threads)
    : numEntries(num_entries),
      quotas(num_threads, num_entries),
      inflight(num_threads, 0)
{
    entries.reserve(num_entries * 2);
}

void
MshrFile::allocate(Addr line_addr, ThreadId thread, bool is_write)
{
    BH_ASSERT(canAllocate(thread), "MSHR allocate without capacity");
    BH_ASSERT(!has(line_addr), "MSHR allocate of tracked line");
    Entry entry;
    entry.owner = thread;
    entry.anyStore = is_write;
    entries.emplace(line_addr, std::move(entry));
    ++inflight[thread];
    ++changes_;
}

void
MshrFile::merge(Addr line_addr, const MshrWaiter &waiter, bool is_write)
{
    auto it = entries.find(line_addr);
    BH_ASSERT(it != entries.end(), "MSHR merge into missing entry");
    if (is_write)
        it->second.anyStore = true;
    if (waiter.isLoad)
        it->second.waiters.push_back(waiter);
}

bool
MshrFile::release(Addr line_addr, std::vector<MshrWaiter> *waiters)
{
    auto it = entries.find(line_addr);
    BH_ASSERT(it != entries.end(), "MSHR release of missing entry");
    bool any_store = it->second.anyStore;
    if (waiters != nullptr)
        *waiters = std::move(it->second.waiters);
    ThreadId owner = it->second.owner;
    BH_ASSERT(inflight[owner] > 0, "MSHR inflight underflow");
    --inflight[owner];
    entries.erase(it);
    ++changes_;
    return any_store;
}

void
MshrFile::transfer(StateIo &io)
{
    io.tag("mshr");
    io.u64s(quotas);
    io.u64s(inflight);
    io.map(entries, [](StateIo &sub, Addr &line, Entry &e) {
        sub.u64(line);
        sub.u64(e.owner);
        sub.b(e.anyStore);
        sub.list(e.waiters, [](StateIo &wio, MshrWaiter &waiter) {
            wio.u64(waiter.thread);
            wio.u64(waiter.token);
            wio.b(waiter.isLoad);
        });
    });
    io.u64(quotaRejections_);
    if (io.loading())
        io.require(inflightMatchesOwners());
}

bool
MshrFile::inflightMatchesOwners() const
{
    // A release indexes and decrements a thread's inflight count by the
    // entry's owner.
    std::vector<unsigned> owned(inflight.size(), 0);
    for (const auto &[line, entry] : entries) {
        if (entry.owner >= owned.size())
            return false;
        ++owned[entry.owner];
    }
    return owned == inflight;
}

} // namespace bh
