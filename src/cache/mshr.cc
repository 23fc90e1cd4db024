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
MshrFile::saveState(StateWriter &w) const
{
    w.tag("mshr");
    saveUnsignedVector(w, quotas);
    saveUnsignedVector(w, inflight);
    saveUnorderedMap(
        w, entries, [](StateWriter &sw, Addr a) { sw.u64(a); },
        [](StateWriter &sw, const Entry &e) {
            sw.u64(e.owner);
            sw.b(e.anyStore);
            saveVector(sw, e.waiters,
                       [](StateWriter &ew, const MshrWaiter &wr) {
                           ew.u64(wr.thread);
                           ew.u64(wr.token);
                           ew.b(wr.isLoad);
                       });
        });
    w.u64(quotaRejections_);
    w.u64(quotaWrites_);
}

void
MshrFile::loadState(StateReader &r)
{
    r.tag("mshr");
    std::vector<unsigned> q, inf;
    loadUnsignedVector(r, &q);
    loadUnsignedVector(r, &inf);
    if (!r.ok() || q.size() != quotas.size() ||
        inf.size() != inflight.size()) {
        r.fail();
        return;
    }
    quotas = std::move(q);
    inflight = std::move(inf);
    loadUnorderedMap(
        r, &entries, [](StateReader &sr, Addr *a) { *a = sr.u64(); },
        [](StateReader &sr, Entry *e) {
            e->owner = static_cast<ThreadId>(sr.u64());
            e->anyStore = sr.b();
            loadVector(sr, &e->waiters,
                       [](StateReader &er, MshrWaiter *wr) {
                           wr->thread = static_cast<ThreadId>(er.u64());
                           wr->token = er.u64();
                           wr->isLoad = er.b();
                       });
        });
    quotaRejections_ = r.u64();
    quotaWrites_ = r.u64();
}

} // namespace bh
