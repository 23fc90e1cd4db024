/**
 * @file
 * Unit tests for src/cache: LLC functional model and the MSHR file with
 * per-thread quotas (BreakHammer's throttle point).
 */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cache/llc.h"
#include "cache/mshr.h"
#include "common/rng.h"

namespace bh {
namespace {

LlcConfig
tinyLlc()
{
    LlcConfig c;
    c.sizeBytes = 4096; // 64 lines.
    c.ways = 4;         // 16 sets.
    return c;
}

TEST(LlcTest, MissThenHit)
{
    Llc llc(tinyLlc());
    EXPECT_FALSE(llc.access(0x1000, false));
    llc.allocate(0x1000, false, nullptr);
    EXPECT_TRUE(llc.access(0x1000, false));
    EXPECT_EQ(llc.hits(), 1u);
    EXPECT_EQ(llc.misses(), 1u);
}

TEST(LlcTest, LruEvictsOldest)
{
    LlcConfig cfg = tinyLlc();
    Llc llc(cfg);
    // Fill one set: same set index, different tags. Set stride is
    // 16 sets * 64 B = 1024 B.
    for (unsigned i = 0; i < cfg.ways; ++i)
        llc.allocate(0x400ull * i * 16, false, nullptr);
    // Touch way 0 so way 1 becomes LRU... (touch tags in order except one).
    llc.access(0, false);
    Llc::Victim victim;
    llc.allocate(0x400ull * cfg.ways * 16, false, &victim);
    // The evicted line is not the recently touched one.
    EXPECT_NE(victim.writebackLine, 0u);
}

TEST(LlcTest, DirtyEvictionReportsWriteback)
{
    LlcConfig cfg = tinyLlc();
    Llc llc(cfg);
    llc.allocate(0x0, true, nullptr); // Dirty.
    for (unsigned i = 1; i < cfg.ways; ++i)
        llc.allocate(0x4000ull * i, false, nullptr); // Same set 0.
    Llc::Victim victim;
    llc.allocate(0x4000ull * cfg.ways, false, &victim);
    EXPECT_TRUE(victim.dirtyWriteback);
    EXPECT_EQ(victim.writebackLine, 0u);
    EXPECT_EQ(llc.writebacks(), 1u);
}

TEST(LlcTest, CleanEvictionNoWriteback)
{
    LlcConfig cfg = tinyLlc();
    Llc llc(cfg);
    for (unsigned i = 0; i < cfg.ways; ++i)
        llc.allocate(0x4000ull * i, false, nullptr);
    Llc::Victim victim;
    llc.allocate(0x4000ull * cfg.ways, false, &victim);
    EXPECT_FALSE(victim.dirtyWriteback);
}

TEST(LlcTest, WriteHitMarksDirty)
{
    LlcConfig cfg = tinyLlc();
    Llc llc(cfg);
    llc.allocate(0x0, false, nullptr);
    EXPECT_TRUE(llc.access(0x0, true)); // Now dirty.
    for (unsigned i = 1; i < cfg.ways; ++i)
        llc.allocate(0x4000ull * i, false, nullptr);
    Llc::Victim victim;
    llc.allocate(0x4000ull * cfg.ways, false, &victim);
    EXPECT_TRUE(victim.dirtyWriteback);
}

TEST(LlcTest, SetDirtyOnPresentLine)
{
    LlcConfig cfg = tinyLlc();
    Llc llc(cfg);
    llc.allocate(0x0, false, nullptr);
    llc.setDirty(0x0);
    for (unsigned i = 1; i < cfg.ways; ++i)
        llc.allocate(0x4000ull * i, false, nullptr);
    Llc::Victim victim;
    llc.allocate(0x4000ull * cfg.ways, false, &victim);
    EXPECT_TRUE(victim.dirtyWriteback);
}

TEST(LlcTest, ProbeDoesNotTouchLru)
{
    LlcConfig cfg = tinyLlc();
    Llc llc(cfg);
    llc.allocate(0x0, false, nullptr);
    for (unsigned i = 1; i < cfg.ways; ++i)
        llc.allocate(0x4000ull * i, false, nullptr);
    // Probe the oldest line: should NOT protect it from eviction.
    EXPECT_TRUE(llc.probe(0x0));
    Llc::Victim victim;
    llc.allocate(0x4000ull * cfg.ways, false, &victim);
    EXPECT_EQ(victim.writebackLine, 0u);
}

TEST(LlcTest, Table1Geometry)
{
    LlcConfig cfg; // Defaults: 8 MiB, 8-way.
    Llc llc(cfg);
    EXPECT_EQ(llc.numSets(), (8u << 20) / 64 / 8);
}

TEST(LlcTest, NeverFilledSetMissesAndStoresNothing)
{
    LlcConfig cfg; // Table 1: 16,384 sets.
    Llc llc(cfg);
    EXPECT_EQ(llc.filledSets(), 0u);
    EXPECT_FALSE(llc.access(0x1000, false));
    EXPECT_FALSE(llc.access(0x1000, true));
    EXPECT_FALSE(llc.probe(0x1000));
    llc.setDirty(0x1000);
    EXPECT_EQ(llc.misses(), 2u);
    EXPECT_EQ(llc.filledSets(), 0u);

    // Filling one set stores that set only; its neighbours still miss.
    Llc::Victim victim;
    llc.allocate(0x1000, true, &victim);
    EXPECT_FALSE(victim.dirtyWriteback);
    EXPECT_EQ(llc.filledSets(), 1u);
    EXPECT_TRUE(llc.probe(0x1000));
    EXPECT_FALSE(llc.access(0x1040, false));
    EXPECT_EQ(llc.filledSets(), 1u);
}

/** One step of a seeded access stream (the System's miss path). */
struct LlcOutcome
{
    bool hit;
    bool dirtyWriteback;
    Addr writebackLine;

    bool
    operator==(const LlcOutcome &o) const
    {
        return hit == o.hit && dirtyWriteback == o.dirtyWriteback &&
               writebackLine == o.writebackLine;
    }
};

LlcOutcome
step(Llc &llc, Addr line, bool is_write)
{
    LlcOutcome out{llc.access(line, is_write), false, 0};
    if (!out.hit) {
        Llc::Victim victim;
        llc.allocate(line, is_write, &victim);
        out.dirtyWriteback = victim.dirtyWriteback;
        out.writebackLine = victim.dirtyWriteback ? victim.writebackLine : 0;
    }
    return out;
}

std::string
llcState(Llc &llc)
{
    StateWriter w;
    StateIo io(w);
    llc.transfer(io);
    return w.take();
}

TEST(LlcTest, FilledSetsCountDistinctSetsAllocated)
{
    LlcConfig cfg; // Table 1: 16,384 sets.
    Llc llc(cfg);
    Rng rng(7);
    std::set<std::uint64_t> allocated;
    for (int i = 0; i < 6000; ++i) {
        Addr line = rng.nextBounded(1u << 24) << kCacheLineBits;
        if (!llc.access(line, false)) {
            llc.allocate(line, false, nullptr);
            allocated.insert((line >> kCacheLineBits) & (llc.numSets() - 1));
        }
        if (i % 500 == 0) {
            EXPECT_EQ(llc.filledSets(), allocated.size());
        }
    }
    EXPECT_EQ(llc.filledSets(), allocated.size());
    EXPECT_LT(llc.filledSets(), llc.numSets());
}

TEST(LlcTest, MidRunRestoreKeepsOutcomesAndBytes)
{
    // 128 sets of 8 ways under a 2,048-line working set: evictions, dirty
    // writebacks and never-filled sets all occur.
    LlcConfig cfg;
    cfg.sizeBytes = 64 << 10;
    Llc llc(cfg);
    Rng rng(11);
    auto next_line = [&rng] {
        // Skip every fourth set so part of the cache is never filled.
        Addr line = rng.nextBounded(2048);
        if (line % 4 == 3)
            --line;
        return line << kCacheLineBits;
    };
    for (int i = 0; i < 3000; ++i) {
        Addr line = next_line();
        step(llc, line, rng.nextBool(0.3));
        if (rng.nextBool(0.05))
            llc.setDirty(next_line());
    }
    ASSERT_LT(llc.filledSets(), llc.numSets());

    const std::string mid = llcState(llc);
    Llc restored(cfg);
    StateReader r(mid);
    StateIo io(r);
    restored.transfer(io);
    ASSERT_TRUE(r.atEnd());
    EXPECT_EQ(restored.filledSets(), llc.filledSets());
    EXPECT_EQ(llcState(restored), mid);

    for (int i = 0; i < 3000; ++i) {
        Addr line = next_line();
        bool is_write = rng.nextBool(0.3);
        ASSERT_TRUE(step(llc, line, is_write) ==
                    step(restored, line, is_write))
            << "access " << i;
    }
    EXPECT_EQ(llc.hits(), restored.hits());
    EXPECT_EQ(llc.misses(), restored.misses());
    EXPECT_EQ(llc.writebacks(), restored.writebacks());
    EXPECT_GT(llc.writebacks(), 0u);
    EXPECT_EQ(llcState(restored), llcState(llc));
}

TEST(MshrTest, AllocateAndRelease)
{
    MshrFile mshr(4, 2);
    EXPECT_TRUE(mshr.canAllocate(0));
    mshr.allocate(0x40, 0, false);
    EXPECT_TRUE(mshr.has(0x40));
    EXPECT_EQ(mshr.inflightOf(0), 1u);
    std::vector<MshrWaiter> waiters;
    EXPECT_FALSE(mshr.release(0x40, &waiters));
    EXPECT_EQ(mshr.inflightOf(0), 0u);
    EXPECT_FALSE(mshr.has(0x40));
}

TEST(MshrTest, GlobalCapacityLimit)
{
    MshrFile mshr(2, 1);
    mshr.allocate(0x40, 0, false);
    mshr.allocate(0x80, 0, false);
    EXPECT_FALSE(mshr.canAllocate(0));
}

TEST(MshrTest, QuotaLimitsThread)
{
    MshrFile mshr(8, 2);
    mshr.setQuota(0, 2);
    mshr.allocate(0x40, 0, false);
    mshr.allocate(0x80, 0, false);
    EXPECT_FALSE(mshr.canAllocate(0)); // Thread 0 over quota.
    EXPECT_TRUE(mshr.canAllocate(1));  // Thread 1 unaffected.
    EXPECT_EQ(mshr.quota(0), 2u);
    EXPECT_EQ(mshr.fullQuota(), 8u);
}

TEST(MshrTest, ZeroQuotaBlocksAllocation)
{
    MshrFile mshr(8, 1);
    mshr.setQuota(0, 0);
    EXPECT_FALSE(mshr.canAllocate(0));
}

TEST(MshrTest, MergeDoesNotConsumeQuota)
{
    MshrFile mshr(8, 2);
    mshr.setQuota(0, 1);
    mshr.allocate(0x40, 0, false);
    EXPECT_FALSE(mshr.canAllocate(0));
    // Secondary miss to the same line merges freely (paper §4.3).
    mshr.merge(0x40, MshrWaiter{0, 11, true}, false);
    mshr.merge(0x40, MshrWaiter{1, 22, true}, false);
    std::vector<MshrWaiter> waiters;
    mshr.release(0x40, &waiters);
    ASSERT_EQ(waiters.size(), 2u);
    EXPECT_EQ(waiters[0].token, 11u);
    EXPECT_EQ(waiters[1].token, 22u);
}

TEST(MshrTest, StoreMergeSetsAnyStore)
{
    MshrFile mshr(8, 1);
    mshr.allocate(0x40, 0, false);
    mshr.merge(0x40, MshrWaiter{0, 0, false}, true);
    std::vector<MshrWaiter> waiters;
    EXPECT_TRUE(mshr.release(0x40, &waiters));
    EXPECT_TRUE(waiters.empty()); // Store waiters need no wakeup.
}

TEST(MshrTest, QuotaRejectionCounter)
{
    MshrFile mshr(8, 1);
    EXPECT_EQ(mshr.quotaRejections(), 0u);
    mshr.noteQuotaRejection();
    mshr.noteQuotaRejection();
    EXPECT_EQ(mshr.quotaRejections(), 2u);
}

TEST(MshrTest, RestoringQuotaReenablesAllocation)
{
    MshrFile mshr(4, 1);
    mshr.setQuota(0, 0);
    EXPECT_FALSE(mshr.canAllocate(0));
    mshr.setQuota(0, mshr.fullQuota());
    EXPECT_TRUE(mshr.canAllocate(0));
}

} // namespace
} // namespace bh
