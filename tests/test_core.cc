/**
 * @file
 * Unit tests for src/core: window/retire mechanics, memory outcomes, and
 * the backpressure that makes MSHR-quota throttling effective.
 */
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <queue>

#include "core/core.h"

namespace bh {
namespace {

/** Scripted trace: replays a fixed record list, then loops. */
class ScriptedTrace : public TraceSource
{
  public:
    explicit ScriptedTrace(std::vector<TraceRecord> records)
        : records_(std::move(records))
    {}

    TraceRecord
    next() override
    {
        TraceRecord r = records_[pos % records_.size()];
        ++pos;
        return r;
    }

    const std::string &name() const override { return name_; }

  private:
    std::vector<TraceRecord> records_;
    std::size_t pos = 0;
    std::string name_ = "scripted";
};

/** Controllable memory: scripts outcomes and records calls. */
class FakeMemory : public ICoreMemory
{
  public:
    AccessOutcome
    load(ThreadId, Addr, bool, std::uint64_t token) override
    {
        ++loads;
        if (outcome == AccessOutcome::kQueued)
            pending.push(token);
        return outcome;
    }

    AccessOutcome
    store(ThreadId, Addr, bool) override
    {
        ++stores;
        return outcome == AccessOutcome::kQueued ? AccessOutcome::kHit
                                                 : outcome;
    }

    AccessOutcome outcome = AccessOutcome::kHit;
    std::queue<std::uint64_t> pending;
    int loads = 0;
    int stores = 0;
};

CoreConfig
smallCore()
{
    CoreConfig c;
    c.windowSize = 8;
    c.width = 4;
    c.llcHitLatency = 10;
    return c;
}

TEST(CoreTest, PureComputeRetiresAtFullWidth)
{
    // One access per 99 bubbles, all hits: IPC should approach width=4.
    ScriptedTrace trace({TraceRecord{99, false, false, 0x40}});
    FakeMemory mem;
    CoreConfig cfg;
    Core core(0, &trace, &mem, cfg, true);
    core.setTarget(4000);
    Cycle now = 0;
    while (!core.reachedTarget() && now < 100000)
        core.tick(now++);
    ASSERT_TRUE(core.reachedTarget());
    double ipc = 4000.0 / static_cast<double>(core.finishCycle());
    EXPECT_GT(ipc, 3.0);
}

TEST(CoreTest, PendingLoadBlocksRetirementUntilCallback)
{
    ScriptedTrace trace({TraceRecord{0, false, false, 0x40}});
    FakeMemory mem;
    mem.outcome = AccessOutcome::kQueued;
    Core core(0, &trace, &mem, smallCore(), true);

    // Window (8 entries) fills with pending loads; nothing retires.
    for (Cycle t = 0; t < 20; ++t)
        core.tick(t);
    EXPECT_EQ(core.retired(), 0u);
    EXPECT_EQ(mem.pending.size(), 8u);

    // Complete them all; retirement resumes.
    Cycle t = 20;
    while (!mem.pending.empty()) {
        core.completeLoad(mem.pending.front(), t);
        mem.pending.pop();
    }
    core.tick(++t);
    core.tick(++t);
    core.tick(++t);
    EXPECT_GE(core.retired(), 8u);
}

TEST(CoreTest, RejectedAccessStallsIssue)
{
    ScriptedTrace trace({TraceRecord{0, false, false, 0x40}});
    FakeMemory mem;
    mem.outcome = AccessOutcome::kRejected;
    Core core(0, &trace, &mem, smallCore(), true);
    for (Cycle t = 0; t < 50; ++t)
        core.tick(t);
    EXPECT_EQ(core.retired(), 0u);
    EXPECT_GE(core.rejectStallCycles(), 49u);
    // Once memory accepts, progress resumes.
    mem.outcome = AccessOutcome::kHit;
    for (Cycle t = 50; t < 100; ++t)
        core.tick(t);
    EXPECT_GT(core.retired(), 0u);
}

TEST(CoreTest, StoresRetireWithoutCallback)
{
    ScriptedTrace trace({TraceRecord{0, true, false, 0x40}});
    FakeMemory mem;
    Core core(0, &trace, &mem, smallCore(), true);
    for (Cycle t = 0; t < 20; ++t)
        core.tick(t);
    EXPECT_GT(core.retired(), 0u);
    EXPECT_GT(mem.stores, 0);
}

TEST(CoreTest, HitLatencyDelaysRetirement)
{
    // A single load with no bubbles: retires after llcHitLatency.
    ScriptedTrace trace({TraceRecord{1000000, false, false, 0x40}});
    FakeMemory mem;
    CoreConfig cfg = smallCore();
    cfg.llcHitLatency = 10;
    Core core(0, &trace, &mem, cfg, true);
    // First record: bubbles first, but the scripted record has huge
    // bubbles; use a load-first trace instead.
    ScriptedTrace trace2({TraceRecord{0, false, false, 0x40}});
    FakeMemory mem2;
    Core core2(0, &trace2, &mem2, cfg, true);
    core2.tick(0); // Load issued at cycle 0; done at 10.
    for (Cycle t = 1; t < 10; ++t)
        core2.tick(t);
    std::uint64_t before = core2.retired();
    core2.tick(10);
    core2.tick(11);
    EXPECT_GT(core2.retired(), before);
}

TEST(CoreTest, MemoryAccessCountTracksTrace)
{
    ScriptedTrace trace({TraceRecord{3, false, false, 0x40},
                         TraceRecord{3, true, false, 0x80}});
    FakeMemory mem;
    Core core(0, &trace, &mem, smallCore(), true);
    core.setTarget(400);
    Cycle now = 0;
    while (!core.reachedTarget() && now < 10000)
        core.tick(now++);
    // 1 access per 4 instructions.
    EXPECT_NEAR(static_cast<double>(core.memoryAccesses()), 100.0, 8.0);
}

TEST(CoreTest, TargetLatchesFinishCycleOnce)
{
    ScriptedTrace trace({TraceRecord{9, false, false, 0x40}});
    FakeMemory mem;
    Core core(0, &trace, &mem, smallCore(), true);
    core.setTarget(100);
    Cycle now = 0;
    while (!core.reachedTarget() && now < 10000)
        core.tick(now++);
    Cycle finish = core.finishCycle();
    for (Cycle t = now; t < now + 50; ++t)
        core.tick(t);
    EXPECT_EQ(core.finishCycle(), finish);
    EXPECT_GT(core.retired(), 100u);
}

TEST(CoreTest, OddWindowRingKeepsRetireOrderAndTokensAcrossWraps)
{
    // A 5-entry window with width 4 wraps at a different slot on every
    // pass. Bubbles and loads alternate, so load tokens are the odd issue
    // indices, and loads complete youngest first, so the head load holds
    // up everything behind it. A reference model of the window predicts
    // the tokens issued and the retire count after every tick.
    ScriptedTrace trace({TraceRecord{1, false, false, 0x40}});
    FakeMemory mem;
    mem.outcome = AccessOutcome::kQueued;
    CoreConfig cfg = smallCore();
    cfg.windowSize = 5;
    Core core(0, &trace, &mem, cfg, true);

    struct Slot
    {
        std::uint64_t index;
        bool done;
    };
    std::deque<Slot> model; // Window contents, oldest first.
    std::uint64_t issued = 0;
    std::uint64_t retired = 0;
    for (Cycle t = 0; t < 200; ++t) {
        if (t % 2 == 0) {
            // Complete the youngest load still waiting for its fill.
            for (auto it = model.rbegin(); it != model.rend(); ++it)
                if (!it->done) {
                    core.completeLoad(it->index, t);
                    it->done = true;
                    break;
                }
        }
        core.tick(t);

        for (unsigned i = 0; i < cfg.width && !model.empty() &&
                             model.front().done;
             ++i) {
            model.pop_front();
            ++retired;
        }
        for (unsigned i = 0; i < cfg.width && model.size() < cfg.windowSize;
             ++i) {
            bool is_load = issued % 2 == 1;
            model.push_back({issued, !is_load});
            if (is_load) {
                ASSERT_FALSE(mem.pending.empty()) << t;
                EXPECT_EQ(mem.pending.front(), issued) << t;
                mem.pending.pop();
            }
            ++issued;
        }
        EXPECT_TRUE(mem.pending.empty()) << t;
        ASSERT_EQ(core.retired(), retired) << t;
    }
    EXPECT_GT(retired, 10u * cfg.windowSize); // Ten wraps or more.
}

TEST(CoreTest, BenignFlagIsStored)
{
    ScriptedTrace trace({TraceRecord{0, false, false, 0}});
    FakeMemory mem;
    Core benign(0, &trace, &mem, smallCore(), true);
    Core attacker(1, &trace, &mem, smallCore(), false);
    EXPECT_TRUE(benign.benign());
    EXPECT_FALSE(attacker.benign());
}

} // namespace
} // namespace bh
