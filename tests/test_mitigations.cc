/**
 * @file
 * Unit tests for src/mitigation: each trigger algorithm in isolation
 * against a recording host, plus the Misra-Gries and counting-Bloom-filter
 * building blocks.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"
#include "mitigation/aqua.h"
#include "mitigation/blockhammer.h"
#include "mitigation/factory.h"
#include "mitigation/graphene.h"
#include "mitigation/hydra.h"
#include "mitigation/misra_gries.h"
#include "mitigation/mitigation.h"
#include "mitigation/para.h"
#include "mitigation/prac.h"
#include "mitigation/rega.h"
#include "mitigation/rfm.h"
#include "mitigation/twice.h"

namespace bh {
namespace {

/** Records every host call a mechanism makes. */
class RecordingHost : public IMitigationHost
{
  public:
    void
    performVictimRefresh(unsigned bank, unsigned row, double w) override
    {
        ++vrrs;
        lastVrrBank = bank;
        lastVrrRow = row;
        weight += w;
        protectedRows[{bank, row}]++;
    }
    void
    performMigration(unsigned bank, unsigned row) override
    {
        ++migrations;
        protectedRows[{bank, row}]++;
    }
    void performRfm(unsigned, double w) override
    {
        ++rfms;
        weight += w;
    }
    void performAlertBackoff(unsigned n, double w) override
    {
        ++alerts;
        aboRfms += n;
        weight += w;
    }
    void performTrackerAccess(unsigned, Cycle, double w) override
    {
        ++trackerAccesses;
        weight += w;
    }
    void
    notifyRowProtected(unsigned bank, unsigned row) override
    {
        protectedRows[{bank, row}]++;
    }
    void creditDirectScore(ThreadId t, double amount) override
    {
        directScores[t] += amount;
    }

    unsigned vrrs = 0, migrations = 0, rfms = 0, alerts = 0;
    unsigned aboRfms = 0, trackerAccesses = 0;
    unsigned lastVrrBank = 0, lastVrrRow = 0;
    double weight = 0;
    std::map<std::pair<unsigned, unsigned>, unsigned> protectedRows;
    std::map<ThreadId, double> directScores;
};

TEST(MisraGriesTest, TracksFrequentElement)
{
    MisraGries mg(4);
    for (int i = 0; i < 100; ++i)
        mg.increment(7);
    EXPECT_EQ(mg.estimate(7), 100u);
}

TEST(MisraGriesTest, DecrementAllOnOverflow)
{
    MisraGries mg(2);
    mg.increment(1);
    mg.increment(2);
    // Table full: a third distinct element decrements everything.
    EXPECT_EQ(mg.increment(3), 0u);
    EXPECT_EQ(mg.estimate(1), 0u);
    EXPECT_EQ(mg.estimate(2), 0u);
    // Now slots are stale: the next insert is admitted.
    EXPECT_EQ(mg.increment(4), 1u);
}

TEST(MisraGriesTest, UndercountBounded)
{
    // Classic MG bound: estimate >= true_count - total/(capacity+1).
    const unsigned capacity = 8;
    MisraGries mg(capacity);
    const int heavy_count = 600;
    const int noise_count = 1000;
    unsigned x = 12345;
    for (int i = 0; i < heavy_count + noise_count; ++i) {
        if (i % ((heavy_count + noise_count) / heavy_count) == 0) {
            mg.increment(42);
        } else {
            x = x * 1664525u + 1013904223u;
            mg.increment(1000 + (x % 5000));
        }
    }
    double bound = static_cast<double>(heavy_count) -
                   static_cast<double>(heavy_count + noise_count) /
                       (capacity + 1);
    EXPECT_GE(static_cast<double>(mg.estimate(42)), bound - 1);
}

TEST(MisraGriesTest, ResetRowZeroesCounter)
{
    MisraGries mg(4);
    for (int i = 0; i < 10; ++i)
        mg.increment(3);
    mg.resetRow(3);
    EXPECT_EQ(mg.estimate(3), 0u);
    EXPECT_EQ(mg.increment(3), 1u);
}

TEST(MisraGriesTest, ClearDropsEverything)
{
    MisraGries mg(4);
    mg.increment(1);
    mg.clear();
    EXPECT_EQ(mg.estimate(1), 0u);
    EXPECT_EQ(mg.trackedRows(), 0u);
}

TEST(MisraGriesTest, MatchesLiveRowModel)
{
    // Reference: only live rows (count > 0) and the offset are state, and
    // a row is admitted iff fewer than capacity rows are live. If the
    // summary matches this model, which stale slot reclaimOne() drops
    // (and so the hash table's iteration order and bucket count) cannot
    // reach any return value.
    const unsigned capacity = 8;
    MisraGries mg(capacity);
    std::map<std::uint64_t, std::uint64_t> live; // row -> weight > offset
    std::set<std::uint64_t> admitted;            // since the last clear
    std::uint64_t offset = 0;
    unsigned reclaims = 0;
    Rng rng(2024);
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t row = rng.nextBounded(32);
        const std::uint64_t op = rng.nextBounded(1000);
        if (op < 700) {
            std::uint64_t expect = 0;
            if (auto it = live.find(row); it != live.end()) {
                expect = ++it->second - offset;
            } else if (live.size() < capacity) {
                // A row never admitted since the clear is absent from a
                // full table, so admitting it must reclaim a stale slot.
                if (mg.trackedRows() == capacity && !admitted.contains(row))
                    ++reclaims;
                live[row] = offset + 1;
                admitted.insert(row);
                expect = 1;
            } else {
                ++offset;
                std::erase_if(live, [&](const auto &kv) {
                    return kv.second <= offset;
                });
            }
            ASSERT_EQ(mg.increment(row), expect) << "step " << step;
        } else if (op < 850) {
            auto it = live.find(row);
            ASSERT_EQ(mg.estimate(row),
                      it == live.end() ? 0 : it->second - offset)
                << "step " << step;
        } else if (op < 998) {
            mg.resetRow(row);
            live.erase(row);
        } else {
            mg.clear();
            live.clear();
            admitted.clear();
            offset = 0;
        }
        ASSERT_EQ(mg.trackedRows(),
                  std::min<std::size_t>(capacity, admitted.size()))
            << "step " << step;
    }
    EXPECT_GE(reclaims, 100u);
}

TEST(ParaTest, ProbabilityDerivation)
{
    // (1 - p)^N_RH <= 1e-15  =>  p ~ 34.5 / N_RH.
    double p1k = Para::deriveProbability(1000, 1e-15);
    EXPECT_NEAR(p1k, 34.5 / 1000.0, 0.002);
    double p64 = Para::deriveProbability(64, 1e-15);
    EXPECT_GT(p64, p1k);
    EXPECT_LE(Para::deriveProbability(1, 1e-15), 1.0);
}

TEST(ParaTest, TriggerRateMatchesProbability)
{
    RecordingHost host;
    Para para(1000);
    para.setHost(&host);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        para.commitAct(0, 5, 0, i);
    double rate = static_cast<double>(host.vrrs) / n;
    EXPECT_NEAR(rate, para.probability(), para.probability() * 0.1);
}

TEST(GrapheneTest, TriggersAtThreshold)
{
    DramSpec spec = DramSpec::ddr5();
    RecordingHost host;
    Graphene g(1024, spec);
    g.setHost(&host);
    for (unsigned i = 0; i < g.refreshThreshold() - 1; ++i)
        g.commitAct(0, 7, 0, i);
    EXPECT_EQ(host.vrrs, 0u);
    g.commitAct(0, 7, 0, 1000);
    EXPECT_EQ(host.vrrs, 1u);
    EXPECT_EQ(host.lastVrrRow, 7u);
    // Counter reset: the next threshold-1 activations do not trigger.
    for (unsigned i = 0; i < g.refreshThreshold() - 1; ++i)
        g.commitAct(0, 7, 0, 2000 + i);
    EXPECT_EQ(host.vrrs, 1u);
}

TEST(GrapheneTest, IndependentPerBank)
{
    DramSpec spec = DramSpec::ddr5();
    RecordingHost host;
    Graphene g(1024, spec);
    g.setHost(&host);
    for (unsigned i = 0; i < g.refreshThreshold(); ++i)
        g.commitAct(0, 7, 0, i);
    EXPECT_EQ(host.vrrs, 1u);
    for (unsigned i = 0; i + 1 < g.refreshThreshold(); ++i)
        g.commitAct(1, 7, 0, i);
    EXPECT_EQ(host.vrrs, 1u); // Bank 1's counter is separate.
}

TEST(GrapheneTest, CapacityScalesInverselyWithThreshold)
{
    DramSpec spec = DramSpec::ddr5();
    Graphene coarse(4096, spec), fine(64, spec);
    EXPECT_GT(fine.tableCapacity(), coarse.tableCapacity());
}

TEST(TwiceTest, TriggersAtThreshold)
{
    DramSpec spec = DramSpec::ddr5();
    RecordingHost host;
    Twice tw(1024, spec);
    tw.setHost(&host);
    for (unsigned i = 0; i < tw.triggerThreshold(); ++i)
        tw.commitAct(2, 9, 0, i);
    EXPECT_EQ(host.vrrs, 1u);
    EXPECT_EQ(host.lastVrrBank, 2u);
}

TEST(TwiceTest, PrunesColdEntries)
{
    DramSpec spec = DramSpec::ddr5();
    RecordingHost host;
    Twice tw(1024, spec);
    tw.setHost(&host);
    tw.commitAct(0, 5, 0, 0); // One lonely activation.
    EXPECT_EQ(tw.tableSize(0), 1u);
    // Many pruning periods with no further activity.
    for (int i = 0; i < 64; ++i)
        tw.onPeriodicRefresh(0, 0, 8, 1000 + i);
    EXPECT_EQ(tw.tableSize(0), 0u);
}

TEST(HydraTest, GroupEscalationThenRowTrigger)
{
    DramSpec spec = DramSpec::ddr5();
    RecordingHost host;
    Hydra hy(1024, spec);
    hy.setHost(&host);
    // Hammer one row: first fills the group counter, then the per-row
    // counter (initialized at the group count) rises to the row threshold.
    unsigned acts_needed = hy.rowThreshold();
    for (unsigned i = 0; i < acts_needed; ++i)
        hy.commitAct(0, 100, 0, i);
    EXPECT_EQ(host.vrrs, 1u);
    // Escalated tracking performed RCT accesses (RCC cold miss >= 1).
    EXPECT_GE(host.trackerAccesses, 1u);
    EXPECT_GE(hy.rccMisses(), 1u);
}

TEST(HydraTest, GroupCounterSharedAcrossRows)
{
    DramSpec spec = DramSpec::ddr5();
    RecordingHost host;
    Hydra hy(1024, spec);
    hy.setHost(&host);
    // Spread group-threshold activations over two rows of one group: the
    // group escalates, both rows' counters start at the group count.
    unsigned gt = hy.groupThreshold();
    for (unsigned i = 0; i < gt; ++i)
        hy.commitAct(0, i % 2, 0, i);
    // Now each row needs only (rowTh - groupTh) more activations.
    unsigned more = hy.rowThreshold() - gt;
    for (unsigned i = 0; i < more; ++i)
        hy.commitAct(0, 0, 0, 1000 + i);
    EXPECT_EQ(host.vrrs, 1u);
}

TEST(AquaTest, MigratesAtThreshold)
{
    DramSpec spec = DramSpec::ddr5();
    RecordingHost host;
    Aqua aq(1024, spec);
    aq.setHost(&host);
    for (unsigned i = 0; i < aq.migrationThreshold(); ++i)
        aq.commitAct(0, 11, 0, i);
    EXPECT_EQ(host.migrations, 1u);
    EXPECT_EQ(aq.migrations(), 1u);
}

TEST(RegaTest, TimingStretchGrowsAsNrhShrinks)
{
    DramSpec base = DramSpec::ddr5();
    DramSpec at1k = base, at64 = base;
    regaApplyTiming(&at1k, 1024);
    regaApplyTiming(&at64, 64);
    EXPECT_GT(at1k.timing.tRAS, base.timing.tRAS);
    EXPECT_GT(at64.timing.tRAS, at1k.timing.tRAS);
}

TEST(RegaTest, DirectScoreEveryRegaT)
{
    RecordingHost host;
    Rega rega(1024, 4);
    rega.setHost(&host);
    for (unsigned i = 0; i < rega.scorePeriod() * 3; ++i)
        rega.commitAct(0, 1, 2, i);
    EXPECT_DOUBLE_EQ(host.directScores[2], 3.0);
    EXPECT_EQ(host.directScores.count(0), 0u);
}

TEST(RfmTest, IssuesRfmEveryRaaimt)
{
    DramSpec spec = DramSpec::ddr5();
    RecordingHost host;
    Rfm rfm(1024, spec);
    rfm.setHost(&host);
    for (unsigned i = 0; i < rfm.raaimt() * 3; ++i)
        rfm.commitAct(0, i % 50, 0, i);
    EXPECT_EQ(host.rfms, 3u);
}

TEST(RfmTest, ServicesHotRowDuringRfm)
{
    DramSpec spec = DramSpec::ddr5();
    RecordingHost host;
    Rfm rfm(1024, spec);
    rfm.setHost(&host);
    // Hammer one row exclusively: after serviceThreshold activations the
    // next RFM must protect it.
    for (unsigned i = 0; i < rfm.serviceThreshold() + rfm.raaimt(); ++i)
        rfm.commitAct(0, 33, 0, i);
    EXPECT_GE((host.protectedRows[{0u, 33u}]), 1u);
}

TEST(PracTest, AlertAtThreshold)
{
    DramSpec spec = DramSpec::ddr5();
    RecordingHost host;
    Prac prac(1024, spec);
    prac.setHost(&host);
    for (unsigned i = 0; i + 1 < prac.alertThreshold(); ++i)
        prac.commitAct(0, 77, 0, i);
    EXPECT_EQ(host.alerts, 0u);
    prac.commitAct(0, 77, 0, 999);
    EXPECT_EQ(host.alerts, 1u);
    EXPECT_EQ(host.aboRfms, 4u);
    EXPECT_GE((host.protectedRows[{0u, 77u}]), 1u);
    EXPECT_EQ(prac.alerts(), 1u);
}

TEST(PracTest, TimingCostApplied)
{
    DramSpec base = DramSpec::ddr5();
    DramSpec prac_spec = base;
    pracApplyTiming(&prac_spec);
    EXPECT_GT(prac_spec.timing.tRP, base.timing.tRP);
}

TEST(CbfTest, NeverUndercounts)
{
    CountingBloomFilter cbf(256, 4);
    unsigned x = 777;
    std::map<std::uint64_t, unsigned> truth;
    for (int i = 0; i < 2000; ++i) {
        x = x * 1664525u + 1013904223u;
        std::uint64_t key = x % 100;
        cbf.increment(key);
        ++truth[key];
    }
    for (const auto &[key, count] : truth)
        EXPECT_GE(cbf.estimate(key), count);
}

TEST(BlockHammerTest, BlacklistsAndDelays)
{
    DramSpec spec = DramSpec::ddr5();
    BlockHammer bh(1024, spec, 4);
    Cycle now = 0;
    for (unsigned i = 0; i < bh.blacklistThreshold(); ++i)
        bh.commitAct(0, 5, 0, now++);
    // Row 5 is blacklisted: its next ACT is pushed out by tDelay.
    Cycle release = bh.probeActReleaseCycle(0, 5, 0, now);
    EXPECT_GE(release, now + bh.blacklistDelay() / 2);
    // Another row is unaffected.
    EXPECT_EQ(bh.probeActReleaseCycle(0, 6, 0, now), now);
    EXPECT_GT(bh.blacklistedActs(), 0u);
}

TEST(BlockHammerTest, ProbeIsIdempotentAcrossEpochBoundary)
{
    // The probe/commit contract: N probes followed by one commit must be
    // indistinguishable from one probe followed by one commit — probes
    // are pure queries and never roll the epoch, even when asked about
    // cycles past the boundary.
    DramSpec spec = DramSpec::ddr5();
    unsigned n_rh = 64;
    BlockHammer probed(n_rh, spec, 4);
    BlockHammer reference(n_rh, spec, 4);

    // Blacklist row 5 in both instances with an identical commit stream.
    Cycle now = 0;
    for (unsigned i = 0; i < probed.blacklistThreshold(); ++i) {
        probed.commitAct(0, 5, 0, now);
        reference.commitAct(0, 5, 0, now);
        ++now;
    }
    Cycle boundary = probed.nextTimedEventCycle(now);
    ASSERT_EQ(boundary, reference.nextTimedEventCycle(now));
    ASSERT_GT(boundary, now);

    // Hammer one instance with probes — repeated, out of row order, and
    // at cycles on both sides of the epoch boundary; leave the other one
    // alone. None of it may perturb state.
    for (Cycle c : {now, now + 1, boundary - 1, boundary, boundary + 7}) {
        for (int rep = 0; rep < 3; ++rep) {
            probed.probeActReleaseCycle(0, 5, 0, c);
            probed.probeActReleaseCycle(0, 6, 0, c);
            probed.probeActReleaseCycle(1, 5, 0, c);
        }
    }
    for (Cycle c : {now, boundary - 1, boundary + 7}) {
        EXPECT_EQ(probed.probeActReleaseCycle(0, 5, 0, c),
                  reference.probeActReleaseCycle(0, 5, 0, c));
    }
    // Before the boundary the blacklisted row is delayed; a probe at the
    // boundary reports it released (the roll clears the delay).
    EXPECT_GT(probed.probeActReleaseCycle(0, 5, 0, now), now);
    EXPECT_LE(probed.probeActReleaseCycle(0, 5, 0, boundary), boundary);

    // One commit after all that probing lands identically in both.
    Cycle after = boundary + 16;
    probed.advanceTo(after);
    reference.advanceTo(after);
    probed.commitAct(0, 5, 0, after);
    reference.commitAct(0, 5, 0, after);
    EXPECT_EQ(probed.blacklistedActs(), reference.blacklistedActs());
    EXPECT_EQ(probed.probeActReleaseCycle(0, 5, 0, after),
              reference.probeActReleaseCycle(0, 5, 0, after));
    EXPECT_EQ(probed.nextTimedEventCycle(after),
              reference.nextTimedEventCycle(after));
}

TEST(BlockHammerTest, DelayEnforcesSafeRate)
{
    DramSpec spec = DramSpec::ddr5();
    unsigned n_rh = 512;
    BlockHammer bh(n_rh, spec, 4);
    // Blacklist spacing must keep a row below N_RH per refresh window:
    // NBL + tREFW / tDelay <= N_RH.
    double acts_per_window =
        static_cast<double>(bh.blacklistThreshold()) +
        static_cast<double>(spec.timing.tREFW) /
            static_cast<double>(bh.blacklistDelay());
    EXPECT_LE(acts_per_window, static_cast<double>(n_rh) + 1);
}

TEST(FactoryTest, CreatesEveryMechanism)
{
    DramSpec spec = DramSpec::ddr5();
    for (MitigationType type : pairedMitigations()) {
        auto m = createMitigation(type, 1024, spec, 4);
        ASSERT_NE(m, nullptr) << mitigationName(type);
        EXPECT_STRNE(m->name(), "");
    }
    EXPECT_EQ(createMitigation(MitigationType::kNone, 1024, spec, 4),
              nullptr);
    auto bh = createMitigation(MitigationType::kBlockHammer, 1024, spec, 4);
    EXPECT_STREQ(bh->name(), "BlockHammer");
}

TEST(FactoryTest, TimingSideEffectsOnlyForRegaAndPrac)
{
    DramSpec base = DramSpec::ddr5();
    for (MitigationType type :
         {MitigationType::kPara, MitigationType::kGraphene,
          MitigationType::kHydra, MitigationType::kTwice,
          MitigationType::kAqua, MitigationType::kRfm,
          MitigationType::kBlockHammer}) {
        DramSpec spec = base;
        applyTimingSideEffects(type, 64, &spec);
        EXPECT_EQ(spec.timing.tRAS, base.timing.tRAS);
        EXPECT_EQ(spec.timing.tRP, base.timing.tRP);
    }
    DramSpec rega = base, prac = base;
    applyTimingSideEffects(MitigationType::kRega, 64, &rega);
    applyTimingSideEffects(MitigationType::kPrac, 64, &prac);
    EXPECT_GT(rega.timing.tRAS, base.timing.tRAS);
    EXPECT_GT(prac.timing.tRP, base.timing.tRP);
}

/** Threshold-scaling property: lower N_RH means more aggressive configs. */
class ThresholdScalingTest : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ThresholdScalingTest, ConfigsScaleWithNrh)
{
    unsigned n_rh = GetParam();
    DramSpec spec = DramSpec::ddr5();
    Graphene g(n_rh, spec);
    EXPECT_EQ(g.refreshThreshold(), std::max(1u, n_rh / 8));
    Twice tw(n_rh, spec);
    EXPECT_EQ(tw.triggerThreshold(), std::max(1u, n_rh / 4));
    Rfm rfm(n_rh, spec);
    EXPECT_LE(rfm.raaimt(), 128u);
    EXPECT_GE(rfm.raaimt(), 4u);
    Prac prac(n_rh, spec);
    EXPECT_EQ(prac.alertThreshold(), std::max(2u, n_rh / 4));
}

INSTANTIATE_TEST_SUITE_P(NrhSweep, ThresholdScalingTest,
                         ::testing::Values(64, 128, 256, 512, 1024, 2048,
                                           4096));

} // namespace
} // namespace bh
