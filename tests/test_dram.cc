/**
 * @file
 * Unit tests for src/dram: spec presets, address mapping, timing engine,
 * energy accounting, row census.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/rng.h"
#include "dram/address.h"
#include "dram/row_census.h"
#include "dram/spec.h"
#include "dram/timing.h"

namespace bh {
namespace {

TEST(SpecTest, Ddr5OrganizationMatchesTable1)
{
    DramSpec spec = DramSpec::ddr5();
    EXPECT_EQ(spec.org.ranks, 2u);
    EXPECT_EQ(spec.org.bankGroups, 8u);
    EXPECT_EQ(spec.org.banksPerGroup, 2u);
    EXPECT_EQ(spec.org.totalBanks(), 32u);
    EXPECT_EQ(spec.org.rowsPerBank, 65536u);
    // 8 KiB rows = 128 cache lines.
    EXPECT_EQ(spec.org.linesPerRow, 128u);
    // 16 GiB channel.
    EXPECT_EQ(spec.org.capacityBytes(), 16ull << 30);
}

TEST(SpecTest, TimingConversionConsistent)
{
    DramSpec spec = DramSpec::ddr5();
    EXPECT_EQ(spec.timing.tRCD, nsToCycles(spec.timingNs.tRCD));
    EXPECT_EQ(spec.timing.tRC,
              nsToCycles(spec.timingNs.tRAS + spec.timingNs.tRP));
    EXPECT_EQ(spec.timing.readLatency,
              spec.timing.tCL + spec.timing.tBL);
    EXPECT_GT(spec.timing.tREFI, spec.timing.tRFC);
}

TEST(SpecTest, Ddr4Differs)
{
    DramSpec d5 = DramSpec::ddr5();
    DramSpec d4 = DramSpec::ddr4();
    EXPECT_EQ(d4.org.bankGroups, 4u);
    EXPECT_GT(d4.timing.tREFI, d5.timing.tREFI);
    EXPECT_GT(d4.timing.tREFW, d5.timing.tREFW);
}

TEST(SpecTest, RefreshTimingRecomputes)
{
    DramSpec spec = DramSpec::ddr5();
    Cycle before = spec.timing.tRAS;
    spec.timingNs.tRAS += 10.0;
    spec.refreshTiming();
    EXPECT_EQ(spec.timing.tRAS, before + nsToCycles(10.0));
}

class AddressRoundtripTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(AddressRoundtripTest, DecodeEncodeRoundtrip)
{
    AddressMap mapper(DramSpec::ddr5().org);
    Rng rng(GetParam());
    for (int i = 0; i < 2000; ++i) {
        Addr addr = rng.next() % mapper.capacityBytes();
        Addr line = addr & ~static_cast<Addr>(kCacheLineBytes - 1);
        DramAddress da = mapper.decode(addr);
        EXPECT_EQ(mapper.encode(da), line);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddressRoundtripTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(AddressTest, FieldsWithinBounds)
{
    DramOrg org = DramSpec::ddr5().org;
    AddressMap mapper(org);
    Rng rng(99);
    for (int i = 0; i < 5000; ++i) {
        DramAddress da = mapper.decode(rng.next());
        EXPECT_LT(da.rank, org.ranks);
        EXPECT_LT(da.bankGroup, org.bankGroups);
        EXPECT_LT(da.bank, org.banksPerGroup);
        EXPECT_LT(da.row, org.rowsPerBank);
        EXPECT_LT(da.column, org.linesPerRow);
        EXPECT_LT(mapper.flatBank(da), org.totalBanks());
    }
}

TEST(AddressTest, MopKeepsGroupsTogether)
{
    AddressMap mapper(DramSpec::ddr5().org, 4);
    // Lines 0..3 share one (bank, row); line 4 moves to another bank.
    DramAddress first = mapper.decode(0);
    for (unsigned l = 1; l < 4; ++l) {
        DramAddress da = mapper.decode(l * kCacheLineBytes);
        EXPECT_EQ(mapper.flatBank(da), mapper.flatBank(first));
        EXPECT_EQ(da.row, first.row);
    }
    DramAddress next = mapper.decode(4 * kCacheLineBytes);
    EXPECT_NE(mapper.flatBank(next), mapper.flatBank(first));
}

/**
 * Property tests over every interleaving scheme x channel count: the
 * address map must be a bijection between physical line addresses and
 * (channel, rank, bank group, bank, row, column) tuples.
 */
class AddressSchemeTest
    : public ::testing::TestWithParam<std::tuple<Interleave, unsigned>>
{
  protected:
    Interleave scheme() const { return std::get<0>(GetParam()); }
    unsigned channels() const { return std::get<1>(GetParam()); }
};

TEST_P(AddressSchemeTest, DecodeEncodeRoundtripAndBounds)
{
    DramOrg org = DramSpec::ddr5().org;
    org.channels = channels();
    AddressMap mapper(org, 4, scheme());
    EXPECT_EQ(mapper.capacityBytes(),
              org.capacityBytes() * static_cast<Addr>(channels()));
    Rng rng(7 + channels());
    for (int i = 0; i < 5000; ++i) {
        Addr addr = rng.next() % mapper.capacityBytes();
        Addr line = addr & ~static_cast<Addr>(kCacheLineBytes - 1);
        DramAddress da = mapper.decode(addr);
        EXPECT_LT(da.channel, channels());
        EXPECT_LT(da.rank, org.ranks);
        EXPECT_LT(da.bankGroup, org.bankGroups);
        EXPECT_LT(da.bank, org.banksPerGroup);
        EXPECT_LT(da.row, org.rowsPerBank);
        EXPECT_LT(da.column, org.linesPerRow);
        EXPECT_EQ(mapper.encode(da), line);
    }
}

TEST_P(AddressSchemeTest, EncodeIsABijectionOnASmallOrg)
{
    // Small enough to enumerate every coordinate tuple: distinct tuples
    // must encode to distinct line addresses (no collisions within any
    // channel/rank/bank/row), covering the capacity exactly, and decode
    // must invert every one of them.
    DramOrg org = DramSpec::ddr5().org;
    org.channels = channels();
    org.rowsPerBank = 8;
    org.linesPerRow = 4;
    AddressMap mapper(org, 4, scheme());

    std::uint64_t lines =
        mapper.capacityBytes() / static_cast<Addr>(kCacheLineBytes);
    std::vector<bool> seen(lines, false);
    for (unsigned ch = 0; ch < org.channels; ++ch)
        for (unsigned r = 0; r < org.ranks; ++r)
            for (unsigned bg = 0; bg < org.bankGroups; ++bg)
                for (unsigned b = 0; b < org.banksPerGroup; ++b)
                    for (unsigned row = 0; row < org.rowsPerBank; ++row)
                        for (unsigned col = 0; col < org.linesPerRow;
                             ++col) {
                            DramAddress da{r, bg, b, row, col};
                            da.channel = ch;
                            Addr addr = mapper.encode(da);
                            ASSERT_LT(addr, mapper.capacityBytes());
                            ASSERT_EQ(addr % kCacheLineBytes, 0u);
                            std::uint64_t idx = addr / kCacheLineBytes;
                            ASSERT_FALSE(seen[idx])
                                << "two tuples collide at " << addr;
                            seen[idx] = true;
                            EXPECT_TRUE(mapper.decode(addr) == da);
                        }
    for (std::uint64_t i = 0; i < lines; ++i)
        EXPECT_TRUE(seen[i]) << "line " << i << " unreachable";
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, AddressSchemeTest,
    ::testing::Combine(::testing::ValuesIn(kAllInterleaves),
                       ::testing::Values(1u, 2u, 4u)),
    [](const auto &info) {
        return std::string(interleaveName(std::get<0>(info.param))) + "_" +
               std::to_string(std::get<1>(info.param)) + "ch";
    });

TEST(AddressTest, SingleChannelLayoutIsSchemeInvariant)
{
    // With one channel both schemes slice zero channel bits, so they
    // must reproduce the legacy layout bit-for-bit — the anchor for
    // default-configuration byte-identity.
    DramOrg org = DramSpec::ddr5().org;
    AddressMap mop(org, 4, Interleave::kMop);
    AddressMap row(org, 4, Interleave::kRow);
    Rng rng(1234);
    for (int i = 0; i < 2000; ++i) {
        Addr addr = rng.next() % mop.capacityBytes();
        EXPECT_TRUE(mop.decode(addr) == row.decode(addr));
    }
}

TEST(AddressTest, InterleaveNamesRoundTrip)
{
    for (Interleave il : kAllInterleaves) {
        Interleave parsed;
        ASSERT_TRUE(parseInterleave(interleaveName(il), &parsed));
        EXPECT_EQ(parsed, il);
    }
    Interleave parsed;
    EXPECT_FALSE(parseInterleave("diagonal", &parsed));
}

TEST(AddressTest, FlatBankCoversAllBanks)
{
    DramOrg org = DramSpec::ddr5().org;
    AddressMap mapper(org);
    std::vector<bool> seen(org.totalBanks(), false);
    for (unsigned r = 0; r < org.ranks; ++r)
        for (unsigned bg = 0; bg < org.bankGroups; ++bg)
            for (unsigned b = 0; b < org.banksPerGroup; ++b) {
                DramAddress da{r, bg, b, 0, 0};
                unsigned fb = mapper.flatBank(da);
                EXPECT_FALSE(seen[fb]);
                seen[fb] = true;
            }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

class TimingEngineTest : public ::testing::Test
{
  protected:
    TimingEngineTest() : spec(DramSpec::ddr5()), engine(spec) {}
    DramSpec spec;
    TimingEngine engine;
};

TEST_F(TimingEngineTest, ActThenReadRespectsTrcd)
{
    EXPECT_TRUE(engine.canIssue(DramCommand::kAct, 0, 0));
    engine.issueAct(0, 100, 0);
    EXPECT_FALSE(engine.canIssue(DramCommand::kRead, 0,
                                 spec.timing.tRCD - 1));
    EXPECT_TRUE(engine.canIssue(DramCommand::kRead, 0, spec.timing.tRCD));
}

TEST_F(TimingEngineTest, RestoreRefusesAnFawHeadPastTheWindow)
{
    // The next ACT writes fawWindow[fawHead], so a restored head must
    // index the four-slot window.
    engine.issueAct(0, 100, 0);
    StateWriter w;
    StateIo save(w);
    engine.transfer(save);
    const std::string state = w.take();
    // Tag, bank count, banks (open byte + five u64s), rank count, then
    // the first rank: lastAct, lastActBankGroup, hasLastAct, fawWindow,
    // fawCount, fawHead.
    const std::size_t head_at =
        4 + 8 + spec.org.totalBanks() * 41 + 8 + 8 + 8 + 1 + 4 * 8 + 8;
    auto loads = [&](std::uint64_t head) {
        std::string bytes = state;
        std::memcpy(bytes.data() + head_at, &head, sizeof(head));
        TimingEngine fresh(spec);
        StateReader r(bytes);
        StateIo load(r);
        fresh.transfer(load);
        return r.atEnd();
    };
    EXPECT_TRUE(loads(1)); // issueAct advanced the head to 1.
    EXPECT_TRUE(loads(3));
    EXPECT_FALSE(loads(4));
}

TEST_F(TimingEngineTest, ReadDataLatency)
{
    engine.issueAct(0, 1, 0);
    Cycle t = spec.timing.tRCD;
    Cycle ready = engine.issueRead(0, t);
    EXPECT_EQ(ready, t + spec.timing.tCL + spec.timing.tBL);
}

TEST_F(TimingEngineTest, SameBankActSpacingIsTrc)
{
    engine.issueAct(0, 1, 0);
    Cycle t = spec.timing.tRAS;
    ASSERT_TRUE(engine.canIssue(DramCommand::kPre, 0, t));
    engine.issuePre(0, t);
    // Next ACT gated by both tRC from the ACT and tRP from the PRE
    // (the two can differ by a rounding cycle after ns conversion).
    Cycle gate = std::max(spec.timing.tRC, t + spec.timing.tRP);
    EXPECT_FALSE(engine.canIssue(DramCommand::kAct, 0, gate - 1));
    EXPECT_TRUE(engine.canIssue(DramCommand::kAct, 0, gate));
}

TEST_F(TimingEngineTest, RrdShortVsLong)
{
    // Bank 0 and bank 1 share a bank group (flat layout: rank-major).
    engine.issueAct(0, 1, 0);
    // Same bank group: tRRD_L applies.
    EXPECT_FALSE(engine.canIssue(DramCommand::kAct, 1,
                                 spec.timing.tRRD_L - 1));
    EXPECT_TRUE(engine.canIssue(DramCommand::kAct, 1, spec.timing.tRRD_L));
    // Different bank group (bank index 2): tRRD_S applies.
    EXPECT_EQ(engine.bankGroupOf(2), 1u);
    EXPECT_TRUE(engine.canIssue(DramCommand::kAct, 2, spec.timing.tRRD_S));
}

TEST_F(TimingEngineTest, FawBlocksFifthActivation)
{
    // Four ACTs to distinct bank groups, spaced by tRRD_S.
    Cycle t = 0;
    for (unsigned i = 0; i < 4; ++i) {
        unsigned bank = i * 2; // Different bank groups.
        EXPECT_TRUE(engine.canIssue(DramCommand::kAct, bank, t));
        engine.issueAct(bank, 7, t);
        t += spec.timing.tRRD_S;
    }
    // Fifth ACT in the same rank must wait for tFAW from the first.
    unsigned fifth = 8;
    EXPECT_FALSE(engine.canIssue(DramCommand::kAct, fifth, t));
    EXPECT_TRUE(engine.canIssue(DramCommand::kAct, fifth,
                                spec.timing.tFAW));
    // The other rank is unaffected.
    unsigned other_rank_bank = spec.org.banksPerRank();
    EXPECT_TRUE(engine.canIssue(DramCommand::kAct, other_rank_bank, t));
}

TEST_F(TimingEngineTest, WriteDelaysPrechargeByWriteRecovery)
{
    engine.issueAct(0, 1, 0);
    Cycle t = spec.timing.tRCD;
    engine.issueWrite(0, t);
    Cycle pre_ok =
        t + spec.timing.tCWL + spec.timing.tBL + spec.timing.tWR;
    EXPECT_FALSE(engine.canIssue(DramCommand::kPre, 0, pre_ok - 1));
    EXPECT_TRUE(engine.canIssue(DramCommand::kPre, 0, pre_ok));
}

TEST_F(TimingEngineTest, ReadWriteTurnaround)
{
    engine.issueAct(0, 1, 0);
    engine.issueAct(2, 1, spec.timing.tRRD_S);
    Cycle t = spec.timing.tRCD + spec.timing.tRRD_S;
    engine.issueRead(0, t);
    // A write on the shared bus must wait for the read turnaround.
    Cycle wr_ok = t + spec.timing.tCL + spec.timing.tBL + spec.timing.tRTW;
    EXPECT_FALSE(engine.canIssue(DramCommand::kWrite, 2, wr_ok - 1));
    EXPECT_TRUE(engine.canIssue(DramCommand::kWrite, 2, wr_ok));
}

TEST_F(TimingEngineTest, RefreshBlocksWholeRank)
{
    ASSERT_TRUE(engine.rankQuiesced(0, 0));
    engine.issueRefresh(0, 0);
    for (unsigned b = 0; b < spec.org.banksPerRank(); ++b) {
        EXPECT_FALSE(engine.canIssue(DramCommand::kAct, b,
                                     spec.timing.tRFC - 1));
        EXPECT_TRUE(engine.canIssue(DramCommand::kAct, b,
                                    spec.timing.tRFC));
    }
    // Other rank unaffected.
    EXPECT_TRUE(
        engine.canIssue(DramCommand::kAct, spec.org.banksPerRank(), 0));
}

TEST_F(TimingEngineTest, RefreshRequiresQuiescedRank)
{
    engine.issueAct(0, 1, 0);
    EXPECT_FALSE(engine.rankQuiesced(0, 0));
    engine.issuePre(0, spec.timing.tRAS);
    EXPECT_TRUE(engine.rankQuiesced(0, spec.timing.tRAS));
}

TEST_F(TimingEngineTest, BlockBankClosesRowAndBlocks)
{
    engine.issueAct(0, 5, 0);
    engine.blockBank(0, spec.timing.tRAS, 1000);
    EXPECT_FALSE(engine.bank(0).open);
    EXPECT_FALSE(engine.canIssue(DramCommand::kAct, 0,
                                 spec.timing.tRAS + 999));
    EXPECT_TRUE(engine.canIssue(DramCommand::kAct, 0,
                                spec.timing.tRAS + 1000 + spec.timing.tRC));
}

TEST_F(TimingEngineTest, BlockRankBlocksAllBanks)
{
    engine.blockRank(1, 0, 500);
    unsigned base = spec.org.banksPerRank();
    for (unsigned i = 0; i < spec.org.banksPerRank(); ++i)
        EXPECT_FALSE(engine.canIssue(DramCommand::kAct, base + i, 499));
    EXPECT_TRUE(engine.canIssue(DramCommand::kAct, 0, 0));
}

TEST_F(TimingEngineTest, RfmBlocksBankForTrfm)
{
    engine.issueRfm(3, 0);
    EXPECT_FALSE(engine.canIssue(DramCommand::kAct, 3,
                                 spec.timing.tRFM - 1));
    EXPECT_TRUE(engine.canIssue(DramCommand::kAct, 3, spec.timing.tRFM));
    EXPECT_EQ(engine.energy().rfms(), 1u);
}

TEST_F(TimingEngineTest, EnergyCountsCommands)
{
    engine.issueAct(0, 1, 0);
    Cycle t = spec.timing.tRCD;
    engine.issueRead(0, t);
    // Writes must respect the read-to-write bus turnaround.
    Cycle wr_at = t + spec.timing.tCL + spec.timing.tBL + spec.timing.tRTW;
    ASSERT_TRUE(engine.canIssue(DramCommand::kWrite, 0, wr_at));
    engine.issueWrite(0, wr_at);
    EXPECT_EQ(engine.energy().acts(), 1u);
    EXPECT_EQ(engine.energy().reads(), 1u);
    EXPECT_EQ(engine.energy().writes(), 1u);
    EXPECT_GT(engine.energy().dynamicNj(), 0.0);
}

/**
 * The controller's wake memo trusts earliestIssue() and quiescedAt() as
 * exact bounds across long frozen spans. After each random command or
 * blackout, every (command, bank) pair must be illegal on every cycle
 * before earliestIssue() and legal at it (illegal over a long probe span
 * when it reports kNeverCycle); likewise rankQuiesced() vs quiescedAt().
 */
TEST(TimingEnginePropertyTest, EarliestIssueAndQuiescedAtAreExact)
{
    constexpr Cycle kNeverProbeSpan = 3000;
    constexpr DramCommand kCommands[] = {DramCommand::kAct,
                                         DramCommand::kPre,
                                         DramCommand::kRead,
                                         DramCommand::kWrite};
    const DramSpec spec = DramSpec::ddr5();
    const unsigned banks = spec.org.totalBanks();
    Rng rng(2024);
    for (int trial = 0; trial < 3; ++trial) {
        TimingEngine engine(spec);
        Cycle now = 0;
        for (int step = 0; step < 120; ++step) {
            unsigned fb = static_cast<unsigned>(rng.nextBounded(banks));
            unsigned rank = engine.rankOf(fb);
            unsigned op = static_cast<unsigned>(rng.nextBounded(7));
            if (op < 4) {
                // Issue the command at its earliest legal cycle.
                DramCommand cmd = kCommands[op];
                Cycle at = engine.earliestIssue(cmd, fb, now);
                if (at != kNeverCycle) {
                    now = at;
                    switch (cmd) {
                      case DramCommand::kAct:
                        engine.issueAct(fb, static_cast<unsigned>(
                                                rng.nextBounded(64)),
                                        now);
                        break;
                      case DramCommand::kPre:
                        engine.issuePre(fb, now);
                        break;
                      case DramCommand::kRead:
                        engine.issueRead(fb, now);
                        break;
                      case DramCommand::kWrite:
                        engine.issueWrite(fb, now);
                        break;
                    }
                }
            } else if (op == 4) {
                Cycle at = engine.quiescedAt(rank, now);
                if (at != kNeverCycle) {
                    now = at;
                    engine.issueRefresh(rank, now);
                }
            } else if (op == 5) {
                engine.blockBank(fb, now, 1 + rng.nextBounded(400));
            } else {
                engine.blockRank(rank, now, 1 + rng.nextBounded(400));
            }
            now += rng.nextBounded(24);

            for (DramCommand cmd : kCommands)
                for (unsigned b = 0; b < banks; ++b) {
                    Cycle at = engine.earliestIssue(cmd, b, now);
                    Cycle end = at == kNeverCycle ? now + kNeverProbeSpan
                                                  : at;
                    ASSERT_GE(at, now);
                    for (Cycle t = now; t < end; ++t) {
                        ASSERT_FALSE(engine.canIssue(cmd, b, t))
                            << "step " << step << " bank " << b << " t "
                            << t << " earliest " << at;
                    }
                    if (at != kNeverCycle) {
                        ASSERT_TRUE(engine.canIssue(cmd, b, at))
                            << "step " << step << " bank " << b;
                    }
                }
            for (unsigned r = 0; r < spec.org.ranks; ++r) {
                Cycle at = engine.quiescedAt(r, now);
                Cycle end = at == kNeverCycle ? now + kNeverProbeSpan : at;
                ASSERT_GE(at, now);
                for (Cycle t = now; t < end; ++t) {
                    ASSERT_FALSE(engine.rankQuiesced(r, t))
                        << "step " << step << " rank " << r;
                }
                if (at != kNeverCycle) {
                    ASSERT_TRUE(engine.rankQuiesced(r, at))
                        << "step " << step << " rank " << r;
                }
            }
        }
    }
}

TEST(EnergyTest, TotalsAddUp)
{
    DramEnergy params;
    EnergyAccounting e(params);
    e.addAct();
    e.addRead();
    e.addVictimRefresh(2);
    double expected =
        params.actPreNj + params.rdNj + 2 * params.vrrPerRowNj;
    EXPECT_NEAR(e.dynamicNj(), expected, 1e-9);
    EXPECT_NEAR(e.preventiveNj(), 2 * params.vrrPerRowNj, 1e-9);
    // Background: 2 ranks for 4.2M cycles = 1 ms -> 0.36 mJ at 180 mW/rank.
    double bg = e.backgroundNj(msToCycles(1.0), 2);
    EXPECT_NEAR(bg, 0.18 * 2 * 1e-3 * 1e9, 1e3);
    EXPECT_NEAR(e.totalNj(msToCycles(1.0), 2), expected + bg, 1e3);
}

TEST(RowCensusTest, CountsRowsOverThresholds)
{
    RowCensus census(1000);
    for (int i = 0; i < 600; ++i)
        census.recordAct(0, 7, 10); // 600 ACTs to one row, window 1.
    for (int i = 0; i < 70; ++i)
        census.recordAct(0, 9, 10);
    census.recordAct(0, 11, 2000); // Rolls into window 2.
    census.flush(3000);

    ASSERT_GE(census.windows().size(), 2u);
    const auto &w0 = census.windows()[0];
    EXPECT_EQ(w0.rows512, 1u);
    EXPECT_EQ(w0.rows128, 1u);
    EXPECT_EQ(w0.rows64, 2u);
    EXPECT_EQ(w0.totalActs, 670u);
}

TEST(RowCensusTest, CurrentCountResetsAcrossWindows)
{
    RowCensus census(100);
    census.recordAct(1, 5, 0);
    EXPECT_EQ(census.currentCount(1, 5), 1u);
    census.recordAct(1, 5, 250); // Two windows later.
    EXPECT_EQ(census.currentCount(1, 5), 1u);
    EXPECT_EQ(census.windows().size(), 2u);
}

} // namespace
} // namespace bh
