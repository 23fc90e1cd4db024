/**
 * @file
 * Tests for parallel grid execution (ResultStore::prefetch over
 * sim/parallel_for.h): determinism across worker counts, agreement with a
 * direct runExperiment(), streaming every point to disk exactly once,
 * key coverage, and golden-value regressions for the paper's headline
 * metrics on two small fixed mixes. Memoization and persistence are
 * covered by test_result_store.cc.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "sim/result_store.h"

namespace bh {
namespace {

/** Instruction horizon small enough for fast tests, long enough for the
 *  mitigations and BreakHammer windows to engage. */
constexpr std::uint64_t kInsts = 20000;

ExperimentConfig
smallConfig(const char *pattern, MitigationType mech, unsigned n_rh,
            bool bh_on)
{
    ExperimentConfig cfg;
    cfg.mix = makeMix(pattern, 0);
    cfg.mechanism = mech;
    cfg.nRh = n_rh;
    cfg.breakHammer = bh_on;
    cfg.instructions = kInsts;
    return cfg;
}

std::vector<ExperimentConfig>
testGrid()
{
    return {
        smallConfig("HHMA", MitigationType::kGraphene, 512, true),
        smallConfig("HHMA", MitigationType::kGraphene, 512, false),
        smallConfig("LLLA", MitigationType::kPara, 1024, true),
        smallConfig("MMLL", MitigationType::kNone, 1024, false),
        smallConfig("MMLA", MitigationType::kRfm, 256, true),
        smallConfig("HHMM", MitigationType::kHydra, 512, false),
    };
}

/** Bit-exact equality of two experiment results. */
void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_EQ(a.weightedSpeedup, b.weightedSpeedup);
    EXPECT_EQ(a.maxSlowdown, b.maxSlowdown);
    EXPECT_EQ(a.energyNj, b.energyNj);
    EXPECT_EQ(a.preventiveActions, b.preventiveActions);
    EXPECT_EQ(a.raw.cycles, b.raw.cycles);
    EXPECT_EQ(a.raw.demandActs, b.raw.demandActs);
    EXPECT_EQ(a.raw.suspectMarks, b.raw.suspectMarks);
    EXPECT_EQ(a.raw.quotaRejections, b.raw.quotaRejections);
    EXPECT_EQ(a.raw.benignIpcs(), b.raw.benignIpcs());
    EXPECT_TRUE(a.raw.benignReadLatencyNs == b.raw.benignReadLatencyNs);
}

TEST(SchedulerTest, IdenticalResultsAt1And2And8Threads)
{
    std::vector<ExperimentConfig> grid = testGrid();

    std::vector<std::vector<ExperimentResult>> runs;
    std::vector<std::string> exports;
    for (unsigned threads : {1u, 2u, 8u}) {
        ResultStore store(threads);
        store.prefetch(grid);
        EXPECT_EQ(store.stats().computed, grid.size());
        std::vector<ExperimentResult> results;
        for (const ExperimentConfig &cfg : grid)
            results.push_back(store.get(cfg));
        runs.push_back(std::move(results));
        exports.push_back(store.toJson().dump());
    }

    for (std::size_t i = 0; i < grid.size(); ++i) {
        expectIdentical(runs[0][i], runs[1][i]);
        expectIdentical(runs[0][i], runs[2][i]);
    }
    EXPECT_EQ(exports[0], exports[1]);
    EXPECT_EQ(exports[0], exports[2]);
}

TEST(SchedulerTest, MatchesDirectRunExperiment)
{
    ExperimentConfig cfg =
        smallConfig("HHMA", MitigationType::kGraphene, 512, true);
    ExperimentResult direct = runExperiment(cfg);

    ResultStore store(2);
    store.prefetch({cfg});
    expectIdentical(direct, store.get(cfg));
}

TEST(SchedulerTest, StreamsEveryPointToDiskExactlyOnce)
{
    std::vector<ExperimentConfig> grid = testGrid();
    std::string dir = ::testing::TempDir() + "bh_scheduler_stream";
    std::filesystem::remove_all(dir);

    std::set<std::string> expected;
    {
        ResultStore store(4);
        std::string error;
        ASSERT_TRUE(store.open(dir, &error)) << error;
        for (const ExperimentConfig &cfg : grid)
            expected.insert(experimentKey(store.resolve(cfg)));
        store.prefetch(grid);
    }

    std::ifstream in(dir + "/results.jsonl");
    std::string line;
    std::multiset<std::string> streamed;
    while (std::getline(in, line)) {
        JsonValue rec = JsonValue::parseOrDie(line);
        if (rec.find("kind")->asString() == "experiment")
            streamed.insert(rec.find("key")->asString());
    }
    EXPECT_EQ(streamed.size(), grid.size());
    EXPECT_EQ(std::set<std::string>(streamed.begin(), streamed.end()),
              expected);
    std::filesystem::remove_all(dir);
}

TEST(SchedulerTest, ExperimentKeyDistinguishesEveryKnob)
{
    ExperimentConfig base =
        smallConfig("HHMA", MitigationType::kGraphene, 512, true);
    std::set<std::string> keys;
    keys.insert(experimentKey(base));

    ExperimentConfig c = base;
    c.nRh = 256;
    keys.insert(experimentKey(c));
    c = base;
    c.mechanism = MitigationType::kPara;
    keys.insert(experimentKey(c));
    c = base;
    c.breakHammer = false;
    keys.insert(experimentKey(c));
    c = base;
    c.bh.window = 123456;
    keys.insert(experimentKey(c));
    c = base;
    c.bh.thThreat = 7.5;
    keys.insert(experimentKey(c));
    c = base;
    c.bluntThrottle = true;
    keys.insert(experimentKey(c));
    c = base;
    c.seed = 99;
    keys.insert(experimentKey(c));
    c = base;
    c.instructions = kInsts + 1;
    keys.insert(experimentKey(c));

    EXPECT_EQ(keys.size(), 9u);
}

// ---------------------------------------------------------------------
// Golden-value regressions: the headline metrics on two small fixed
// mixes must not drift silently. Values recorded from the seed
// implementation at kInsts = 20000 (see CHANGES.md); any legitimate
// change to simulator behavior must update them consciously.
// ---------------------------------------------------------------------

TEST(GoldenTest, GrapheneWithBreakHammerOnHhmaAttackMix)
{
    ExperimentResult r = runExperiment(
        smallConfig("HHMA", MitigationType::kGraphene, 512, true));
    EXPECT_NEAR(r.weightedSpeedup, 0.72237629069954734, 1e-9);
    EXPECT_NEAR(r.maxSlowdown, 5.4407584830339317, 1e-9);
    EXPECT_EQ(r.preventiveActions, 28u);
}

TEST(GoldenTest, ParaOnLllaAttackMix)
{
    ExperimentResult r = runExperiment(
        smallConfig("LLLA", MitigationType::kPara, 1024, false));
    EXPECT_NEAR(r.weightedSpeedup, 0.4050787225408623, 1e-9);
    EXPECT_NEAR(r.maxSlowdown, 8.7126353790613713, 1e-9);
    EXPECT_EQ(r.preventiveActions, 87u);
}

} // namespace
} // namespace bh
