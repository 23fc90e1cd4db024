/**
 * @file
 * Statistical interval-sampling tests (runSampledExperiment via
 * runExperiment): spec validation and key separation, byte-identical
 * results across sampling job counts, exact-simulation fallbacks,
 * sampled-vs-exact headline error bounds on the 20k tier, and confidence
 * intervals that shrink as the window count grows.
 *
 * The error bounds mirror ci/sampling_budget.json and are deliberately
 * loose: functional fast-forward warming approximates the detailed
 * machine, and on micro-horizons (20k instructions, a handful of
 * windows) the residual per-core state error is tens of percent (see
 * docs/ARCHITECTURE.md). The bounds are regression tripwires against
 * gross estimator breakage — sign flips, double counting, dropped
 * windows — not precision claims.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "sim/experiment.h"
#include "sim/mixes.h"
#include "stats/json_stats.h"

namespace bh {
namespace {

/** The 20k-tier point the sampled-vs-exact comparisons run on. */
ExperimentConfig
samplePoint(const std::string &mix_class)
{
    ExperimentConfig cfg;
    cfg.mix = makeMix(mix_class, 0);
    cfg.mechanism = MitigationType::kPara;
    cfg.nRh = 1024;
    cfg.breakHammer = true;
    cfg.instructions = 20000;
    return cfg;
}

double
relError(double sampled, double exact)
{
    if (exact == 0.0)
        return sampled == 0.0 ? 0.0 : 1.0;
    return std::fabs(sampled / exact - 1.0);
}

TEST(SamplingSpecTest, EnabledNeedsAllThreePositive)
{
    EXPECT_FALSE(SamplingSpec{}.enabled());
    EXPECT_FALSE((SamplingSpec{1000, 1000, 0}.enabled()));
    EXPECT_FALSE((SamplingSpec{0, 1000, 1000}.enabled()));
    EXPECT_FALSE((SamplingSpec{1000, 0, 1000}.enabled()));
    EXPECT_TRUE((SamplingSpec{1000, 1000, 1000}.enabled()));
}

TEST(SamplingSpecTest, SampledAndExactKeysNeverAlias)
{
    ExperimentConfig exact = samplePoint("HHMA");
    ExperimentConfig sampled = exact;
    sampled.sample = SamplingSpec{1000, 1000, 3500};

    EXPECT_NE(experimentKey(exact), experimentKey(sampled));
    EXPECT_NE(experimentKey(sampled).find("sample=1000/1000/3500"),
              std::string::npos);
    // Exact keys stay in the pre-sampling format: no marker at all.
    EXPECT_EQ(experimentKey(exact).find("sample="), std::string::npos);

    // Different specs are different points too.
    ExperimentConfig other = exact;
    other.sample = SamplingSpec{1000, 1000, 3000};
    EXPECT_NE(experimentKey(sampled), experimentKey(other));
}

TEST(SamplingTest, ResultsAreByteIdenticalAcrossJobCounts)
{
    ExperimentConfig cfg = samplePoint("HHMA");
    cfg.sample = SamplingSpec{1000, 1000, 3500};

    RunContext two_jobs;
    two_jobs.samplingJobs = 2;
    ExperimentResult one = runExperiment(cfg);
    ExperimentResult two = runExperiment(cfg, two_jobs);

    ASSERT_TRUE(one.sampling.enabled);
    ASSERT_TRUE(two.sampling.enabled);
    EXPECT_EQ(experimentResultToJson(cfg, one).dump(),
              experimentResultToJson(cfg, two).dump());
}

TEST(SamplingTest, OracleRunsStayExact)
{
    ExperimentConfig cfg = samplePoint("HHMA");
    cfg.sample = SamplingSpec{1000, 1000, 3500};
    cfg.oracle = true;

    ExperimentResult r = runExperiment(cfg);
    // The oracle audits every activation of the full horizon; a sampled
    // trajectory would miss fast-forwarded violations, so the config
    // must fall back to exact simulation.
    EXPECT_FALSE(r.sampling.enabled);
}

TEST(SamplingTest, HorizonTooShortForOneWindowFallsBackToExact)
{
    ExperimentConfig cfg = samplePoint("HHMA");
    cfg.sample = SamplingSpec{15000, 15000, 15000};

    ExperimentResult sampled_cfg = runExperiment(cfg);
    EXPECT_FALSE(sampled_cfg.sampling.enabled);

    ExperimentConfig exact = samplePoint("HHMA");
    ExperimentResult reference = runExperiment(exact);
    EXPECT_DOUBLE_EQ(sampled_cfg.weightedSpeedup,
                     reference.weightedSpeedup);
}

TEST(SamplingTest, HeadlineMetricsWithinBudgetOf20kExact)
{
    // Bounds match ci/sampling_budget.json (see file-level comment).
    const double kWsBound = 0.40;
    const double kSdBound = 0.45;
    const double kPrevBound = 0.45;
    const double kPrevFloor = 60.0;

    for (const char *mix_class : {"HHMA", "HHHA", "HMLA"}) {
        SCOPED_TRACE(mix_class);
        ExperimentConfig cfg = samplePoint(mix_class);
        ExperimentResult exact = runExperiment(cfg);

        cfg.sample = SamplingSpec{1000, 1000, 3500};
        ExperimentResult sampled = runExperiment(cfg);
        ASSERT_TRUE(sampled.sampling.enabled);
        EXPECT_EQ(sampled.sampling.windows, 3u);

        EXPECT_LE(relError(sampled.weightedSpeedup,
                           exact.weightedSpeedup),
                  kWsBound);
        EXPECT_LE(relError(sampled.maxSlowdown, exact.maxSlowdown),
                  kSdBound);
        double prev_err = std::fabs(
            static_cast<double>(sampled.preventiveActions) -
            static_cast<double>(exact.preventiveActions));
        EXPECT_TRUE(prev_err <= kPrevFloor ||
                    relError(static_cast<double>(
                                 sampled.preventiveActions),
                             static_cast<double>(
                                 exact.preventiveActions)) <= kPrevBound)
            << "preventive actions: sampled=" << sampled.preventiveActions
            << " exact=" << exact.preventiveActions;
    }
}

TEST(SamplingTest, ConfidenceIntervalsShrinkWithMoreWindows)
{
    ExperimentConfig cfg = samplePoint("HHMA");
    cfg.sample = SamplingSpec{1000, 1000, 3500}; // stride 5500 -> 3 win
    ExperimentResult few = runExperiment(cfg);

    cfg.sample = SamplingSpec{1000, 1000, 800}; // stride 2800 -> 6 win
    ExperimentResult many = runExperiment(cfg);

    ASSERT_TRUE(few.sampling.enabled);
    ASSERT_TRUE(many.sampling.enabled);
    ASSERT_LT(few.sampling.windows, many.sampling.windows);

    // Same horizon, same per-window shape, twice the windows: the CI of
    // every sampled headline metric must tighten (t-critical shrinks and
    // 1/sqrt(n) falls; the simulation is deterministic, so these are
    // stable values, not a flaky statistical bet).
    EXPECT_LT(many.sampling.weightedSpeedup.ci95,
              few.sampling.weightedSpeedup.ci95);
    EXPECT_LT(many.sampling.preventiveActions.ci95,
              few.sampling.preventiveActions.ci95);
}

TEST(SamplingTest, SampledRecordJsonRoundTrips)
{
    ExperimentConfig cfg = samplePoint("HHMA");
    cfg.sample = SamplingSpec{1000, 1000, 3500};
    ExperimentResult r = runExperiment(cfg);
    ASSERT_TRUE(r.sampling.enabled);

    JsonValue v = experimentResultToJson(cfg, r);
    const JsonValue *s = v.find("sampling");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->find("windows")->asU64(), r.sampling.windows);

    // Round-trip through the parser used by the ResultStore.
    ExperimentResult back;
    ASSERT_TRUE(experimentResultFromJson(v, &back));
    EXPECT_TRUE(back.sampling.enabled);
    EXPECT_EQ(back.sampling.windows, r.sampling.windows);
    EXPECT_DOUBLE_EQ(back.sampling.weightedSpeedup.mean,
                     r.sampling.weightedSpeedup.mean);
    EXPECT_DOUBLE_EQ(back.sampling.weightedSpeedup.ci95,
                     r.sampling.weightedSpeedup.ci95);
    EXPECT_DOUBLE_EQ(back.weightedSpeedup, r.weightedSpeedup);
}

} // namespace
} // namespace bh
