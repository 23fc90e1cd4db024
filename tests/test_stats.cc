/**
 * @file
 * Unit tests for src/stats: histogram percentiles and workload metrics.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/snapshot.h"
#include "stats/histogram.h"
#include "stats/json_stats.h"
#include "stats/metrics.h"

namespace bh {
namespace {

TEST(HistogramTest, EmptyHistogram)
{
    Histogram h(1.0, 16);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(HistogramTest, SingleSample)
{
    Histogram h(1.0, 16);
    h.record(5.2);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_NEAR(h.mean(), 5.2, 1e-9);
    EXPECT_NEAR(h.percentile(100), 5.2, 1e-9);
}

TEST(HistogramTest, MedianOfUniformRamp)
{
    Histogram h(1.0, 128);
    for (int i = 0; i < 100; ++i)
        h.record(static_cast<double>(i) + 0.5);
    double median = h.percentile(50);
    EXPECT_NEAR(median, 50.0, 1.5);
    // Percentiles must be monotone.
    double prev = 0.0;
    for (double p = 1; p <= 100; p += 1) {
        double v = h.percentile(p);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(HistogramTest, OverflowBinReportsMax)
{
    Histogram h(1.0, 8);
    h.record(100.0); // Beyond the last bin.
    h.record(200.0);
    EXPECT_NEAR(h.percentile(99), 200.0, 1e-9);
    EXPECT_NEAR(h.max(), 200.0, 1e-9);
}

TEST(HistogramTest, NegativeClampsToZero)
{
    Histogram h(1.0, 8);
    h.record(-3.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_NEAR(h.percentile(100), 0.0, 1e-9);
}

TEST(HistogramTest, ResetClears)
{
    Histogram h(1.0, 8);
    h.record(3.0);
    h.record(std::numeric_limits<double>::quiet_NaN());
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.droppedSamples(), 0u);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(HistogramTest, NanRoutesToDroppedCounter)
{
    // NaN compares false against every guard, so the old code fell
    // through to an undefined double->size_t cast. It must be dropped,
    // not recorded, and must not disturb the accumulated statistics.
    Histogram h(1.0, 8);
    h.record(2.0);
    h.record(std::numeric_limits<double>::quiet_NaN());
    h.record(-std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.droppedSamples(), 2u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
    EXPECT_DOUBLE_EQ(h.max(), 2.0);
}

TEST(HistogramTest, HugeValuesClampToOverflowBin)
{
    // value / binWidth_ beyond size_t range (1e300, or +inf) made the
    // cast UB; the quotient must clamp to the overflow bin in floating
    // point first.
    Histogram h(2.0, 16);
    h.record(1e300);
    h.record(std::numeric_limits<double>::infinity());
    h.record(static_cast<double>(UINT64_MAX) * 4.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.droppedSamples(), 0u);
    EXPECT_EQ(h.rawBins().back(), 3u);
}

TEST(MetricsTest, WeightedSpeedupIdentity)
{
    std::vector<double> shared = {1.0, 2.0, 0.5};
    EXPECT_NEAR(weightedSpeedup(shared, shared), 3.0, 1e-12);
}

TEST(MetricsTest, WeightedSpeedupHalved)
{
    std::vector<double> alone = {2.0, 2.0};
    std::vector<double> shared = {1.0, 1.0};
    EXPECT_NEAR(weightedSpeedup(shared, alone), 1.0, 1e-12);
}

TEST(MetricsTest, MaxSlowdownPicksWorst)
{
    std::vector<double> alone = {2.0, 3.0, 1.0};
    std::vector<double> shared = {1.0, 1.0, 0.9};
    EXPECT_NEAR(maxSlowdown(shared, alone), 3.0, 1e-12);
}

TEST(MetricsTest, GeomeanBasics)
{
    EXPECT_NEAR(geomean({4.0, 1.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({}), 1.0, 1e-12);
    EXPECT_NEAR(geomean({5.0}), 5.0, 1e-12);
}

TEST(MetricsTest, MeanBasics)
{
    EXPECT_NEAR(mean({1.0, 2.0, 3.0}), 2.0, 1e-12);
    EXPECT_NEAR(mean({}), 0.0, 1e-12);
}

TEST(MetricsTest, BoxStatsOrdering)
{
    BoxStats s = boxStats({5, 1, 4, 2, 3});
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.median, 3.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
    EXPECT_LE(s.q1, s.median);
    EXPECT_LE(s.median, s.q3);
}

TEST(MetricsTest, BoxStatsEmptyAndSingle)
{
    BoxStats e = boxStats({});
    EXPECT_DOUBLE_EQ(e.median, 0.0);
    BoxStats s = boxStats({7.0});
    EXPECT_DOUBLE_EQ(s.min, 7.0);
    EXPECT_DOUBLE_EQ(s.max, 7.0);
    EXPECT_DOUBLE_EQ(s.median, 7.0);
}

/** Property sweep: percentile interpolation stays within observed range. */
class HistogramPropertyTest : public ::testing::TestWithParam<int>
{};

TEST_P(HistogramPropertyTest, PercentilesWithinRange)
{
    int seed = GetParam();
    Histogram h(0.5, 256);
    double lo = 1e18, hi = -1;
    unsigned x = static_cast<unsigned>(seed) * 2654435761u + 1;
    for (int i = 0; i < 500; ++i) {
        x = x * 1664525u + 1013904223u;
        double v = static_cast<double>(x % 100000) / 1000.0;
        h.record(v);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
        double v = h.percentile(p);
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, hi + 0.5); // Bin-width slack.
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramPropertyTest,
                         ::testing::Range(1, 9));

/**
 * Reference model: the dense layout Histogram stores only a prefix of,
 * with all num_bins + 1 bins allocated up front and every query scanning
 * all of them.
 */
struct DenseHistogram
{
    DenseHistogram(double width, std::size_t num_bins)
        : binWidth(width), bins(num_bins + 1, 0)
    {}

    void
    record(double value)
    {
        if (std::isnan(value)) {
            ++dropped;
            return;
        }
        if (value < 0.0)
            value = 0.0;
        double quotient = value / binWidth;
        double overflow = static_cast<double>(bins.size() - 1);
        std::size_t idx = quotient >= overflow
                              ? bins.size() - 1
                              : static_cast<std::size_t>(quotient);
        ++bins[idx];
        ++count;
        sum += value;
        if (value > max)
            max = value;
    }

    double
    percentile(double pct) const
    {
        if (count == 0)
            return 0.0;
        if (pct <= 0.0) {
            for (std::size_t i = 0; i < bins.size(); ++i)
                if (bins[i] != 0)
                    return std::min(static_cast<double>(i) * binWidth, max);
            return 0.0;
        }
        if (pct >= 100.0)
            return max;
        double target = pct / 100.0 * static_cast<double>(count);
        double running = 0.0;
        for (std::size_t i = 0; i < bins.size(); ++i) {
            double next = running + static_cast<double>(bins[i]);
            if (next >= target) {
                if (i == bins.size() - 1)
                    return max;
                double frac =
                    bins[i] ? (target - running) / static_cast<double>(bins[i])
                            : 0.0;
                return std::min((static_cast<double>(i) + frac) * binWidth,
                                max);
            }
            running = next;
        }
        return max;
    }

    /** histogramToJson's document, built from every dense bin. */
    JsonValue
    toJson() const
    {
        JsonValue out = JsonValue::object();
        out.set("bin_width", binWidth);
        out.set("num_bins", static_cast<std::uint64_t>(bins.size() - 1));
        out.set("sum", sum);
        out.set("max", max);
        JsonValue pairs = JsonValue::array();
        for (std::size_t i = 0; i < bins.size(); ++i) {
            if (bins[i] == 0)
                continue;
            JsonValue pair = JsonValue::array();
            pair.push(static_cast<std::uint64_t>(i));
            pair.push(bins[i]);
            pairs.push(std::move(pair));
        }
        out.set("bins", std::move(pairs));
        return out;
    }

    /** Histogram::transfer's encoding of the dense state. */
    std::string
    stateBytes() const
    {
        StateWriter w;
        w.tag("hist");
        w.d(binWidth);
        w.u64(bins.size());
        for (std::uint64_t c : bins)
            w.u64(c);
        w.u64(count);
        w.d(sum);
        w.d(max);
        w.u64(dropped);
        return w.take();
    }

    double binWidth;
    std::vector<std::uint64_t> bins;
    std::uint64_t count = 0;
    std::uint64_t dropped = 0;
    double sum = 0.0;
    double max = 0.0;
};

/** A sample mix that reaches every branch of record(). */
double
drawSample(Rng &rng, double width, std::size_t num_bins)
{
    const double span = width * static_cast<double>(num_bins);
    switch (rng.nextBounded(20)) {
    case 0:
        return std::numeric_limits<double>::quiet_NaN();
    case 1:
        return -rng.nextDouble() * span; // clamps to bin 0
    case 2:
        return -std::numeric_limits<double>::infinity();
    case 3:
        return span * (1.0 + 3.0 * rng.nextDouble()); // past the last bin
    case 4:
        // Quotients past size_t's range. (+inf is left out: JSON has no
        // infinity, so its sum could not round-trip.)
        return rng.nextBool(0.5) ? 1e300 : 0x1p70;
    default:
        // Benign-latency-like: the low fifth of the range, bin edges too.
        return rng.nextBool(0.1)
                   ? width * static_cast<double>(rng.nextBounded(num_bins / 5 + 1))
                   : rng.nextDouble() * span / 5.0;
    }
}

struct HistogramGeometry
{
    double width;
    std::size_t numBins;
};

class HistogramEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, HistogramGeometry>>
{};

TEST_P(HistogramEquivalenceTest, StoredPrefixAnswersLikeDenseBins)
{
    const auto [seed, geometry] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ull);
    // Sizes include zero samples and runs too short to reach overflow.
    const std::uint64_t samples = rng.nextBounded(3) == 0
                                      ? rng.nextBounded(4)
                                      : rng.nextBounded(4000);
    Histogram h(geometry.width, geometry.numBins);
    DenseHistogram ref(geometry.width, geometry.numBins);
    // The JSON form carries no dropped-NaN count, so a parsed histogram
    // equals one that never saw the NaNs.
    Histogram kept(geometry.width, geometry.numBins);
    for (std::uint64_t i = 0; i < samples; ++i) {
        double v = drawSample(rng, geometry.width, geometry.numBins);
        h.record(v);
        ref.record(v);
        if (!std::isnan(v))
            kept.record(v);
    }

    EXPECT_EQ(h.numBins(), geometry.numBins);
    EXPECT_EQ(h.count(), ref.count);
    EXPECT_EQ(h.droppedSamples(), ref.dropped);
    EXPECT_EQ(h.sum(), ref.sum);
    EXPECT_EQ(h.mean(), ref.count ? ref.sum / static_cast<double>(ref.count)
                                  : 0.0);
    EXPECT_EQ(h.max(), ref.max);
    const std::vector<double> pcts = {-1.0, 0.0,  0.1,  1.0,  5.0,
                                      10.0, 25.0, 50.0, 75.0, 90.0,
                                      95.0, 99.0, 99.9, 100.0, 150.0};
    for (double p : pcts)
        EXPECT_EQ(h.percentile(p), ref.percentile(p)) << "p" << p;

    // Storage ends at the highest occupied bin; the rest are zero.
    const std::vector<std::uint64_t> &stored = h.rawBins();
    ASSERT_LE(stored.size(), ref.bins.size());
    EXPECT_TRUE(stored.empty() || stored.back() != 0);
    for (std::size_t i = 0; i < ref.bins.size(); ++i)
        EXPECT_EQ(i < stored.size() ? stored[i] : 0, ref.bins[i]) << i;

    // Same JSON bytes, and the parsed copy stores the same prefix.
    const std::string dump = histogramToJson(h).dump();
    EXPECT_EQ(dump, ref.toJson().dump());
    Histogram back = histogramFromJson(JsonValue::parseOrDie(dump));
    EXPECT_TRUE(back == kept);
    EXPECT_EQ(back == h, ref.dropped == 0);
    EXPECT_EQ(back.rawBins().size(), stored.size());
    EXPECT_EQ(back.count(), ref.count);
    for (double p : pcts)
        EXPECT_EQ(back.percentile(p), ref.percentile(p)) << "p" << p;

    // Same snapshot bytes; a restore stores the same prefix.
    StateWriter w;
    StateIo save(w);
    h.transfer(save);
    const std::string state = w.take();
    EXPECT_EQ(state, ref.stateBytes());
    Histogram restored(geometry.width, geometry.numBins);
    StateReader r(state);
    StateIo load(r);
    restored.transfer(load);
    ASSERT_TRUE(r.atEnd());
    EXPECT_TRUE(restored == h);
    EXPECT_EQ(restored.rawBins().size(), stored.size());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, HistogramEquivalenceTest,
    ::testing::Combine(::testing::Range(1, 25),
                       ::testing::Values(HistogramGeometry{2.0, 4096},
                                         HistogramGeometry{0.5, 64},
                                         HistogramGeometry{1.0, 1})));

TEST(HistogramTest, EmptyHistogramStoresNoBins)
{
    Histogram h(2.0, 4096);
    EXPECT_TRUE(h.rawBins().empty());
    h.record(std::numeric_limits<double>::quiet_NaN());
    EXPECT_TRUE(h.rawBins().empty()); // a dropped sample occupies nothing
    h.record(3.0);
    EXPECT_EQ(h.rawBins().size(), 2u);
    h.reset();
    EXPECT_TRUE(h.rawBins().empty());
    Histogram back =
        histogramFromJson(JsonValue::parseOrDie(histogramToJson(h).dump()));
    EXPECT_TRUE(back.rawBins().empty());
    EXPECT_EQ(back.numBins(), 4096u);
}

} // namespace
} // namespace bh
