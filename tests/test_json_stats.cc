/**
 * @file
 * Tests for the JSON layer (stats/json.h), histogram percentile edge
 * cases (stats/histogram.h), histogram JSON round-tripping
 * (stats/json_stats.h).
 */
#include <gtest/gtest.h>

#include "stats/histogram.h"
#include "stats/json.h"
#include "stats/json_stats.h"

namespace bh {
namespace {

// ------------------------------------------------------------ JsonValue

TEST(JsonTest, DumpAndParseScalars)
{
    EXPECT_EQ(JsonValue().dump(), "null");
    EXPECT_EQ(JsonValue(true).dump(), "true");
    EXPECT_EQ(JsonValue(false).dump(), "false");
    EXPECT_EQ(JsonValue(42).dump(), "42");
    EXPECT_EQ(JsonValue(std::uint64_t{1234567890123}).dump(),
              "1234567890123");
    EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");

    JsonValue v;
    ASSERT_TRUE(JsonValue::parse("3.5", &v));
    EXPECT_DOUBLE_EQ(v.asDouble(), 3.5);
    ASSERT_TRUE(JsonValue::parse("  true ", &v));
    EXPECT_TRUE(v.asBool());
    ASSERT_TRUE(JsonValue::parse("\"a\\nb\"", &v));
    EXPECT_EQ(v.asString(), "a\nb");
}

TEST(JsonTest, DoubleRoundTripIsExact)
{
    const double values[] = {0.72237629069954734, 1.0 / 3.0, 1e-300,
                             123456789.123456789, -0.0, 5.4407584830339317};
    for (double x : values) {
        JsonValue parsed;
        ASSERT_TRUE(JsonValue::parse(JsonValue(x).dump(), &parsed));
        EXPECT_EQ(parsed.asDouble(), x);
    }
}

TEST(JsonTest, ObjectPreservesInsertionOrder)
{
    JsonValue obj = JsonValue::object();
    obj.set("zebra", 1);
    obj.set("apple", 2);
    obj.set("mango", 3);
    EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");

    obj.set("apple", 9); // replace in place, order unchanged
    EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":9,\"mango\":3}");
}

TEST(JsonTest, NestedRoundTrip)
{
    JsonValue doc = JsonValue::object();
    doc.set("name", "mix \"HHMA\"\n");
    JsonValue arr = JsonValue::array();
    arr.push(1);
    arr.push(JsonValue());
    arr.push(false);
    JsonValue inner = JsonValue::object();
    inner.set("x", 2.5);
    arr.push(std::move(inner));
    doc.set("data", std::move(arr));

    for (int indent : {-1, 2}) {
        JsonValue parsed;
        ASSERT_TRUE(JsonValue::parse(doc.dump(indent), &parsed));
        EXPECT_TRUE(parsed == doc);
    }
}

TEST(JsonTest, ParseRejectsMalformedInput)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(JsonValue::parse("", &v, &err));
    EXPECT_FALSE(JsonValue::parse("{", &v, &err));
    EXPECT_FALSE(JsonValue::parse("[1,]", &v, &err));
    EXPECT_FALSE(JsonValue::parse("{\"a\" 1}", &v, &err));
    EXPECT_FALSE(JsonValue::parse("\"unterminated", &v, &err));
    EXPECT_FALSE(JsonValue::parse("tru", &v, &err));
    EXPECT_FALSE(JsonValue::parse("1 2", &v, &err));
    EXPECT_FALSE(err.empty());
}

// -------------------------------------------- Histogram edge cases

TEST(HistogramTest, EmptyHistogramPercentiles)
{
    Histogram h(2.0, 16);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0), 0.0);
    EXPECT_EQ(h.percentile(50), 0.0);
    EXPECT_EQ(h.percentile(100), 0.0);
}

TEST(HistogramTest, SingleSamplePercentiles)
{
    Histogram h(2.0, 16);
    h.record(5.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.max(), 5.0);
    // p0 is the histogram's lower bound on the minimum: the lower edge
    // of the sample's bin [4, 6) — not a flat 0.
    EXPECT_EQ(h.percentile(0), 4.0);
    EXPECT_EQ(h.percentile(100), 5.0);     // p100 is the observed max
    // Any mid percentile interpolates inside the bin but is capped at
    // the observed max: a lone sample's p99 must not exceed the sample.
    EXPECT_GE(h.percentile(50), 4.0);
    EXPECT_LE(h.percentile(50), 5.0);
    EXPECT_EQ(h.percentile(99), 5.0);
}

TEST(HistogramTest, InterpolationNeverExceedsObservedMax)
{
    // 10 samples at 1.0 in bin [1, 2): the raw interpolation formula for
    // p99 lands at 1.99 * width, past every recorded value. The observed
    // max must cap it.
    Histogram h(1.0, 16);
    for (int i = 0; i < 10; ++i)
        h.record(1.0);
    EXPECT_EQ(h.percentile(99), 1.0);
    EXPECT_EQ(h.percentile(100), 1.0);
    // Monotone through the cap.
    double prev = 0.0;
    for (double p = 0; p <= 100; p += 5) {
        double v = h.percentile(p);
        EXPECT_GE(v, prev);
        EXPECT_LE(v, h.max());
        prev = v;
    }
}

TEST(HistogramTest, P0ReportsFirstOccupiedBin)
{
    Histogram h(10.0, 16);
    h.record(57.0); // bin [50, 60)
    h.record(99.0); // bin [90, 100)
    EXPECT_EQ(h.percentile(0), 50.0);
    EXPECT_EQ(h.percentile(-1), 50.0); // clamped below
}

TEST(HistogramTest, OverflowOnlySamplesReportMaxEverywhere)
{
    Histogram h(1.0, 4); // regular bins cover [0, 4)
    h.record(1000.0);
    // Mid/high percentiles of an overflow-only population report the
    // observed max (the overflow bin has no upper edge to interpolate
    // toward); p0 reports the overflow bin's lower edge — the only
    // lower bound the histogram still knows.
    EXPECT_EQ(h.percentile(0), 4.0);
    EXPECT_EQ(h.percentile(50), 1000.0);
    EXPECT_EQ(h.percentile(100), 1000.0);
}

TEST(HistogramTest, P0AndP100OnManySamples)
{
    Histogram h(1.0, 64);
    for (int i = 0; i < 100; ++i)
        h.record(static_cast<double>(i % 10));
    EXPECT_EQ(h.percentile(0), 0.0);
    EXPECT_EQ(h.percentile(-5), 0.0);   // clamped below
    EXPECT_EQ(h.percentile(100), 9.0);
    EXPECT_EQ(h.percentile(150), 9.0);  // clamped above
    EXPECT_LE(h.percentile(50), h.percentile(90));
}

TEST(HistogramTest, OverflowBinReportsObservedMax)
{
    Histogram h(1.0, 4); // regular bins cover [0, 4)
    h.record(1000.0);
    h.record(2000.0);
    EXPECT_EQ(h.max(), 2000.0);
    EXPECT_EQ(h.percentile(99), 2000.0);
}

TEST(HistogramTest, NegativeSamplesClampToZero)
{
    Histogram h(1.0, 8);
    h.record(-3.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.rawBins()[0], 1u);
}

// ------------------------------------------------ JSON round-tripping

TEST(JsonStatsTest, HistogramRoundTripsThroughJson)
{
    Histogram h(2.0, 64);
    for (int i = 0; i < 500; ++i)
        h.record(static_cast<double>((i * 7) % 130)); // incl. overflow
    h.record(1e6); // deep overflow

    std::string text = histogramToJson(h).dump();
    Histogram back = histogramFromJson(JsonValue::parseOrDie(text));

    EXPECT_TRUE(back == h);
    EXPECT_EQ(back.count(), h.count());
    EXPECT_EQ(back.mean(), h.mean());
    EXPECT_EQ(back.max(), h.max());
    for (double p : {0.0, 50.0, 90.0, 99.0, 99.9, 100.0})
        EXPECT_EQ(back.percentile(p), h.percentile(p));
}

TEST(JsonStatsTest, EmptyHistogramRoundTrips)
{
    Histogram h(0.5, 8);
    Histogram back =
        histogramFromJson(JsonValue::parseOrDie(histogramToJson(h).dump()));
    EXPECT_TRUE(back == h);
    EXPECT_EQ(back.count(), 0u);
}

TEST(JsonStatsTest, SparseBinsEncodeCompactly)
{
    Histogram h(1.0, 4096);
    h.record(3.0);
    JsonValue v = histogramToJson(h);
    EXPECT_EQ(v.get("bins").size(), 1u); // one populated bin, not 4097
}

} // namespace
} // namespace bh
