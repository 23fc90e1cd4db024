/**
 * @file
 * Unit tests for src/common: time conversion, RNG, strict value parsers.
 */
#include <gtest/gtest.h>

#include "common/env.h"
#include "common/rng.h"
#include "common/types.h"

namespace bh {
namespace {

TEST(TypesTest, NsToCyclesRoundsUp)
{
    // 1 ns at 4.2 GHz = 4.2 cycles -> 5.
    EXPECT_EQ(nsToCycles(1.0), 5u);
    EXPECT_EQ(nsToCycles(0.0), 0u);
    // 10 ns = 42.0 cycles exactly.
    EXPECT_EQ(nsToCycles(10.0), 42u);
}

TEST(TypesTest, CyclesToNsInverts)
{
    EXPECT_NEAR(cyclesToNs(42), 10.0, 1e-9);
    EXPECT_NEAR(cyclesToNs(nsToCycles(100.0)), 100.0, 0.25);
}

TEST(TypesTest, MsToCyclesMatchesNs)
{
    EXPECT_EQ(msToCycles(1.0), nsToCycles(1e6));
    // 64 ms at 4.2 GHz = 268.8M cycles.
    EXPECT_EQ(msToCycles(64.0), 268800000u);
}

TEST(TypesTest, ConversionIsMonotonic)
{
    Cycle prev = 0;
    for (double ns = 0.5; ns < 400.0; ns += 0.7) {
        Cycle c = nsToCycles(ns);
        EXPECT_GE(c, prev);
        prev = c;
    }
}

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(RngTest, ZeroSeedRemapped)
{
    Rng a(0);
    EXPECT_NE(a.next(), 0u);
}

TEST(RngTest, DoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RngTest, BoundedStaysInBound)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(RngTest, BernoulliMatchesProbability)
{
    Rng rng(11);
    const double p = 0.3;
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (rng.nextBool(p))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
}

TEST(RngTest, UniformMeanIsHalf)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(SwitchTest, UnsetEmptyAndZeroAreOff)
{
    // std::getenv returns null for an unset variable.
    for (const char *text : {static_cast<const char *>(nullptr), "", "0"}) {
        bool on = true;
        EXPECT_TRUE(parseSwitch(text, &on)) << (text ? text : "(unset)");
        EXPECT_FALSE(on);
    }
}

TEST(SwitchTest, NonZeroIsOn)
{
    for (const char *text : {"1", "4567"}) {
        bool on = false;
        EXPECT_TRUE(parseSwitch(text, &on)) << text;
        EXPECT_TRUE(on);
    }
}

TEST(SwitchTest, MalformedValuesAreErrors)
{
    // Each of these once read silently as off. "-5" would wrap under
    // strtoull, "20k" and "1 " would truncate, "0x1" is not decimal, and
    // the last overflows std::uint64_t.
    for (const char *text : {"not_a_number", "-5", "20k", "1 ", "yes",
                             "0x1", "99999999999999999999999"}) {
        bool on = true;
        EXPECT_FALSE(parseSwitch(text, &on)) << text;
        EXPECT_FALSE(on);
    }
}

TEST(ParseTest, PositiveRejectsZeroAndWhatStrictRejects)
{
    std::uint64_t value = 7;
    EXPECT_TRUE(parseU64Strict("0", &value));
    EXPECT_EQ(value, 0u);
    EXPECT_FALSE(parsePositiveU64("0", &value));
    EXPECT_TRUE(parsePositiveU64("4567", &value));
    EXPECT_EQ(value, 4567u);
    for (const char *text : {"", "-5", "20k", "1 ", "99999999999999999999999"})
        EXPECT_FALSE(parsePositiveU64(text, &value)) << text;
    EXPECT_EQ(value, 4567u);
}

} // namespace
} // namespace bh
