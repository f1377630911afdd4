/**
 * @file
 * Unit tests for power units and interval arithmetic.
 */

#include <gtest/gtest.h>

#include "power/units.hh"

namespace {

using namespace aw::power;

TEST(Units, MilliwattConversions)
{
    EXPECT_DOUBLE_EQ(milliwatts(250.0), 0.25);
    EXPECT_DOUBLE_EQ(asMilliwatts(0.25), 250.0);
    EXPECT_DOUBLE_EQ(microjoules(3.0), 3e-6);
}

TEST(Interval, PointAndAccessors)
{
    const auto p = Interval::point(5.0);
    EXPECT_DOUBLE_EQ(p.lo, 5.0);
    EXPECT_DOUBLE_EQ(p.hi, 5.0);
    EXPECT_DOUBLE_EQ(p.mid(), 5.0);
    EXPECT_DOUBLE_EQ(p.width(), 0.0);
}

TEST(Interval, Addition)
{
    const Interval a(1.0, 2.0), b(10.0, 20.0);
    const auto c = a + b;
    EXPECT_DOUBLE_EQ(c.lo, 11.0);
    EXPECT_DOUBLE_EQ(c.hi, 22.0);
}

TEST(Interval, ScalarMultiply)
{
    const Interval a(1.0, 2.0);
    const auto b = a * 3.0;
    EXPECT_DOUBLE_EQ(b.lo, 3.0);
    EXPECT_DOUBLE_EQ(b.hi, 6.0);
}

TEST(Interval, NegativeScalarSwapsBounds)
{
    const Interval a(1.0, 2.0);
    const auto b = a * -1.0;
    EXPECT_DOUBLE_EQ(b.lo, -2.0);
    EXPECT_DOUBLE_EQ(b.hi, -1.0);
    EXPECT_TRUE(b.valid());
}

TEST(Interval, IntervalProduct)
{
    const Interval eff(0.03, 0.05);
    const auto r = eff * Interval::point(1.0);
    EXPECT_DOUBLE_EQ(r.lo, 0.03);
    EXPECT_DOUBLE_EQ(r.hi, 0.05);
}

TEST(Interval, Contains)
{
    const Interval a(1.0, 2.0);
    EXPECT_TRUE(a.contains(1.0));
    EXPECT_TRUE(a.contains(1.5));
    EXPECT_TRUE(a.contains(2.0));
    EXPECT_FALSE(a.contains(2.1));
}

TEST(Interval, CompoundAdd)
{
    Interval total;
    total += Interval(1.0, 2.0);
    total += Interval(0.5, 0.5);
    EXPECT_DOUBLE_EQ(total.lo, 1.5);
    EXPECT_DOUBLE_EQ(total.hi, 2.5);
}

TEST(Format, MilliwattRange)
{
    EXPECT_EQ(formatMilliwatts(Interval(0.030, 0.050)), "30-50 mW");
    EXPECT_EQ(formatMilliwatts(Interval::point(0.007)), "7 mW");
    EXPECT_EQ(formatMilliwatts(Interval(0.0361, 0.0412), 1),
              "36.1-41.2 mW");
}

TEST(Format, PercentRange)
{
    EXPECT_EQ(formatPercent(Interval(0.02, 0.06)), "2-6%");
    EXPECT_EQ(formatPercent(Interval::point(0.7)), "70%");
}

} // namespace
