/**
 * @file
 * The shared artifact number renderer must print exactly what
 * printf's "%.10g" prints: every pinned CSV/JSON artifact was made
 * with that conversion.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>

#include "sim/format.hh"

namespace {

std::string
printfG10(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

TEST(FmtNum, MatchesPrintfOnSpecialValues)
{
    using lim = std::numeric_limits<double>;
    for (const double v :
         {0.0, -0.0, lim::infinity(), -lim::infinity(),
          lim::quiet_NaN(), -lim::quiet_NaN(), lim::denorm_min(),
          -lim::denorm_min(), lim::min() / 3.0, lim::min(),
          lim::max(), lim::lowest(), lim::epsilon(), 9007199254740992.0,
          1e308, -1e308, 1e-308, -1e-308, 1.0, 0.1, 123456789.0,
          1234567890.0, 12345678901.0, 0.0001, 0.00001, 9999999999.5,
          99999.999995, 1e-5, 1e10, 1e15, 1e16}) {
        EXPECT_EQ(aw::sim::fmtNum(v), printfG10(v)) << printfG10(v);
    }
}

TEST(FmtNum, MatchesPrintfOnSeededBitPatterns)
{
    // Uniform bit patterns cover every exponent, both signs,
    // subnormals and NaN payloads.
    std::mt19937_64 rng(20221001);
    int mismatches = 0;
    for (int i = 0; i < 100000; ++i) {
        const double v = std::bit_cast<double>(rng());
        const std::string want = printfG10(v);
        const std::string got = aw::sim::fmtNum(v);
        if (got != want && ++mismatches <= 10)
            ADD_FAILURE() << "got " << got << ", printf " << want;
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(FmtNum, MatchesPrintfOnTypicalArtifactValues)
{
    // Values artifacts really carry: shares, microseconds, watts.
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < 100000; ++i) {
        const double v = unit(rng) * std::pow(10.0, i % 13 - 4);
        ASSERT_EQ(aw::sim::fmtNum(v), printfG10(v));
    }
}

} // namespace
