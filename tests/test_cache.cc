/**
 * @file
 * Unit tests for the private cache model and the flush-time model
 * that dominates C6 entry.
 */

#include <gtest/gtest.h>

#include "uarch/cache.hh"

namespace {

using namespace aw::uarch;
using namespace aw::sim;

TEST(CacheGeometry, SkylakeCapacities)
{
    const auto caches = PrivateCaches::skylakeServer();
    EXPECT_EQ(caches.l1i().capacityBytes, 32u * 1024);
    EXPECT_EQ(caches.l1d().capacityBytes, 32u * 1024);
    EXPECT_EQ(caches.l2().capacityBytes, 1024u * 1024);
    // ~1.1 MB total, the figure used for the CCSM power scaling.
    EXPECT_EQ(caches.totalCapacityBytes(), 1088u * 1024);
    EXPECT_EQ(caches.totalLines(), 1088u * 1024 / 64);
}

TEST(FlushModel, CalibrationAnchorReproduced)
{
    // The paper's reference: flushing 50% dirty at 800 MHz takes
    // ~75 us.
    const auto caches = PrivateCaches::skylakeServer();
    const Tick t = caches.flushModel().flushTime(
        caches.totalLines(), 0.5, Frequency::mhz(800.0));
    EXPECT_NEAR(toUs(t), 75.0, 0.1);
}

TEST(FlushModel, MonotonicInDirtyFraction)
{
    const auto caches = PrivateCaches::skylakeServer();
    const auto &fm = caches.flushModel();
    const auto lines = caches.totalLines();
    Tick prev = 0;
    for (double d = 0.0; d <= 1.0; d += 0.1) {
        const Tick t = fm.flushTime(lines, d, Frequency::ghz(2.2));
        EXPECT_GE(t, prev);
        prev = t;
    }
}

TEST(FlushModel, FasterClockFlushesFaster)
{
    const auto caches = PrivateCaches::skylakeServer();
    const auto &fm = caches.flushModel();
    const auto lines = caches.totalLines();
    EXPECT_LT(fm.flushTime(lines, 0.5, Frequency::ghz(2.2)),
              fm.flushTime(lines, 0.5, Frequency::mhz(800.0)));
}

TEST(FlushModel, CleanCacheStillPaysTheScan)
{
    const auto caches = PrivateCaches::skylakeServer();
    const Tick t = caches.flushModel().flushTime(
        caches.totalLines(), 0.0, Frequency::mhz(800.0));
    EXPECT_GT(t, 0u);
    // Scan-only: lines / 800 MHz ~ 21.8 us.
    EXPECT_NEAR(toUs(t), 21.76, 0.1);
}

TEST(FlushModelDeathTest, CalibrateRejectsBadInput)
{
    EXPECT_DEATH(FlushModel::calibrate(0, 0.5, Frequency::ghz(1.0),
                                       fromUs(10.0)),
                 "lines");
    EXPECT_DEATH(FlushModel::calibrate(100, 0.0, Frequency::ghz(1.0),
                                       fromUs(10.0)),
                 "dirty");
}

TEST(PrivateCaches, DirtyFractionTracking)
{
    auto caches = PrivateCaches::skylakeServer();
    EXPECT_DOUBLE_EQ(caches.dirtyFraction(), 0.0);
    caches.setDirtyFraction(0.5);
    EXPECT_DOUBLE_EQ(caches.dirtyFraction(), 0.5);
}

TEST(PrivateCachesDeathTest, DirtyFractionValidated)
{
    auto caches = PrivateCaches::skylakeServer();
    EXPECT_DEATH(caches.setDirtyFraction(1.5), "out of");
    EXPECT_DEATH(caches.setDirtyFraction(-0.1), "out of");
}

TEST(PrivateCaches, TouchMovesTowardWriteMix)
{
    auto caches = PrivateCaches::skylakeServer();
    caches.setDirtyFraction(0.0);
    for (int i = 0; i < 200; ++i)
        caches.touch(1.0);
    EXPECT_GT(caches.dirtyFraction(), 0.99);
    for (int i = 0; i < 200; ++i)
        caches.touch(0.0);
    EXPECT_LT(caches.dirtyFraction(), 0.01);
}

TEST(PrivateCaches, TouchConvergesToWriteFraction)
{
    auto caches = PrivateCaches::skylakeServer();
    caches.setDirtyFraction(0.0);
    for (int i = 0; i < 1000; ++i)
        caches.touch(0.25);
    EXPECT_NEAR(caches.dirtyFraction(), 0.25, 0.01);
}

TEST(PrivateCaches, FlushResetsDirtyAndState)
{
    auto caches = PrivateCaches::skylakeServer();
    EXPECT_EQ(caches.state(), CacheDomainState::Active);
    caches.setDirtyFraction(0.8);
    caches.flush();
    EXPECT_DOUBLE_EQ(caches.dirtyFraction(), 0.0);
    EXPECT_EQ(caches.state(), CacheDomainState::Flushed);
}

TEST(PrivateCaches, SnoopServiceTime)
{
    const auto caches = PrivateCaches::skylakeServer();
    const auto freq = Frequency::ghz(2.2);
    const Tick miss = caches.snoopServiceTime(freq, false);
    const Tick hit = caches.snoopServiceTime(freq, true);
    EXPECT_EQ(miss, freq.cycles(PrivateCaches::kSnoopTagCycles));
    EXPECT_GT(hit, miss);
    EXPECT_EQ(hit, freq.cycles(PrivateCaches::kSnoopTagCycles +
                               PrivateCaches::kSnoopDataCycles));
}

/** Property: flush time decomposes linearly in dirty fraction. */
class FlushLinearity : public ::testing::TestWithParam<double>
{
};

TEST_P(FlushLinearity, LinearInDirty)
{
    const double d = GetParam();
    const auto caches = PrivateCaches::skylakeServer();
    const auto &fm = caches.flushModel();
    const auto lines = caches.totalLines();
    const auto freq = Frequency::ghz(1.0);
    const double t0 = toUs(fm.flushTime(lines, 0.0, freq));
    const double t1 = toUs(fm.flushTime(lines, 1.0, freq));
    const double td = toUs(fm.flushTime(lines, d, freq));
    EXPECT_NEAR(td, t0 + d * (t1 - t0), 0.01);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FlushLinearity,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

} // namespace
