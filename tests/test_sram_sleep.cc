/**
 * @file
 * Unit tests for the SRAM sleep-mode model.
 */

#include <gtest/gtest.h>

#include "power/sram_sleep.hh"

namespace {

using namespace aw::power;

TEST(SramSleep, SkylakeAnchors)
{
    const auto sleep = SramSleepMode::skylakeL1L2();
    EXPECT_NEAR(asMilliwatts(sleep.sleepPowerAtP1()), 55.0, 1e-9);
    EXPECT_NEAR(asMilliwatts(sleep.sleepPowerAtPn()), 40.0, 1e-9);
    EXPECT_NEAR(sleep.capacityBytes(), 1.1 * 1024 * 1024, 1.0);
}

TEST(SramSleep, PnIsMoreEfficientThanP1)
{
    const auto sleep = SramSleepMode::skylakeL1L2();
    EXPECT_LT(sleep.sleepPowerAtPn(), sleep.sleepPowerAtP1());
}

TEST(SramSleep, SettingsMonotonicallyIncreaseLeakage)
{
    const auto sleep = SramSleepMode::skylakeL1L2();
    for (unsigned s = 1; s < SramSleepMode::kSettings; ++s) {
        EXPECT_GT(sleep.sleepPowerAtSetting(s),
                  sleep.sleepPowerAtSetting(s - 1));
    }
    // Setting 0 equals the calibrated anchor.
    EXPECT_DOUBLE_EQ(sleep.sleepPowerAtSetting(0),
                     sleep.sleepPowerAtP1());
    EXPECT_DOUBLE_EQ(sleep.sleepPowerAtSetting(0, true),
                     sleep.sleepPowerAtPn());
}

TEST(SramSleepDeathTest, SettingOutOfRange)
{
    const auto sleep = SramSleepMode::skylakeL1L2();
    EXPECT_DEATH(sleep.sleepPowerAtSetting(7), "setting");
}

TEST(SramSleep, LvrEfficiencyIsVoltageRatio)
{
    EXPECT_DOUBLE_EQ(SramSleepMode::lvrEfficiency(0.6, 1.0), 0.6);
    EXPECT_DOUBLE_EQ(SramSleepMode::lvrEfficiency(0.6, 0.75), 0.8);
    EXPECT_DOUBLE_EQ(SramSleepMode::lvrEfficiency(0.5, 0.0), 0.0);
}

TEST(SramSleep, TransitionCycleCounts)
{
    EXPECT_EQ(SramSleepMode::kEntryCycles, 3u);
    EXPECT_EQ(SramSleepMode::kExitCycles, 2u);
}

TEST(SramSleep, AreaOverheadMatchesGates)
{
    EXPECT_DOUBLE_EQ(SramSleepMode::kAreaOverhead.lo, 0.02);
    EXPECT_DOUBLE_EQ(SramSleepMode::kAreaOverhead.hi, 0.06);
}

} // namespace
