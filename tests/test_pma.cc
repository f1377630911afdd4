/**
 * @file
 * Unit tests for the C6A PMA controller: the Fig 6 state machine
 * and the <100 ns headline latency.
 */

#include <gtest/gtest.h>

#include "core/aw_core.hh"
#include "core/pma.hh"
#include "sim/event_queue.hh"

namespace {

using namespace aw;
using namespace aw::core;
using namespace aw::sim;

class PmaTest : public ::testing::Test
{
  protected:
    core::AwCoreModel model;
};

TEST_F(PmaTest, EntryLatencyUnderTwentyNanoseconds)
{
    const auto &ctl = model.controller();
    // 9 PMA cycles at 500 MHz = 18 ns.
    EXPECT_EQ(ctl.entryLatency(), fromNs(18.0));
    EXPECT_LT(ctl.entryLatency(), fromNs(20.0));
}

TEST_F(PmaTest, ExitLatencyUnderEightyNanoseconds)
{
    const auto &ctl = model.controller();
    EXPECT_LT(ctl.exitLatency(), fromNs(80.0));
    // Dominated by the staggered ungate (<70 ns).
    EXPECT_GT(ctl.exitLatency(), ctl.wakePlan().totalWakeTime());
}

TEST_F(PmaTest, RoundTripUnderHundredNanoseconds)
{
    EXPECT_LT(model.controller().roundTripLatency(), fromNs(100.0));
}

TEST_F(PmaTest, WakePlanHasFiveZonesWithinInrush)
{
    const auto &plan = model.controller().wakePlan();
    EXPECT_EQ(plan.zoneCount(), C6aController::kWakeZones);
    EXPECT_TRUE(plan.inrushWithinLimit());
    // ~4.5 x 15 ns ~ 67.5 ns (<70 ns).
    EXPECT_LT(plan.totalWakeTime(), fromNs(70.0));
    EXPECT_GT(plan.totalWakeTime(), fromNs(60.0));
}

TEST_F(PmaTest, AwLatenciesPackageIsConsistent)
{
    const auto &ctl = model.controller();
    const auto lat = ctl.awLatencies();
    EXPECT_EQ(lat.c6a.entry, ctl.entryLatency());
    EXPECT_EQ(lat.c6a.exit, ctl.exitLatency());
    EXPECT_EQ(lat.c6ae.entry, lat.c6a.entry);
    EXPECT_EQ(lat.c6ae.exit, lat.c6a.exit);
}

TEST_F(PmaTest, EntryFlowTraceSequence)
{
    Simulator simr;
    auto &ctl = model.controller();
    bool done = false;
    ctl.runEntry(simr, [&] { done = true; });
    simr.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(ctl.phase(), PmaPhase::IdleC6a);

    // Trace: C0 -> step1 -> step2 -> step3.
    const auto &trace = ctl.trace();
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace[0].phase, PmaPhase::C0);
    EXPECT_EQ(trace[1].phase, PmaPhase::EntryClockGate);
    EXPECT_EQ(trace[2].phase, PmaPhase::EntrySaveGate);
    EXPECT_EQ(trace[3].phase, PmaPhase::EntryCacheSleep);
    // The event-driven flow takes exactly the analytic latency.
    EXPECT_EQ(simr.now(), ctl.entryLatency());
}

TEST_F(PmaTest, ExitFlowTraceSequenceAndTiming)
{
    Simulator simr;
    auto &ctl = model.controller();
    ctl.runEntry(simr, nullptr);
    simr.run();
    const Tick entry_done = simr.now();
    ctl.clearTrace();
    bool done = false;
    ctl.runExit(simr, [&] { done = true; });
    simr.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(ctl.phase(), PmaPhase::C0);
    EXPECT_EQ(simr.now() - entry_done, ctl.exitLatency());

    const auto &trace = ctl.trace();
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace[0].phase, PmaPhase::IdleC6a);
    EXPECT_EQ(trace[1].phase, PmaPhase::ExitCacheWake);
    EXPECT_EQ(trace[2].phase, PmaPhase::ExitUngate);
    EXPECT_EQ(trace[3].phase, PmaPhase::ExitClockUngate);
}

TEST_F(PmaTest, SnoopLatenciesAreCycleScale)
{
    const auto &ctl = model.controller();
    EXPECT_EQ(ctl.snoopWakeLatency(),
              C6aController::kPmaClock.cycles(2));
    EXPECT_EQ(ctl.snoopResleepLatency(),
              C6aController::kPmaClock.cycles(3));
}

TEST_F(PmaTest, ControllerPowerIsFiveMilliwatts)
{
    EXPECT_NEAR(power::asMilliwatts(C6aController::kControllerPower),
                5.0, 1e-9);
}

TEST(PmaDeathTest, ExitFromC0Panics)
{
    core::AwCoreModel model;
    Simulator simr;
    EXPECT_DEATH(model.controller().runExit(simr, nullptr),
                 "runExit");
}

TEST(PmaDeathTest, DoubleEntryPanics)
{
    core::AwCoreModel model;
    Simulator simr;
    model.controller().runEntry(simr, nullptr);
    simr.run();
    EXPECT_DEATH(model.controller().runEntry(simr, nullptr),
                 "runEntry");
}

TEST_F(PmaTest, PmaClockIsFiveHundredMegahertz)
{
    EXPECT_EQ(C6aController::kPmaClock.period(), Tick(2000));
}

TEST_F(PmaTest, RepeatedCyclesAreStable)
{
    // Enter/exit many times; latencies and phases stay consistent.
    Simulator simr;
    auto &ctl = model.controller();
    for (int i = 0; i < 50; ++i) {
        ctl.runEntry(simr, nullptr);
        simr.run();
        ASSERT_EQ(ctl.phase(), PmaPhase::IdleC6a);
        ctl.runExit(simr, nullptr);
        simr.run();
        ASSERT_EQ(ctl.phase(), PmaPhase::C0);
    }
    EXPECT_EQ(simr.now(), 50 * ctl.roundTripLatency());
}

} // namespace
