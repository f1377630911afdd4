/**
 * @file
 * Self-tests of the benchmark's own machinery: the caller-vs-worker
 * CPU split, the digest, and the output checks rejecting perturbed
 * results. Run them with `python3 perfbench/run.py --selftest`.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "checks.hh"
#include "exp/emit.hh"
#include "exp/spec.hh"
#include "measure.hh"

namespace {

using namespace perfbench;
using namespace aw;

/** Burn @p seconds of the calling thread's CPU. */
void
spin(double seconds)
{
    const double until = threadCpu() + seconds;
    volatile unsigned long sink = 0;
    while (threadCpu() < until)
        for (int i = 0; i < 1000; ++i)
            sink = sink + i;
}

TEST(CpuSplit, SeparatesCallerFromWorkers)
{
    const CpuSplit s = measureSplit([] {
        spin(0.05);
        std::vector<std::thread> workers;
        for (int i = 0; i < 2; ++i)
            workers.emplace_back([] { spin(0.1); });
        for (auto &w : workers)
            w.join(); // blocked: no caller CPU while waiting
    });
    EXPECT_GE(s.callerCpuS, 0.05);
    EXPECT_LT(s.callerCpuS, 0.08);
    EXPECT_GE(s.otherCpuS, 0.19);
    EXPECT_LT(s.otherCpuS, 0.26);
    EXPECT_GE(s.wallS, 0.1);
}

TEST(Digest, SensitiveToEveryByte)
{
    EXPECT_EQ(bytesDigest(""), "cbf29ce484222325");
    EXPECT_EQ(bytesDigest("a"), "af63dc4c8601ec8c"); // FNV-1a test vector
    EXPECT_NE(bytesDigest("ab"), bytesDigest("ba"));
}

cluster::FleetResult
smallFleet(bool idle_fast_path)
{
    cluster::FleetConfig fc;
    fc.servers = 12;
    fc.server = exp::configByName("aw");
    fc.server.idlePromotion = true;
    fc.routing = "pack-first";
    fc.seed = 7;
    fc.idleFastPath = idle_fast_path;
    cluster::FleetSim fleet(fc, exp::profileByName("memcached"), 100e3);
    return fleet.run(sim::fromSec(0.05), sim::fromSec(0.005));
}

TEST(FleetChecks, AcceptTheRealResult)
{
    const auto r = smallFleet(true);
    EXPECT_TRUE(fleetInvariants(r).empty());
    EXPECT_EQ(fleetDigest(r), fleetDigest(smallFleet(true)));
}

TEST(FleetChecks, RejectPerturbedResults)
{
    const auto good = smallFleet(true);
    const auto digest = fleetDigest(good);

    auto r = good;
    r.requests += 1;
    EXPECT_FALSE(fleetInvariants(r).empty());
    EXPECT_NE(fleetDigest(r), digest);

    r = good;
    r.routedPerServer[0] += 1;
    EXPECT_FALSE(fleetInvariants(r).empty());
    EXPECT_NE(fleetDigest(r), digest);

    r = good;
    r.perServer[1].requests += 1;
    EXPECT_FALSE(fleetInvariants(r).empty());
    EXPECT_NE(fleetDigest(r), digest);

    r = good;
    r.perServer.pop_back();
    EXPECT_FALSE(fleetInvariants(r).empty());

    r = good;
    r.neverRouted += 1;
    EXPECT_FALSE(fleetInvariants(r).empty());

    r = good;
    r.p99LatencyUs += 1e-9;
    EXPECT_TRUE(fleetInvariants(r).empty());
    EXPECT_NE(fleetDigest(r), digest);
}

TEST(FleetChecks, AccountingSeparatesIdleCopies)
{
    const auto fast = smallFleet(true);
    const auto slow = smallFleet(false);
    ASSERT_GT(fast.neverRouted, 1u);
    ASSERT_EQ(fleetDigest(fast), fleetDigest(slow));

    const auto a = fleetAccounting(fast, true);
    EXPECT_EQ(a.serversSimulated + a.serversIdleCopied, fast.servers);
    EXPECT_EQ(a.serversIdleCopied, fast.neverRouted - 1);
    EXPECT_EQ(a.eventsAccounted, fast.events);
    EXPECT_LT(a.eventsExecuted, a.eventsAccounted);
    ASSERT_TRUE(a.idleReference.has_value());
    EXPECT_EQ(fast.routedPerServer[*a.idleReference], 0u);

    // Without the fast path every server runs: nothing is copied and
    // the accounted events are what the fast path reports.
    const auto b = fleetAccounting(slow, false);
    EXPECT_EQ(b.serversIdleCopied, 0u);
    EXPECT_FALSE(b.idleReference.has_value());
    EXPECT_EQ(b.eventsExecuted, b.eventsAccounted);
    EXPECT_EQ(b.eventsExecuted, a.eventsAccounted);
    EXPECT_EQ(a.criticalServerEvents, b.criticalServerEvents);
}

exp::ExperimentSpec
smallSpec()
{
    exp::ExperimentSpec spec;
    spec.workloads = {"memcached"};
    spec.configs = {"c1c6", "aw"};
    spec.qps = {50e3};
    spec.seconds = 0.02;
    return spec;
}

TEST(SweepChecks, AcceptTheRealResult)
{
    const auto spec = smallSpec();
    const auto r = exp::SweepRunner(2).run(spec);
    EXPECT_TRUE(sweepInvariants(r, spec.expand()).empty());
}

TEST(SweepChecks, RejectPerturbedResults)
{
    const auto spec = smallSpec();
    const auto grid = spec.expand();
    const auto good = exp::SweepRunner(2).run(spec);
    const auto csv = exp::toCsv(good);

    auto r = good;
    r.points.pop_back();
    EXPECT_FALSE(sweepInvariants(r, grid).empty());

    r = good;
    std::swap(r.points[0], r.points[1]);
    EXPECT_FALSE(sweepInvariants(r, grid).empty());

    r = good;
    r.points[1].point.config = "c1c6";
    EXPECT_FALSE(sweepInvariants(r, grid).empty());

    r = good;
    r.points[0].requests = 0;
    EXPECT_FALSE(sweepInvariants(r, grid).empty());

    r = good;
    r.points[0].p99LatencyUs *= 1.0 + 1e-6;
    EXPECT_TRUE(sweepInvariants(r, grid).empty());
    EXPECT_NE(bytesDigest(exp::toCsv(r)), bytesDigest(csv));
}

} // namespace
