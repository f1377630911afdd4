/**
 * @file
 * Epoch-parallel fleet kernel tests: the determinism contract of
 * the warehouse-scale execution path.
 *
 * The kernel's promise is that its three levers -- per-server worker
 * threads, routing-decision epochs, and the homogeneous-idle fast
 * path -- are pure execution strategies: every FleetResult field and
 * every emitted artifact byte must match the serial reference
 * exactly. These tests pin that promise at the awkward geometries
 * (K=1, K far above the outstanding count, an epoch boundary landing
 * exactly on a routing decision) and across 1/2/8 fleet threads.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cluster/fleet.hh"
#include "exp/emit.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "workload/profiles.hh"
#include "workload/trace.hh"

namespace {

using namespace aw;
using namespace aw::cluster;

FleetConfig
kernelFleet(const std::string &routing, unsigned servers)
{
    FleetConfig fc;
    fc.servers = servers;
    fc.server = server::ServerConfig::legacyC1C6();
    fc.server.cores = 4;
    fc.server.idlePromotion = true;
    fc.routing = routing;
    return fc;
}

/** Assert two fleet runs are the same run, field for field. */
void
expectSameRun(const FleetResult &a, const FleetResult &b)
{
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.routed, b.routed);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.routedPerServer, b.routedPerServer);
    EXPECT_EQ(a.neverRouted, b.neverRouted);
    EXPECT_DOUBLE_EQ(a.fleetPower, b.fleetPower);
    EXPECT_DOUBLE_EQ(a.fleetEnergy, b.fleetEnergy);
    EXPECT_DOUBLE_EQ(a.energyPerRequestMj, b.energyPerRequestMj);
    EXPECT_DOUBLE_EQ(a.avgLatencyUs, b.avgLatencyUs);
    EXPECT_DOUBLE_EQ(a.p99LatencyUs, b.p99LatencyUs);
    EXPECT_DOUBLE_EQ(a.p999LatencyUs, b.p999LatencyUs);
    EXPECT_DOUBLE_EQ(a.deepIdleShare, b.deepIdleShare);
    EXPECT_DOUBLE_EQ(a.minServerDeepShare, b.minServerDeepShare);
    EXPECT_DOUBLE_EQ(a.maxServerDeepShare, b.maxServerDeepShare);
    EXPECT_DOUBLE_EQ(a.busiestShareOfLoad, b.busiestShareOfLoad);
    ASSERT_EQ(a.perServer.size(), b.perServer.size());
    for (std::size_t i = 0; i < a.perServer.size(); ++i) {
        EXPECT_EQ(a.perServer[i].requests, b.perServer[i].requests)
            << "server " << i;
        EXPECT_DOUBLE_EQ(a.perServer[i].coreEnergy,
                         b.perServer[i].coreEnergy)
            << "server " << i;
        EXPECT_DOUBLE_EQ(a.perServer[i].avgLatencyUs,
                         b.perServer[i].avgLatencyUs)
            << "server " << i;
    }
}

// ------------------------------------------------- edge geometries

TEST(FleetKernel, SingleServerFleetRoutesEverythingToIt)
{
    // K=1 degenerates every policy to "route to server 0"; the
    // kernel must handle the one-slot partition (and a worker count
    // above the server count) without special-casing.
    for (const char *routing : {"round-robin", "pack-first"}) {
        auto fc = kernelFleet(routing, 1);
        fc.fleetThreads = 8; // more workers than servers
        FleetSim fleet(fc, workload::WorkloadProfile::memcached(),
                       20e3);
        const auto r =
            fleet.run(sim::fromMs(60.0), sim::fromMs(6.0));
        ASSERT_EQ(r.routedPerServer.size(), 1u);
        EXPECT_EQ(r.routedPerServer[0], r.routed);
        EXPECT_GT(r.requests, 0u);
        EXPECT_EQ(r.neverRouted, 0u);
        EXPECT_DOUBLE_EQ(r.busiestShareOfLoad, 1.0);
    }
}

TEST(FleetKernel, MoreServersThanOutstandingLeavesSparesIdle)
{
    // K far above the outstanding request count: pack-first
    // concentrates the trickle of load on the first server(s) and
    // the spares never see an arrival. Those spares are exactly the
    // homogeneous-idle fast path's population -- and their runs
    // must be identical to each other (idle evolution draws no
    // per-server randomness).
    auto fc = kernelFleet("pack-first", 32);
    FleetSim fleet(fc, workload::WorkloadProfile::memcached(), 4e3);
    const auto r = fleet.run(sim::fromMs(60.0), sim::fromMs(6.0));

    EXPECT_GT(r.neverRouted, 0u);
    ASSERT_EQ(r.perServer.size(), 32u);
    std::vector<unsigned> idle;
    for (unsigned i = 0; i < 32; ++i)
        if (r.routedPerServer[i] == 0)
            idle.push_back(i);
    ASSERT_EQ(idle.size(), r.neverRouted);
    ASSERT_GE(idle.size(), 2u);
    for (std::size_t k = 1; k < idle.size(); ++k) {
        EXPECT_DOUBLE_EQ(r.perServer[idle[0]].coreEnergy,
                         r.perServer[idle[k]].coreEnergy);
        EXPECT_EQ(r.perServer[idle[0]].requests,
                  r.perServer[idle[k]].requests);
        EXPECT_EQ(r.perServer[idle[0]].events,
                  r.perServer[idle[k]].events);
    }
    // Round-robin, by contrast, touches every server.
    FleetSim spread(kernelFleet("round-robin", 32),
                    workload::WorkloadProfile::memcached(), 4e3);
    EXPECT_EQ(
        spread.run(sim::fromMs(60.0), sim::fromMs(6.0)).neverRouted,
        0u);
}

TEST(FleetKernel, IdleFastPathIsBitIdentical)
{
    // The memoization contract: reusing one idle reference run for
    // every never-routed server must reproduce the
    // simulate-everything reference bit for bit, events included.
    // Snoop traffic is seeded per server, so an idle server with
    // snoops is not a copy of another one.
    for (const double snoops : {0.0, 20000.0}) {
        SCOPED_TRACE(snoops);
        auto once = [snoops](bool fast_path) {
            auto fc = kernelFleet("pack-first", 24);
            fc.server.snoopRatePerSec = snoops;
            fc.idleFastPath = fast_path;
            FleetSim fleet(fc, workload::WorkloadProfile::memcached(),
                           5e3);
            return fleet.run(sim::fromMs(80.0), sim::fromMs(8.0));
        };
        const auto fast = once(true);
        const auto reference = once(false);
        EXPECT_GT(fast.neverRouted, 0u); // idle servers exist
        expectSameRun(fast, reference);
    }
}

TEST(FleetKernel, EpochBoundaryOnRoutingDecisionIsInvisible)
{
    // Deterministic arrivals every 50 us make every routing decision
    // land on a multiple of 50 us; a 1 ms epoch puts a boundary
    // drain exactly ON every 20th decision. The boundary drain must
    // pop exactly what the per-decision drain would have popped, so
    // aligned, misaligned and absent epochs are all the same run.
    auto once = [](double epoch_s) {
        workload::ArrivalTrace trace(
            std::vector<sim::Tick>(40, sim::fromUs(50.0)));
        auto fc = kernelFleet("pack-first", 4);
        fc.epochSeconds = epoch_s;
        FleetSim fleet(fc, workload::WorkloadProfile::memcached(),
                       20e3);
        fleet.setArrivalTrace(trace);
        return fleet.run(sim::fromMs(40.0), sim::fromMs(4.0));
    };
    const auto one_epoch = once(0.0);
    const auto aligned = once(1e-3);   // boundary == decision tick
    const auto offbeat = once(3.7e-4); // boundary between decisions
    EXPECT_GT(one_epoch.requests, 0u);
    expectSameRun(one_epoch, aligned);
    expectSameRun(one_epoch, offbeat);
}

TEST(FleetKernel, ThreadCountAndEpochAreInvisibleTogether)
{
    auto once = [](unsigned threads, double epoch_s) {
        auto fc = kernelFleet("pack-first", 8);
        fc.fleetThreads = threads;
        fc.epochSeconds = epoch_s;
        FleetSim fleet(fc, workload::WorkloadProfile::memcached(),
                       30e3);
        return fleet.run(sim::fromMs(60.0), sim::fromMs(6.0));
    };
    const auto serial = once(1, 0.0);
    expectSameRun(serial, once(2, 0.0));
    expectSameRun(serial, once(8, 0.0));
    expectSameRun(serial, once(8, 0.01));
    expectSameRun(serial, once(2, 0.013)); // misaligned epoch
}

// ------------------------------------------- artifact byte identity

TEST(FleetKernel, SweepArtifactsAreByteIdenticalAcrossKernelKnobs)
{
    // The full artifact surface -- sweep CSV/JSON, the aw-timeline/3
    // fold and the aw-trace/1 attribution -- rendered from the
    // serial reference and from every kernel configuration must be
    // the same bytes.
    auto sweep = [](unsigned fleet_threads, double epoch_s) {
        exp::ExperimentSpec spec;
        spec.name = "kernel-identity";
        spec.workloads = {"memcached"};
        spec.configs = {"aw", "c1c6"};
        spec.policies = {"round-robin", "pack-first"};
        spec.fleetSizes = {8};
        spec.qps = {300e3};
        spec.seconds = 0.1;
        spec.seed = 42;
        spec.timelineIntervalSeconds = 0.01;
        spec.traceRequests = true;
        spec.fleetThreads = fleet_threads;
        spec.epochSeconds = epoch_s;
        return exp::SweepRunner(1).run(spec);
    };
    const auto reference = sweep(1, 0.0);
    const std::string csv = exp::toCsv(reference);
    const std::string json = exp::toJson(reference);
    const std::string timeline = exp::toTimelineCsv(reference);
    const std::string trace = exp::toTraceCsv(reference);
    struct Knobs
    {
        unsigned threads;
        double epoch;
    };
    for (const Knobs k : {Knobs{2, 0.0}, Knobs{8, 0.0},
                          Knobs{8, 0.02}, Knobs{2, 0.0073}}) {
        const auto result = sweep(k.threads, k.epoch);
        EXPECT_EQ(exp::toCsv(result), csv)
            << "threads=" << k.threads << " epoch=" << k.epoch;
        EXPECT_EQ(exp::toJson(result), json)
            << "threads=" << k.threads << " epoch=" << k.epoch;
        EXPECT_EQ(exp::toTimelineCsv(result), timeline)
            << "threads=" << k.threads << " epoch=" << k.epoch;
        EXPECT_EQ(exp::toTraceCsv(result), trace)
            << "threads=" << k.threads << " epoch=" << k.epoch;
    }
}

// --------------------------------------------- scale (the headline)

TEST(FleetKernel, PackFirstPlusAwBeatsSpreadTunedC6AtFleetScale)
{
    // The fleet_10k claim in miniature: on a mostly-idle diurnal
    // fleet, consolidating onto few servers under the AW config
    // draws less power than spreading the same load round-robin
    // over tuned-C6 servers -- the PR-2 power gap, reproduced
    // through the epoch-parallel kernel with the fast path on.
    auto once = [](const char *config, const char *routing) {
        FleetConfig fc;
        fc.servers = 100;
        fc.server = exp::configByName(config);
        fc.server.idlePromotion = true;
        fc.routing = routing;
        fc.seed = 42;
        fc.schedule = cluster::RateSchedule::sinusoidal(
            sim::fromMs(200.0), 0.6);
        fc.fleetThreads = 0; // hardware concurrency
        fc.epochSeconds = 0.05;
        FleetSim fleet(fc, exp::profileByName("memcached"), 30e3);
        return fleet.run(sim::fromMs(200.0), sim::fromMs(20.0));
    };
    const auto packed = once("aw", "pack-first");
    const auto spread = once("c1c6", "round-robin");
    EXPECT_GT(packed.neverRouted, 50u); // mostly-idle fleet
    EXPECT_EQ(spread.neverRouted, 0u);
    EXPECT_LT(packed.fleetPower, spread.fleetPower);
    EXPECT_GT(packed.maxServerDeepShare, 0.95);
}

// ----------------------------------------------------- validation

TEST(FleetKernelDeathTest, RejectsBadEpochLength)
{
    const auto profile = workload::WorkloadProfile::memcached();
    auto fc = kernelFleet("round-robin", 2);
    fc.epochSeconds = -0.5;
    EXPECT_EXIT(FleetSim(fc, profile, 1e3),
                testing::ExitedWithCode(1), "epoch");
    fc.epochSeconds = std::nan("");
    EXPECT_EXIT(FleetSim(fc, profile, 1e3),
                testing::ExitedWithCode(1), "epoch");
}

} // namespace
