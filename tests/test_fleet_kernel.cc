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
    EXPECT_EQ(a.routingName, b.routingName);
    EXPECT_EQ(a.configName, b.configName);
    EXPECT_EQ(a.workloadName, b.workloadName);
    EXPECT_EQ(a.servers, b.servers);
    EXPECT_DOUBLE_EQ(a.offeredQps, b.offeredQps);
    EXPECT_EQ(a.window, b.window);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_DOUBLE_EQ(a.achievedQps, b.achievedQps);
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
    for (std::size_t s = 0; s < cstate::kNumCStates; ++s) {
        EXPECT_DOUBLE_EQ(a.residency.share[s], b.residency.share[s])
            << "state " << s;
        EXPECT_EQ(a.residency.entries[s], b.residency.entries[s])
            << "state " << s;
    }
    EXPECT_DOUBLE_EQ(a.deepIdleShare, b.deepIdleShare);
    EXPECT_DOUBLE_EQ(a.minServerDeepShare, b.minServerDeepShare);
    EXPECT_DOUBLE_EQ(a.maxServerDeepShare, b.maxServerDeepShare);
    EXPECT_DOUBLE_EQ(a.busiestShareOfLoad, b.busiestShareOfLoad);
    EXPECT_DOUBLE_EQ(a.capThrottleShare, b.capThrottleShare);
    EXPECT_EQ(a.forcedIdleNaps, b.forcedIdleNaps);
    EXPECT_DOUBLE_EQ(a.maxTempC, b.maxTempC);
    ASSERT_EQ(a.perServer.size(), b.perServer.size());
    for (std::size_t i = 0; i < a.perServer.size(); ++i) {
        EXPECT_EQ(a.perServer[i].requests, b.perServer[i].requests)
            << "server " << i;
        EXPECT_EQ(a.perServer[i].events, b.perServer[i].events)
            << "server " << i;
        EXPECT_DOUBLE_EQ(a.perServer[i].coreEnergy,
                         b.perServer[i].coreEnergy)
            << "server " << i;
        EXPECT_DOUBLE_EQ(a.perServer[i].packagePower,
                         b.perServer[i].packagePower)
            << "server " << i;
        EXPECT_DOUBLE_EQ(a.perServer[i].avgLatencyUs,
                         b.perServer[i].avgLatencyUs)
            << "server " << i;
    }
    EXPECT_EQ(a.timeline.has_value(), b.timeline.has_value());
    EXPECT_EQ(a.trace.has_value(), b.trace.has_value());
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
    // simulate-everything reference bit for bit, events included,
    // and so must the idle copies of its timeline and trace: the
    // folded timeline and the merged trace are the same bytes, at
    // one and at several fleet threads. Snoop traffic is seeded per
    // server, so an idle server with snoops is not a copy of another
    // one.
    for (const double snoops : {0.0, 20000.0}) {
        SCOPED_TRACE(snoops);
        auto once = [snoops](bool fast_path, unsigned threads) {
            auto fc = kernelFleet("pack-first", 24);
            fc.server.snoopRatePerSec = snoops;
            fc.idleFastPath = fast_path;
            fc.fleetThreads = threads;
            FleetSim fleet(fc, workload::WorkloadProfile::memcached(),
                           5e3);
            analysis::TimelineConfig timeline;
            timeline.intervalSeconds = 0.01;
            fleet.enableTimeline(timeline);
            fleet.enableRequestTrace(analysis::TraceConfig{});
            return fleet.run(sim::fromMs(80.0), sim::fromMs(8.0));
        };
        const auto reference = once(false, 1);
        ASSERT_TRUE(reference.timeline && reference.trace);
        EXPECT_FALSE(reference.trace->spans.empty());
        for (const unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(threads);
            const auto fast = once(true, threads);
            EXPECT_GT(fast.neverRouted, 0u); // idle servers exist
            expectSameRun(fast, reference);
            ASSERT_TRUE(fast.timeline && fast.trace);
            EXPECT_EQ(analysis::timelineCsv(*fast.timeline),
                      analysis::timelineCsv(*reference.timeline));
            EXPECT_EQ(analysis::traceCsv(*fast.trace),
                      analysis::traceCsv(*reference.trace));
            EXPECT_EQ(fast.trace->wakesEmitted,
                      reference.trace->wakesEmitted);
            EXPECT_EQ(fast.trace->routing.size(),
                      reference.trace->routing.size());
        }
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
    // Every routing policy, at 1, 2 and 8 threads, with and without
    // epochs, is the serial one-epoch run. Beyond one thread the
    // occupancy-reading policies draw their service-time estimates
    // ahead on a producer thread; the blind ones keep no estimate.
    // route-to-headroom runs under a cap, whose redistribution is
    // on only when epochs are (so there the epoch is part of the
    // run, and only the thread count must be invisible). The last
    // case is pack-first at capacity 1 over 4160 servers, driven in
    // bursts long enough to fill every server and spill: its
    // under-capacity index answers past the first 64-server word
    // and the first 4096-server summary word.
    struct Case
    {
        std::string routing;
        unsigned servers = 8;
        double capWatts = 0.0;
        bool burst = false;
    };
    std::vector<Case> cases;
    for (const auto &name : routingPolicyNames())
        cases.push_back(Case{name, 8,
                             name == "route-to-headroom" ? 16.0 : 0.0});
    cases.push_back(Case{"pack-first", 4160, 0.0, /*burst=*/true});

    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message()
                     << c.routing << " K=" << c.servers);
        auto once = [&c](unsigned threads, double epoch_s) {
            auto fc = kernelFleet(c.routing, c.servers);
            fc.fleetThreads = threads;
            fc.epochSeconds = epoch_s;
            fc.server.cap.capWatts = c.capWatts;
            if (!c.burst) {
                FleetSim fleet(fc,
                               workload::WorkloadProfile::memcached(),
                               30e3);
                return fleet.run(sim::fromMs(60.0), sim::fromMs(6.0));
            }
            // 4400 arrivals 1 ns apart, far shorter than a 500 us
            // query, then 3 ms for the burst to drain.
            fc.packCapacity = 1;
            std::vector<sim::Tick> gaps(4400, sim::fromNs(1.0));
            gaps.push_back(sim::fromMs(3.0));
            FleetSim fleet(fc, workload::WorkloadProfile::mysql(),
                           1e6);
            fleet.setArrivalTrace(workload::ArrivalTrace(gaps));
            return fleet.run(sim::fromMs(6.0), sim::fromMs(0.6));
        };
        const auto serial = once(1, 0.0);
        EXPECT_GT(serial.requests, 0u);
        if (c.burst) {
            ASSERT_EQ(serial.routedPerServer.size(), 4160u);
            EXPECT_EQ(serial.neverRouted, 0u);
            EXPECT_GT(serial.routedPerServer[64], 0u);
            EXPECT_GT(serial.routedPerServer[4096], 0u);
            EXPECT_GT(serial.routedPerServer[0],
                      serial.routedPerServer[4159]); // spilled
        }
        for (const double epoch_s : {0.0, 0.0013}) {
            SCOPED_TRACE(epoch_s);
            const bool epoch_shapes_run =
                c.capWatts > 0.0 && epoch_s > 0.0;
            const auto reference =
                epoch_shapes_run ? once(1, epoch_s) : serial;
            if (epoch_shapes_run) {
                EXPECT_GT(reference.capThrottleShare, 0.0);
            }
            for (const unsigned threads : {1u, 2u, 8u}) {
                if (threads == 1 && (epoch_s == 0.0 || epoch_shapes_run))
                    continue; // that is the reference itself
                SCOPED_TRACE(threads);
                expectSameRun(reference, once(threads, epoch_s));
            }
        }
    }
}

TEST(FleetKernel, StreamingBehindTheBalancerIsInvisible)
{
    // Beyond one fleet thread and with epochs on, the first 64
    // servers routed to run behind the balancer: at each epoch
    // hand-over they get their newly routed gaps (and budget spans)
    // and advance to one tick before their last known arrival. The
    // rest run after the pass, and never-routed servers copy the
    // idle reference. Under pack-first at capacity 1, bursts of 100
    // arrivals fill 100 of 160 servers, so one run holds all three
    // kinds. Every policy at 1, 2 and 8 threads, with no epoch, an
    // epoch between bursts and one longer than the run, must be the
    // one-thread run, timeline and trace bytes included;
    // route-to-headroom also runs capped, where budget
    // redistribution makes the epoch part of the run.
    struct Case
    {
        std::string routing;
        double capWatts = 0.0;
    };
    std::vector<Case> cases;
    for (const auto &name : routingPolicyNames())
        cases.push_back(Case{name, 0.0});
    cases.push_back(Case{"route-to-headroom", 16.0});

    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message()
                     << c.routing << " cap=" << c.capWatts);
        auto once = [&c](unsigned threads, double epoch_s) {
            auto fc = kernelFleet(c.routing, 160);
            fc.packCapacity = 1;
            fc.fleetThreads = threads;
            fc.epochSeconds = epoch_s;
            fc.server.cap.capWatts = c.capWatts;
            // 100 arrivals 1 ns apart, then 2 ms of quiet.
            std::vector<sim::Tick> gaps(100, sim::fromNs(1.0));
            gaps.push_back(sim::fromMs(2.0));
            FleetSim fleet(fc, workload::WorkloadProfile::memcached(),
                           1e6);
            fleet.setArrivalTrace(workload::ArrivalTrace(gaps));
            analysis::TimelineConfig timeline;
            timeline.intervalSeconds = 0.001;
            fleet.enableTimeline(timeline);
            analysis::TraceConfig trace;
            trace.capacity = 64; // per server; the rings wrap
            fleet.enableRequestTrace(trace);
            return fleet.run(sim::fromMs(5.0), sim::fromMs(0.5));
        };
        const bool capped = c.capWatts > 0.0;
        const auto serial = once(1, 0.0);
        EXPECT_GT(serial.requests, 0u);
        EXPECT_EQ(serial.streamed, 0u);
        if (c.routing == "pack-first") {
            EXPECT_GT(serial.neverRouted, 0u);
            EXPECT_GT(serial.servers - serial.neverRouted, 64u);
        }
        for (const double epoch_s : {0.0, 0.0013, 0.25}) {
            SCOPED_TRACE(epoch_s);
            const bool epoch_shapes_run = capped && epoch_s > 0.0;
            const auto reference =
                epoch_shapes_run ? once(1, epoch_s) : serial;
            EXPECT_EQ(reference.streamed, 0u);
            for (const unsigned threads : {1u, 2u, 8u}) {
                if (threads == 1 && (epoch_s == 0.0 || epoch_shapes_run))
                    continue; // that is the reference itself
                SCOPED_TRACE(threads);
                const auto run = once(threads, epoch_s);
                expectSameRun(reference, run);
                ASSERT_TRUE(run.timeline && run.trace);
                EXPECT_EQ(analysis::timelineCsv(*run.timeline),
                          analysis::timelineCsv(*reference.timeline));
                EXPECT_EQ(analysis::traceCsv(*run.trace),
                          analysis::traceCsv(*reference.trace));
                // With epochs on and a second thread, the first 64
                // servers routed to stream, even when no boundary
                // falls inside the run.
                const bool streams = threads > 1 && epoch_s > 0.0;
                EXPECT_EQ(run.streamed, streams ? 64u : 0u);
            }
        }
    }
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
    // The fleet-day claim in miniature: on a mostly-idle diurnal
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
