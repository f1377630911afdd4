/**
 * @file
 * Unit tests for the cluster layer: routing policies, the diurnal
 * rate schedule, fleet aggregation/conservation and whole-fleet
 * determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "analysis/power_model.hh"
#include "cluster/diurnal.hh"
#include "cluster/fleet.hh"
#include "cluster/routing.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;
using namespace aw::cluster;

/** Scriptable FleetView for policy tests. */
class FakeView : public FleetView
{
  public:
    explicit FakeView(std::vector<unsigned> counts)
        : _counts(std::move(counts))
    {}

    std::size_t servers() const override { return _counts.size(); }
    unsigned outstanding(std::size_t i) const override
    {
        return _counts.at(i);
    }

    std::vector<unsigned> _counts;
};

/** FleetView that counts every read of the occupancy estimate; the
 *  balancer keeps no estimate for policies that report
 *  readsOccupancy() == false. */
class OccupancySpy : public FleetView
{
  public:
    explicit OccupancySpy(std::size_t servers) : _servers(servers) {}

    std::size_t servers() const override { return _servers; }
    unsigned outstanding(std::size_t) const override
    {
        ++reads;
        return 0;
    }
    std::size_t firstUnderCapacity(unsigned) const override
    {
        ++reads;
        return 0;
    }
    double headroomWatts(std::size_t) const override
    {
        ++reads;
        return 0.0;
    }

    mutable std::uint64_t reads = 0;

  private:
    std::size_t _servers;
};

// ---------------------------------------------------------- routing

TEST(Routing, FactoryBuildsEveryName)
{
    for (const auto &name : routingPolicyNames()) {
        auto policy = makeRoutingPolicy(name, 4);
        ASSERT_NE(policy, nullptr) << name;
        EXPECT_EQ(policy->name(), name);
    }
}

TEST(RoutingDeathTest, FactoryRejectsUnknownName)
{
    EXPECT_EXIT(makeRoutingPolicy("weighted-magic", 4),
                testing::ExitedWithCode(1), "unknown routing");
}

TEST(RoutingDeathTest, PackFirstRejectsZeroCapacity)
{
    EXPECT_EXIT(PackFirstRouting(0), testing::ExitedWithCode(1),
                "capacity");
}

TEST(Routing, RoundRobinCycles)
{
    RoundRobinRouting rr;
    FakeView view({0, 0, 0});
    sim::Rng rng(1);
    for (std::size_t i = 0; i < 9; ++i)
        EXPECT_EQ(rr.route(view, rng), i % 3);
}

TEST(Routing, RandomStaysInRangeAndCoversServers)
{
    RandomRouting random;
    FakeView view({0, 0, 0, 0});
    sim::Rng rng(7);
    std::vector<unsigned> hits(4, 0);
    for (int i = 0; i < 400; ++i) {
        const auto s = random.route(view, rng);
        ASSERT_LT(s, 4u);
        ++hits[s];
    }
    for (const auto h : hits)
        EXPECT_GT(h, 0u);
}

TEST(Routing, LeastOutstandingPicksMinTieLowestIndex)
{
    LeastOutstandingRouting lo;
    sim::Rng rng(1);
    FakeView view({3, 1, 2, 1});
    EXPECT_EQ(lo.route(view, rng), 1u); // min=1, first at index 1
    view._counts = {0, 0, 0};
    EXPECT_EQ(lo.route(view, rng), 0u); // all tied: lowest index
}

TEST(Routing, PackFirstFillsThenSpills)
{
    PackFirstRouting pack(2);
    sim::Rng rng(1);
    FakeView view({0, 0, 0});
    EXPECT_EQ(pack.route(view, rng), 0u); // headroom at 0
    view._counts = {1, 0, 0};
    EXPECT_EQ(pack.route(view, rng), 0u); // still under capacity
    view._counts = {2, 0, 0};
    EXPECT_EQ(pack.route(view, rng), 1u); // 0 full: spill to 1
    view._counts = {2, 2, 1};
    EXPECT_EQ(pack.route(view, rng), 2u);
    view._counts = {2, 3, 2};
    EXPECT_EQ(pack.route(view, rng), 0u); // all full: least loaded
}

TEST(Routing, ReadsOccupancyIsPinnedPerPolicy)
{
    const std::map<std::string, bool> expected{
        {"round-robin", false},      {"random", false},
        {"least-outstanding", true}, {"pack-first", true},
        {"route-to-headroom", true},
    };
    ASSERT_EQ(routingPolicyNames().size(), expected.size());
    for (const auto &name : routingPolicyNames())
        EXPECT_EQ(makeRoutingPolicy(name, 4)->readsOccupancy(),
                  expected.at(name))
            << name;
}

TEST(Routing, OccupancyBlindPoliciesNeverReadTheView)
{
    // The balancer skips the occupancy estimate for a policy that
    // reports readsOccupancy() == false, so such a policy must route
    // on nothing but the server count. Policies that read occupancy
    // do touch the spy, which shows it would catch a read.
    for (const auto &name : routingPolicyNames()) {
        SCOPED_TRACE(name);
        auto policy = makeRoutingPolicy(name, 4);
        OccupancySpy spy(16);
        sim::Rng rng(11);
        for (int i = 0; i < 10000; ++i)
            ASSERT_LT(policy->route(spy, rng), 16u);
        if (policy->readsOccupancy())
            EXPECT_GT(spy.reads, 0u);
        else
            EXPECT_EQ(spy.reads, 0u);
    }
}

TEST(UnderCapacityIndex, FirstEqualsTheLinearScan)
{
    // Seeded route/complete sequences move the counts one step at a
    // time, as the balancer does: mostly pack-first routes to the
    // index's own answer, plus routes and completions anywhere. A
    // fill phase runs until every server has sat at capacity
    // (first() == servers()) several times, then a drain phase
    // empties the fleet. After every step the index must give the
    // linear scan's answer. The sizes sit on both sides of one
    // 64-server word and of one 4096-server summary word; odd sizes
    // run at capacity 2, even ones at capacity 1.
    for (const std::size_t K :
         {1, 63, 64, 65, 4095, 4096, 4097, 10000}) {
        const unsigned cap = K % 2 == 1 ? 2 : 1;
        SCOPED_TRACE(testing::Message()
                     << "K " << K << ", capacity " << cap);
        FakeView view(std::vector<unsigned>(K, 0));
        UnderCapacityIndex index(view._counts, cap);
        sim::Rng rng(31 * K + cap);
        std::vector<std::size_t> in_flight; // one per request
        std::size_t saw_full = 0;

        const auto route = [&](bool pack) {
            const std::size_t first = index.first();
            const std::size_t s =
                pack && first < K ? first
                                  : rng.uniformInt(0, K - 1);
            ++view._counts[s];
            index.onRouted(s);
            in_flight.push_back(s);
        };
        const auto complete = [&] {
            const std::size_t j =
                rng.uniformInt(0, in_flight.size() - 1);
            const std::size_t s = in_flight[j];
            in_flight[j] = in_flight.back();
            in_flight.pop_back();
            --view._counts[s];
            index.onCompleted(s);
        };
        const auto agrees = [&] {
            const std::size_t scan = view.firstUnderCapacity(cap);
            if (scan == K)
                ++saw_full;
            EXPECT_EQ(index.first(), scan)
                << "after " << in_flight.size() << " in flight";
            return index.first() == scan;
        };

        ASSERT_TRUE(agrees());
        const std::size_t max_steps = 40 * K * cap + 1000;
        std::size_t steps = 0;
        while (saw_full < 8 && steps++ < max_steps) {
            const double u = rng.uniform();
            if (u < 0.25 && !in_flight.empty())
                complete();
            else
                route(/*pack=*/u < 0.8);
            ASSERT_TRUE(agrees());
        }
        EXPECT_GE(saw_full, 8u) << "never filled the fleet";
        while (!in_flight.empty()) {
            if (rng.uniform() < 0.2)
                route(/*pack=*/rng.uniform() < 0.7);
            else
                complete();
            ASSERT_TRUE(agrees());
        }
        EXPECT_EQ(index.first(), 0u);
    }
}

TEST(UnderCapacityIndexDeathTest, RejectsZeroCapacity)
{
    const std::vector<unsigned> counts(4, 0);
    EXPECT_DEATH(UnderCapacityIndex(counts, 0), "capacity");
}

// ---------------------------------------------------------- diurnal

TEST(Diurnal, FlatScheduleIsIdentity)
{
    const auto flat = RateSchedule::flat();
    EXPECT_TRUE(flat.isFlat());
    EXPECT_DOUBLE_EQ(flat.meanScale(), 1.0);
    EXPECT_DOUBLE_EQ(flat.scaleAt(0), 1.0);
    EXPECT_DOUBLE_EQ(flat.scaleAt(123456789), 1.0);
}

TEST(Diurnal, SinusoidalMeanScaleIsOne)
{
    const auto day =
        RateSchedule::sinusoidal(sim::fromSec(1.0), 0.8, 48);
    EXPECT_FALSE(day.isFlat());
    EXPECT_NEAR(day.meanScale(), 1.0, 1e-9);
    EXPECT_EQ(day.period(), sim::fromSec(1.0));
    // Peak in the first half, trough in the second.
    EXPECT_GT(day.scaleAt(sim::fromMs(250.0)), 1.5);
    EXPECT_LT(day.scaleAt(sim::fromMs(750.0)), 0.5);
}

TEST(Diurnal, PiecewiseScaleAtWalksSegmentsAndWraps)
{
    RateSchedule sched({{sim::fromMs(10.0), 2.0},
                        {sim::fromMs(30.0), 0.5}});
    EXPECT_EQ(sched.period(), sim::fromMs(40.0));
    EXPECT_DOUBLE_EQ(sched.scaleAt(0), 2.0);
    EXPECT_DOUBLE_EQ(sched.scaleAt(sim::fromMs(15.0)), 0.5);
    EXPECT_DOUBLE_EQ(sched.scaleAt(sim::fromMs(45.0)), 2.0); // wrap
    EXPECT_NEAR(sched.meanScale(), (2.0 * 10 + 0.5 * 30) / 40.0,
                1e-12);
}

TEST(DiurnalDeathTest, RejectsAllZeroSchedule)
{
    EXPECT_EXIT(RateSchedule({{sim::fromMs(1.0), 0.0}}),
                testing::ExitedWithCode(1), "all-zero");
}

TEST(Diurnal, ShapedStreamIntegratesToTheRequestedMeanRate)
{
    // A deterministic base at 10 K/s shaped by a strong sinusoid:
    // over whole periods the arrival count must match the base
    // rate (the schedule is normalized to mean multiplier 1).
    const double rate = 10e3;
    DiurnalArrivals shaped(
        std::make_unique<workload::DeterministicArrivals>(rate),
        RateSchedule::sinusoidal(sim::fromMs(100.0), 0.8));
    EXPECT_NEAR(shaped.ratePerSec(), rate, 1e-6);

    sim::Rng rng(1);
    const sim::Tick horizon = sim::fromSec(2.0); // 20 whole periods
    sim::Tick now = 0;
    std::uint64_t arrivals = 0;
    while (true) {
        now += shaped.nextGap(rng);
        if (now > horizon)
            break;
        ++arrivals;
    }
    EXPECT_NEAR(static_cast<double>(arrivals),
                rate * sim::toSec(horizon),
                0.01 * rate * sim::toSec(horizon));
}

TEST(Diurnal, LargeGapsFastForwardWholePeriods)
{
    // One arrival per 10 s over a 1 ms schedule: each gap spans
    // ~10000 periods and must resolve without walking every
    // segment (and, with the mean-1 normalization, span roughly
    // the base gap in wall time).
    DiurnalArrivals shaped(
        std::make_unique<workload::DeterministicArrivals>(0.1),
        RateSchedule::sinusoidal(sim::fromMs(1.0), 0.8));
    sim::Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        const auto gap = shaped.nextGap(rng);
        EXPECT_NEAR(sim::toSec(gap), 10.0, 0.001);
    }
}

TEST(Diurnal, ShapedStreamModulatesInstantaneousRate)
{
    // Arrivals must cluster in the high-scale half of the period.
    const auto period = sim::fromMs(100.0);
    DiurnalArrivals shaped(
        std::make_unique<workload::DeterministicArrivals>(10e3),
        RateSchedule::sinusoidal(period, 0.9));
    sim::Rng rng(1);
    sim::Tick now = 0;
    std::uint64_t first_half = 0, second_half = 0;
    while (now < sim::fromSec(1.0)) {
        now += shaped.nextGap(rng);
        (now % period < period / 2 ? first_half : second_half)++;
    }
    EXPECT_GT(first_half, 2 * second_half);
}

// ------------------------------------------------------------ fleet

FleetConfig
smallFleet(const std::string &routing, unsigned servers = 4)
{
    FleetConfig fc;
    fc.servers = servers;
    fc.server = server::ServerConfig::legacyC1C6();
    fc.server.cores = 4;
    fc.server.idlePromotion = true;
    fc.routing = routing;
    return fc;
}

TEST(Fleet, ConservationAndAggregation)
{
    FleetSim fleet(smallFleet("round-robin"),
                   workload::WorkloadProfile::memcached(), 40e3);
    const auto r = fleet.run(sim::fromMs(100.0), sim::fromMs(10.0));

    ASSERT_EQ(r.perServer.size(), 4u);
    ASSERT_EQ(r.routedPerServer.size(), 4u);

    std::uint64_t completed = 0, routed = 0;
    double power = 0.0;
    for (unsigned i = 0; i < 4; ++i) {
        completed += r.perServer[i].requests;
        routed += r.routedPerServer[i];
        power += r.perServer[i].packagePower;
    }
    EXPECT_EQ(r.requests, completed);
    EXPECT_EQ(r.routed, routed);
    EXPECT_DOUBLE_EQ(r.fleetPower, power);
    EXPECT_GT(r.requests, 0u);
    EXPECT_NEAR(r.achievedQps, 40e3, 4e3);
    EXPECT_GT(r.p99LatencyUs, r.avgLatencyUs);
    // Round-robin splits arrivals exactly evenly (+-1).
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_NEAR(static_cast<double>(r.routedPerServer[i]),
                    static_cast<double>(r.routed) / 4.0, 1.0);
}

TEST(Fleet, ResidencySharesSumToOne)
{
    FleetSim fleet(smallFleet("least-outstanding"),
                   workload::WorkloadProfile::memcached(), 20e3);
    const auto r = fleet.run(sim::fromMs(80.0), sim::fromMs(8.0));
    EXPECT_NEAR(r.residency.totalShare(), 1.0, 1e-6);
    EXPECT_GE(r.maxServerDeepShare, r.minServerDeepShare);
    EXPECT_GE(r.deepIdleShare, r.minServerDeepShare - 1e-12);
    EXPECT_LE(r.deepIdleShare, r.maxServerDeepShare + 1e-12);
}

TEST(Fleet, RunsAreBitIdentical)
{
    const auto profile = workload::WorkloadProfile::memcached();
    auto once = [&](std::uint64_t seed) {
        auto fc = smallFleet("pack-first");
        fc.seed = seed;
        FleetSim fleet(fc, profile, 30e3);
        return fleet.run(sim::fromMs(60.0), sim::fromMs(6.0));
    };
    const auto a = once(7), b = once(7), c = once(8);

    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.routed, b.routed);
    EXPECT_EQ(a.routedPerServer, b.routedPerServer);
    EXPECT_DOUBLE_EQ(a.fleetPower, b.fleetPower);
    EXPECT_DOUBLE_EQ(a.avgLatencyUs, b.avgLatencyUs);
    EXPECT_DOUBLE_EQ(a.p99LatencyUs, b.p99LatencyUs);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_DOUBLE_EQ(a.perServer[i].coreEnergy,
                         b.perServer[i].coreEnergy);
    }
    // A different top seed produces a different run.
    EXPECT_NE(a.perServer[0].coreEnergy, c.perServer[0].coreEnergy);
}

TEST(Fleet, PerServerStreamsDiffer)
{
    // Derived per-server seeds are pairwise distinct...
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 64; ++i)
        seeds.push_back(sim::deriveSeed(42, i));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()),
              seeds.end());

    // ...and servers fed identical even splits still simulate
    // independent streams (service draws differ per server).
    FleetSim fleet(smallFleet("round-robin", 2),
                   workload::WorkloadProfile::memcached(), 20e3);
    const auto r = fleet.run(sim::fromMs(60.0), sim::fromMs(6.0));
    EXPECT_NE(r.perServer[0].coreEnergy, r.perServer[1].coreEnergy);
    EXPECT_NE(r.perServer[0].avgLatencyUs,
              r.perServer[1].avgLatencyUs);
}

TEST(Fleet, PackFirstConsolidatesAndDeepensSpareIdle)
{
    const auto profile = workload::WorkloadProfile::memcached();
    const double qps = 60e3;
    auto run = [&](const std::string &routing) {
        FleetSim fleet(smallFleet(routing, 8), profile, qps);
        return fleet.run(sim::fromMs(150.0), sim::fromMs(15.0));
    };
    const auto packed = run("pack-first");
    const auto spread = run("round-robin");

    // Same offered load, very different placement: pack-first
    // concentrates traffic and parks spare servers in deeper idle
    // than any round-robin server reaches.
    EXPECT_GT(packed.busiestShareOfLoad, 2.0 / 8);
    EXPECT_NEAR(spread.busiestShareOfLoad, 1.0 / 8, 0.01);
    EXPECT_GT(packed.maxServerDeepShare, spread.maxServerDeepShare);
    EXPECT_GT(packed.maxServerDeepShare, 0.95);
    // The spread in per-server deep residency is the signature.
    EXPECT_GT(packed.maxServerDeepShare - packed.minServerDeepShare,
              spread.maxServerDeepShare - spread.minServerDeepShare);
}

TEST(Fleet, TraceDrivenFleetRoutesEveryArrival)
{
    // 2 ms of arrivals every 50 us, looped over the horizon.
    workload::ArrivalTrace trace(
        std::vector<sim::Tick>(40, sim::fromUs(50.0)));
    auto fc = smallFleet("round-robin", 2);
    FleetSim fleet(fc, workload::WorkloadProfile::memcached(), 20e3);
    fleet.setArrivalTrace(trace);
    const auto r = fleet.run(sim::fromMs(20.0), 0);
    // 20 ms at one arrival per 50 us = ~400 arrivals.
    EXPECT_NEAR(static_cast<double>(r.routed), 400.0, 2.0);
    EXPECT_EQ(r.routed, r.routedPerServer[0] + r.routedPerServer[1]);
}

TEST(Fleet, IdlePromotionKeepsEnergyIdentity)
{
    // Low load on a legacy config triggers frequent C1 -> C6 tick
    // promotions; the energy meter must still agree with the
    // residency-weighted power sum (promotion entry flows are
    // accounted as C0 at active power like every other transition).
    server::ServerConfig cfg = server::ServerConfig::legacyC1C6();
    cfg.idlePromotion = true;
    server::ServerSim srv(
        cfg, workload::WorkloadProfile::memcached(), 5e3);
    const auto r = srv.run(sim::fromSec(0.4), sim::fromMs(40.0));
    EXPECT_GT(deepIdleShare(r.residency), 0.5); // promotions fired

    core::AwCoreModel aw_model;
    const analysis::CStatePowerModel model(
        server::StatePowers::fromModels(aw_model.ppa()));
    const double estimated = model.baselineAvgPower(r.residency);
    EXPECT_NEAR(estimated, r.avgCorePower, r.avgCorePower * 0.005);
}

TEST(FleetDeathTest, RejectsBadParameters)
{
    const auto profile = workload::WorkloadProfile::memcached();
    auto fc = smallFleet("round-robin");
    fc.servers = 0;
    EXPECT_EXIT(FleetSim(fc, profile, 1e3),
                testing::ExitedWithCode(1), "server");
    auto bad = smallFleet("warp-route");
    EXPECT_EXIT(FleetSim(bad, profile, 1e3),
                testing::ExitedWithCode(1), "unknown routing");
    EXPECT_EXIT(FleetSim(smallFleet("round-robin"), profile, 0.0),
                testing::ExitedWithCode(1), "positive");
}

} // namespace
