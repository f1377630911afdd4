/**
 * @file
 * Unit tests for the DVFS governance subsystem: the P-state ladder,
 * the frequency-governor registry, PM-QoS latency SLOs, and the
 * end-to-end identities the policies must satisfy inside ServerSim.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <utility>

#include "cstate/config.hh"
#include "cstate/cstate.hh"
#include "freq/freq_policy.hh"
#include "freq/policies.hh"
#include "freq/qos.hh"
#include "server/config.hh"
#include "server/pstate.hh"
#include "server/server_sim.hh"
#include "workload/profiles.hh"
#include "workload/service.hh"

namespace {

using namespace aw;
using namespace aw::freq;
using namespace aw::sim;

// ------------------------------------------------------- the ladder

TEST(PStateLadder, SpansPnToBaseWithAnchoredPowers)
{
    // The Xeon table and bench_fig8's 2.0 GHz base, where the cubic
    // fit alone leaves level 0 one ulp below 1 W.
    server::PStateTable fig8 = server::PStateTable::xeonSilver4114();
    fig8.base = sim::Frequency::ghz(2.0);
    for (const auto &table :
         {server::PStateTable::xeonSilver4114(), fig8}) {
        const PStateLadder ladder(table);
        ASSERT_EQ(ladder.count(), PStateLadder::kMaxLevels);
        // Level 0 = Pn, top = P1, frequencies strictly increasing.
        for (std::size_t i = 1; i < ladder.count(); ++i) {
            EXPECT_GT(ladder.frequency(i).hz(),
                      ladder.frequency(i - 1).hz());
            EXPECT_GT(ladder.activePower(i),
                      ladder.activePower(i - 1));
        }
        // The endpoints are the table's points at the Table 1
        // powers exactly, so a pinned level is the operating point
        // the table names, bit for bit.
        EXPECT_EQ(ladder.frequency(0).hz(), table.minimum.hz());
        EXPECT_EQ(ladder.frequency(ladder.top()).hz(), table.base.hz());
        EXPECT_EQ(ladder.activePower(0), cstate::kC0PowerPn);
        EXPECT_EQ(ladder.activePower(ladder.top()), cstate::kC0PowerP1);
    }
}

TEST(PStateLadder, DegenerateTableCollapsesToOneLevel)
{
    server::PStateTable table;
    table.minimum = table.base;
    const PStateLadder ladder(table);
    EXPECT_EQ(ladder.count(), 1u);
    EXPECT_EQ(ladder.top(), 0u);
    EXPECT_DOUBLE_EQ(ladder.frequency(0).hz(), table.base.hz());
    EXPECT_DOUBLE_EQ(ladder.activePower(0), cstate::kC0PowerP1);
}

TEST(PStateLadder, LevelAtOrAboveIsExactOnLadderPoints)
{
    const PStateLadder ladder(server::PStateTable::xeonSilver4114());
    // Asking for a level's own frequency returns that level, even
    // though the evenly spaced points are not exactly representable.
    for (std::size_t i = 0; i < ladder.count(); ++i)
        EXPECT_EQ(ladder.levelAtOrAbove(ladder.frequency(i)), i);
    // Below the bottom -> bottom; above the top -> top (best effort).
    EXPECT_EQ(ladder.levelAtOrAbove(Frequency::ghz(0.1)), 0u);
    EXPECT_EQ(ladder.levelAtOrAbove(Frequency::ghz(9.9)),
              ladder.top());
}

// ----------------------------------------- PStateTable validation

using PStateTableDeathTest = ::testing::Test;

TEST(PStateTableDeathTest, RejectsNonPositivePoints)
{
    server::PStateTable table;
    table.minimum = Frequency::ghz(0.0);
    EXPECT_DEATH(table.validate(), "positive");
}

TEST(PStateTableDeathTest, RejectsPnAboveP1)
{
    server::PStateTable table;
    table.minimum = Frequency::ghz(2.5);
    EXPECT_DEATH(table.validate(), "Pn .* must not exceed");
}

TEST(PStateTableDeathTest, RejectsP1AboveTurbo)
{
    server::PStateTable table;
    table.base = Frequency::ghz(3.5);
    EXPECT_DEATH(table.validate(), "P1 .* must not exceed");
}

// ----------------------------------------------------- the registry

TEST(FreqRegistry, RoundTripsEveryBuiltInKind)
{
    const PStateLadder ladder(server::PStateTable::xeonSilver4114());
    const auto &kinds = freqPolicyKinds();
    ASSERT_EQ(kinds.size(), 5u);
    for (const auto &kind : kinds) {
        const auto policy = makeFreqPolicy(kind, ladder);
        ASSERT_NE(policy, nullptr) << kind;
        // spec() rebuilds the policy through the registry.
        EXPECT_EQ(policy->spec(), kind);
        const auto again = makeFreqPolicy(policy->spec(), ladder);
        EXPECT_EQ(again->spec(), kind);
        // Every kind carries a registry summary for --help text.
        EXPECT_FALSE(
            FreqRegistry::instance().summary(kind).empty())
            << kind;
    }
}

TEST(FreqRegistry, KnownKindsInRegistrationOrder)
{
    const auto &kinds = freqPolicyKinds();
    const std::vector<std::string> expect = {
        "performance", "powersave", "ondemand", "conservative",
        "racetohalt"};
    EXPECT_EQ(kinds, expect);
}

using FreqRegistryDeathTest = ::testing::Test;

TEST(FreqRegistryDeathTest, UnknownKindDiesWithTheKindList)
{
    const PStateLadder ladder(server::PStateTable::xeonSilver4114());
    EXPECT_DEATH(makeFreqPolicy("warpspeed", ladder),
                 "unknown frequency governor 'warpspeed'");
    EXPECT_DEATH(makeFreqPolicy("warpspeed", ladder), "racetohalt");
    EXPECT_DEATH(makeFreqPolicy("", ladder), "empty");
}

// --------------------------------------------- per-core clone state

TEST(FreqPolicy, ClonesCarryIndependentState)
{
    // conservative is the stateful built-in: it walks one ladder
    // step per sample. Stepping the prototype must not move the
    // clone -- ServerSim clones one prototype per core and each
    // core's walk is its own.
    const PStateLadder ladder(server::PStateTable::xeonSilver4114());
    const auto proto = makeFreqPolicy("conservative", ladder);
    const auto clone = proto->clone();
    // Both start at the top.
    EXPECT_EQ(proto->select(0, 0.5), ladder.top());
    EXPECT_EQ(clone->select(0, 0.5), ladder.top());
    // Walk the prototype three steps down (idle windows).
    const auto period = ConservativePolicy::kSamplePeriod;
    for (int i = 1; i <= 3; ++i)
        EXPECT_EQ(proto->select(i * period, 0.0), ladder.top() - i);
    // The clone has not moved.
    EXPECT_EQ(clone->select(4 * period, 0.5), ladder.top());
    // reset() rewinds the walk.
    proto->reset();
    EXPECT_EQ(proto->select(5 * period, 0.5), ladder.top());
}

TEST(FreqPolicy, RaceToHaltFollowsBusyEdges)
{
    const PStateLadder ladder(server::PStateTable::xeonSilver4114());
    const auto policy = makeFreqPolicy("racetohalt", ladder);
    EXPECT_EQ(policy->evalInterval(), 0) << "must add no events";
    EXPECT_EQ(policy->observe(0, /*busy=*/true, 0), ladder.top());
    EXPECT_EQ(policy->observe(0, /*busy=*/false, ladder.top()), 0u);
}

// ------------------------------------------------- PM-QoS latencies

TEST(LatencyQoS, InactiveSloLeavesStatesUntouched)
{
    const LatencyQoS qos; // sloUs = 0 -> unconstrained
    EXPECT_FALSE(qos.active());
    const auto in = cstate::CStateConfig::legacyBaseline();
    const auto out = qos.admissibleStates(in);
    EXPECT_EQ(out.enabledStates(), in.enabledStates());
}

TEST(LatencyQoS, GenerousSloAdmitsEverything)
{
    const LatencyQoS qos{/*sloUs=*/100000.0};
    const auto in = cstate::CStateConfig::legacyBaseline();
    EXPECT_EQ(qos.admissibleStates(in).enabledStates(),
              in.enabledStates());
}

TEST(LatencyQoS, TightSloForcesPolling)
{
    // cpu_dma_latency = 0 semantics: a wake budget below every
    // state's transition cost leaves nothing enabled, and the idle
    // governor then polls in C0.
    const LatencyQoS qos{/*sloUs=*/1.0};
    const auto out =
        qos.admissibleStates(cstate::CStateConfig::legacyC1C6());
    EXPECT_FALSE(out.anyEnabled());
}

TEST(LatencyQoS, AdmissionIsAMonotoneFilter)
{
    // Tightening the SLO only ever removes states, and every
    // admitted state fits the wake budget.
    const auto in = cstate::CStateConfig::legacyBaseline();
    for (const double slo : {2.0, 10.0, 40.0, 200.0, 5000.0}) {
        const LatencyQoS qos{slo};
        const auto out = qos.admissibleStates(in);
        const auto budget =
            sim::fromUs(slo * LatencyQoS::kWakeShare);
        for (const auto id : out.enabledStates()) {
            EXPECT_TRUE(in.enabled(id));
            EXPECT_LE(cstate::descriptor(id).transitionTime, budget);
        }
        for (const auto id : in.enabledStates())
            if (cstate::descriptor(id).transitionTime <= budget)
                EXPECT_TRUE(out.enabled(id));
    }
}

TEST(LatencyQoS, FrequencyFloorScalesWithComputeShare)
{
    const PStateLadder ladder(server::PStateTable::xeonSilver4114());
    // 2 us fully compute-bound mean at the 2.2 GHz reference.
    const workload::FixedService compute(sim::fromUs(2.0), 1.0);
    // Service budget = 0.5 * SLO. SLO 4 us -> budget 2 us: only the
    // full 2.2 GHz fits, the floor is the top.
    EXPECT_EQ(LatencyQoS{4.0}.frequencyFloor(ladder, compute),
              ladder.top());
    // SLO 12 us -> budget 6 us: 2 us * 2.2/0.8 = 5.5 us fits even
    // at Pn, the floor is the bottom.
    EXPECT_EQ(LatencyQoS{12.0}.frequencyFloor(ladder, compute), 0u);
    // An SLO even P1 cannot meet demands best effort: the top.
    EXPECT_EQ(LatencyQoS{1.0}.frequencyFloor(ladder, compute),
              ladder.top());
    // A memory-bound request does not speed up with frequency, so a
    // feasible SLO floors nothing.
    const workload::FixedService memory(sim::fromUs(2.0), 0.0);
    EXPECT_EQ(LatencyQoS{12.0}.frequencyFloor(ladder, memory), 0u);
    EXPECT_EQ(LatencyQoS{1.0}.frequencyFloor(ladder, memory),
              ladder.top());
}

// ------------------------------------- end-to-end ServerSim pinning

server::RunResult
runServer(server::ServerConfig cfg, double qps = 200e3)
{
    server::ServerSim srv(std::move(cfg),
                          workload::WorkloadProfile::memcached(),
                          qps);
    return srv.run(sim::fromSec(0.3), sim::fromSec(0.03));
}

/** Exact bit pattern of a double: equal bits, not merely within a
 *  few ulps. */
std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

void
expectIdenticalRuns(const server::RunResult &a,
                    const server::RunResult &b)
{
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.mispredictedEntries, b.mispredictedEntries);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.window, b.window);
    const auto pairs = {
        std::pair{a.offeredQps, b.offeredQps},
        std::pair{a.avgLatencyUs, b.avgLatencyUs},
        std::pair{a.p99LatencyUs, b.p99LatencyUs},
        std::pair{a.p999LatencyUs, b.p999LatencyUs},
        std::pair{a.avgLatencyE2eUs, b.avgLatencyE2eUs},
        std::pair{a.p99LatencyE2eUs, b.p99LatencyE2eUs},
        std::pair{a.avgCorePower, b.avgCorePower},
        std::pair{a.packagePower, b.packagePower},
        std::pair{a.coreEnergy, b.coreEnergy},
        std::pair{a.achievedQps, b.achievedQps},
        std::pair{a.transitionsPerRequest, b.transitionsPerRequest},
        std::pair{a.freqTransitionEnergyJ, b.freqTransitionEnergyJ},
        std::pair{a.capThrottleShare, b.capThrottleShare},
        std::pair{a.maxTempC, b.maxTempC},
        std::pair{a.avgUncorePower, b.avgUncorePower},
    };
    for (const auto &[x, y] : pairs)
        EXPECT_EQ(bits(x), bits(y));
    for (std::size_t i = 0; i < cstate::kNumCStates; ++i) {
        EXPECT_EQ(bits(a.residency.share[i]),
                  bits(b.residency.share[i]));
        EXPECT_EQ(a.residency.entries[i], b.residency.entries[i]);
    }
    for (std::size_t i = 0; i < server::kNumPkgCStates; ++i)
        EXPECT_EQ(bits(a.pkgResidency[i]), bits(b.pkgResidency[i]));
}

TEST(FreqEndToEnd, PerformanceGovernorIsTheLegacyStaticPath)
{
    // `performance` pins P1, which is exactly what the static path
    // runs at: the dynamic machinery must be invisible, not merely
    // close.
    auto base = server::ServerConfig::legacyC1C6();
    auto perf = base;
    perf.freqPolicy = "performance";
    const auto a = runServer(base);
    const auto b = runServer(perf);
    expectIdenticalRuns(a, b);
    EXPECT_EQ(b.freqTransitions, 0u);
    EXPECT_DOUBLE_EQ(b.freqTransitionEnergyJ, 0.0);
}

TEST(FreqEndToEnd, PowersaveGovernorIsRunAtPn)
{
    // `powersave` pins Pn; the pre-existing --pn static path is the
    // same operating point, so the results must coincide exactly.
    auto pn = server::ServerConfig::legacyC1C6();
    pn.runAtPn = true;
    auto save = server::ServerConfig::legacyC1C6();
    save.freqPolicy = "powersave";
    expectIdenticalRuns(runServer(pn), runServer(save));
}

TEST(FreqEndToEnd, RampEnergyConservation)
{
    // Every completed ramp charges exactly kRampEnergy; the windowed
    // energy counter must be the windowed ramp count times that
    // constant -- nothing lost, nothing double-billed.
    auto cfg = server::ServerConfig::legacyC1C6();
    cfg.freqPolicy = "racetohalt";
    const auto r = runServer(cfg);
    EXPECT_GT(r.freqTransitions, 0u);
    // Summed one ramp at a time, so allow accumulation rounding --
    // well under one ramp's worth of energy.
    EXPECT_NEAR(r.freqTransitionEnergyJ,
                static_cast<double>(r.freqTransitions) * kRampEnergy,
                1e-9);
    // The relock energy is real power: it is part of coreEnergy.
    EXPECT_LT(r.freqTransitionEnergyJ, r.coreEnergy);
}

TEST(FreqEndToEnd, OndemandSavesPowerAtPartialLoad)
{
    // At mid load ondemand runs below P1 most of the time: less
    // power than the static base, at some latency cost.
    auto base = server::ServerConfig::legacyC1C6();
    auto od = base;
    od.freqPolicy = "ondemand";
    const auto a = runServer(base);
    const auto b = runServer(od);
    EXPECT_LT(b.packagePower, a.packagePower);
    EXPECT_GT(b.p99LatencyUs, a.p99LatencyUs);
    EXPECT_GT(b.freqTransitions, 0u);
}

TEST(FreqEndToEnd, SloFloorLiftsPnBackToBase)
{
    // PM-QoS end to end on the static path: a service-budget floor
    // above Pn clears --pn, so the SLO-constrained run is exactly
    // the base-frequency run.
    auto base = server::ServerConfig::legacyC1C6();
    auto pn_slo = base;
    pn_slo.runAtPn = true;
    pn_slo.sloUs = 8.0;
    expectIdenticalRuns(runServer(base, 100e3),
                        runServer(pn_slo, 100e3));
}

TEST(FreqEndToEnd, SloFloorClampsTheDynamicPath)
{
    // And on the dynamic path: the same SLO clamps `powersave` to
    // the floor, reproducing the base run through the freq machinery.
    auto base = server::ServerConfig::legacyC1C6();
    auto save_slo = base;
    save_slo.freqPolicy = "powersave";
    save_slo.sloUs = 8.0;
    expectIdenticalRuns(runServer(base, 100e3),
                        runServer(save_slo, 100e3));
}

TEST(FreqEndToEnd, TightSloForcesPollingPower)
{
    // An SLO below every wake cost disables all idle states: ten
    // cores polling at C0 burn the full active power around the
    // clock. (10 x 4 W cores + uncore, so well above the idle-
    // governed base run.)
    auto cfg = server::ServerConfig::legacyC1C6();
    cfg.sloUs = 5.0;
    const auto r = runServer(cfg, 100e3);
    const auto base = runServer(server::ServerConfig::legacyC1C6(),
                                100e3);
    EXPECT_GT(r.packagePower, base.packagePower + 10.0);
    EXPECT_DOUBLE_EQ(r.residency.shareOf(cstate::CStateId::C1), 0.0);
    EXPECT_DOUBLE_EQ(r.residency.shareOf(cstate::CStateId::C6), 0.0);
}

} // namespace
