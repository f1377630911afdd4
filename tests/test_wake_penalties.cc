/**
 * @file
 * End-to-end wake-penalty tests: with a slow deterministic request
 * stream, every request finds its core parked in a known idle
 * state, so the observed latency must equal service time plus that
 * state's exit latency (the user-visible cost Table 1 quantifies).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cstate/governors.hh"
#include "freq/freq_policy.hh"
#include "server/core_sim.hh"
#include "server/server_sim.hh"
#include "workload/profiles.hh"
#include "workload/service.hh"

namespace {

using namespace aw;
using namespace aw::server;
using namespace aw::sim;
using cstate::CStateId;

/** A profile with fixed 10 us requests every 5 ms per core. */
workload::WorkloadProfile
probeProfile()
{
    auto service = std::make_shared<workload::FixedService>(
        fromUs(10.0), 0.5);
    return workload::WorkloadProfile(
        "probe", workload::ArrivalKind::Deterministic,
        std::move(service), 0.0, {200.0});
}

struct Harness
{
    explicit Harness(ServerConfig config)
        : cfg(std::move(config)), profile(probeProfile()),
          points(ServerSim::operatingPoints(
              cfg, freq::PStateLadder(cfg.pstates), profile,
              aw_model)),
          governor(cstate::makeGovernor(cfg.governor, cfg.cstates)),
          core(simr, cfg, points, *governor, /*freq_proto=*/nullptr,
               aw_model, profile, 200.0, 0,
               [this](const workload::Request &req) {
                   latencies.push_back(
                       toUs(req.serverLatency()));
               })
    {
    }

    double
    steadyAvgLatency()
    {
        core.start();
        simr.run(fromSec(0.5));
        // Skip the first few requests (cold predictor).
        double sum = 0.0;
        std::size_t n = 0;
        for (std::size_t i = 10; i < latencies.size(); ++i) {
            sum += latencies[i];
            ++n;
        }
        return n ? sum / n : 0.0;
    }

    Simulator simr;
    ServerConfig cfg;
    core::AwCoreModel aw_model;
    workload::WorkloadProfile profile;
    OperatingPoints points;
    std::unique_ptr<cstate::GovernorPolicy> governor;
    std::vector<double> latencies;
    CoreSim core;
};

double
expectedExitUs(const ServerConfig &cfg, CStateId state)
{
    core::AwCoreModel model;
    auto caches = uarch::PrivateCaches::skylakeServer();
    const uarch::CoreContext context;
    const cstate::TransitionEngine engine(
        caches, context, model.controller().awLatencies());
    double f = cfg.pstates.base.hz();
    if (cfg.cstates.usesAgileWatts())
        f *= 0.99;
    return toUs(engine.latency(state, Frequency(f)).exit);
}

TEST(WakePenalty, C1OnlyConfigPaysC1Exit)
{
    Harness h(ServerConfig::ntNoC6NoC1e());
    const double avg = h.steadyAvgLatency();
    // 5 ms gaps -> deterministic predictor -> C1 (the only state).
    const double expected =
        10.0 + expectedExitUs(h.cfg, CStateId::C1);
    EXPECT_NEAR(avg, expected, 0.2);
}

TEST(WakePenalty, C1eConfigPaysDvfsRamp)
{
    Harness h(ServerConfig::ntNoC6());
    const double avg = h.steadyAvgLatency();
    // 5 ms >> 20 us target residency -> C1E.
    const double expected =
        10.0 + expectedExitUs(h.cfg, CStateId::C1E);
    EXPECT_NEAR(avg, expected, 0.2);
}

TEST(WakePenalty, BaselinePaysTheFullC6Exit)
{
    Harness h(ServerConfig::ntBaseline());
    const double avg = h.steadyAvgLatency();
    // 5 ms >> 600 us target residency -> C6: tens of microseconds
    // of wake penalty on every request.
    const double expected =
        10.0 + expectedExitUs(h.cfg, CStateId::C6);
    EXPECT_NEAR(avg, expected, 2.0);
    EXPECT_GT(avg, 30.0);
}

TEST(WakePenalty, AwC6aExitIsC1Class)
{
    Harness h(ServerConfig::ntAwNoC6NoC1e());
    const double avg = h.steadyAvgLatency();
    const double expected =
        10.0 * (1.0 + 0.5 * (1.0 / 0.99 - 1.0)) +
        expectedExitUs(h.cfg, CStateId::C6A);
    EXPECT_NEAR(avg, expected, 0.2);

    // And the AW penalty is within ~150 ns of the pure-C1 config's
    // (the paper's "C1-like latency at C6-like power").
    Harness c1(ServerConfig::ntNoC6NoC1e());
    EXPECT_NEAR(avg, c1.steadyAvgLatency(), 0.3);
}

TEST(WakePenalty, C6VsC6aGapIsTheHeadlineClaim)
{
    Harness legacy(ServerConfig::ntBaseline());
    Harness agile(ServerConfig::ntAwNoC6NoC1e());
    const double legacy_penalty =
        legacy.steadyAvgLatency() - 10.0;
    const double aw_penalty = agile.steadyAvgLatency() - 10.05;
    // Both sleep equally deep in power terms, but the wake penalty
    // differs by more than an order of magnitude.
    EXPECT_GT(legacy_penalty / aw_penalty, 10.0);
}

} // namespace
