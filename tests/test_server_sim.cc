/**
 * @file
 * Tests for the whole-server simulation driver.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/sampler.hh"
#include "analysis/trace.hh"
#include "server/server_sim.hh"
#include "workload/profiles.hh"
#include "workload/trace.hh"

namespace {

using namespace aw;
using namespace aw::server;
using namespace aw::sim;

RunResult
quickRun(const ServerConfig &cfg, double qps)
{
    ServerSim srv(cfg, workload::WorkloadProfile::memcached(), qps);
    return srv.run(fromSec(0.5), fromMs(50.0));
}

TEST(ServerSim, AchievedRateTracksOffered)
{
    const auto r = quickRun(ServerConfig::baseline(), 100e3);
    EXPECT_NEAR(r.achievedQps, 100e3, 5e3);
    EXPECT_GT(r.requests, 10000u);
}

TEST(ServerSim, ResultFieldsPopulated)
{
    const auto r = quickRun(ServerConfig::baseline(), 100e3);
    EXPECT_EQ(r.configName, "Baseline");
    EXPECT_EQ(r.workloadName, "memcached");
    EXPECT_GT(r.avgLatencyUs, 0.0);
    EXPECT_GE(r.p99LatencyUs, r.avgLatencyUs);
    EXPECT_GT(r.avgCorePower, 0.0);
    EXPECT_GT(r.packagePower, r.avgCorePower);
    EXPECT_GT(r.coreEnergy, 0.0);
    EXPECT_GT(r.window, Tick(0));
}

TEST(ServerSim, EndToEndAddsNetworkConstant)
{
    const auto r = quickRun(ServerConfig::baseline(), 100e3);
    EXPECT_NEAR(r.avgLatencyE2eUs - r.avgLatencyUs, 117.0, 1e-9);
    EXPECT_NEAR(r.p99LatencyE2eUs - r.p99LatencyUs, 117.0, 1e-9);
}

TEST(ServerSim, ResidencySharesSumToOne)
{
    const auto r = quickRun(ServerConfig::baseline(), 200e3);
    EXPECT_NEAR(r.residency.totalShare(), 1.0, 1e-6);
}

TEST(ServerSim, C0ResidencyGrowsWithLoad)
{
    const auto lo = quickRun(ServerConfig::baseline(), 50e3);
    const auto hi = quickRun(ServerConfig::baseline(), 400e3);
    EXPECT_GT(hi.residency.shareOf(cstate::CStateId::C0),
              lo.residency.shareOf(cstate::CStateId::C0));
}

TEST(ServerSim, AwSavesPowerAtEveryLoad)
{
    for (const double qps : {20e3, 100e3, 400e3}) {
        const auto base = quickRun(ServerConfig::baseline(), qps);
        const auto agile = quickRun(ServerConfig::awBaseline(), qps);
        EXPECT_LT(agile.avgCorePower, base.avgCorePower)
            << "qps=" << qps;
    }
}

TEST(ServerSim, AwLatencyImpactIsSmall)
{
    const auto base = quickRun(ServerConfig::baseline(), 100e3);
    const auto agile = quickRun(ServerConfig::awBaseline(), 100e3);
    // Paper: <1.3% tail and <1% average degradation. Allow a
    // little simulation noise on top.
    EXPECT_LT(agile.avgLatencyUs,
              base.avgLatencyUs * 1.05);
    EXPECT_LT(agile.p99LatencyUs, base.p99LatencyUs * 1.10);
}

TEST(ServerSim, PackagePowerIncludesUncore)
{
    ServerConfig cfg = ServerConfig::baseline();
    cfg.uncorePower = 18.0;
    ServerSim srv(cfg, workload::WorkloadProfile::memcached(),
                  100e3);
    const auto r = srv.run(fromSec(0.3), fromMs(30.0));
    EXPECT_NEAR(r.packagePower,
                r.avgCorePower * cfg.cores + 18.0, 1e-9);
}

TEST(ServerSim, MemcachedNeverReachesC6AtModerateLoad)
{
    // The Sec 2 observation: at >=20% load (here 200+ KQPS) cores
    // never go deeper than C1.
    const auto r = quickRun(ServerConfig::baseline(), 300e3);
    EXPECT_LT(r.residency.shareOf(cstate::CStateId::C6), 0.01);
}

TEST(ServerSim, SweepRatesReturnsOnePerLevel)
{
    const auto profile = workload::WorkloadProfile::memcached();
    const std::vector<double> rates{50e3, 100e3};
    const auto results =
        sweepRates(ServerConfig::baseline(), profile, rates,
                   fromSec(0.2), fromMs(20.0));
    ASSERT_EQ(results.size(), 2u);
    EXPECT_DOUBLE_EQ(results[0].offeredQps, 50e3);
    EXPECT_DOUBLE_EQ(results[1].offeredQps, 100e3);
}

TEST(ServerSim, TransitionsPerRequestIsSane)
{
    const auto r = quickRun(ServerConfig::baseline(), 100e3);
    EXPECT_GT(r.transitionsPerRequest, 0.0);
    EXPECT_LE(r.transitionsPerRequest, 1.5);
}

TEST(ServerSimDeathTest, ValidatesConfig)
{
    const auto profile = workload::WorkloadProfile::memcached();
    ServerConfig cfg = ServerConfig::baseline();
    cfg.cores = 0;
    EXPECT_EXIT(ServerSim(cfg, profile, 100e3),
                ::testing::ExitedWithCode(1), "core");
    EXPECT_EXIT(ServerSim(ServerConfig::baseline(), profile, 0.0),
                ::testing::ExitedWithCode(1), "load");
}

TEST(ServerSim, DeterministicAcrossRunsWithSameSeed)
{
    const auto a = quickRun(ServerConfig::baseline(), 100e3);
    const auto b = quickRun(ServerConfig::baseline(), 100e3);
    EXPECT_DOUBLE_EQ(a.avgCorePower, b.avgCorePower);
    EXPECT_DOUBLE_EQ(a.avgLatencyUs, b.avgLatencyUs);
    EXPECT_EQ(a.requests, b.requests);
}

TEST(ServerSim, SeedChangesResults)
{
    ServerConfig cfg = ServerConfig::baseline();
    cfg.seed = 1234;
    const auto profile = workload::WorkloadProfile::memcached();
    ServerSim a(ServerConfig::baseline(), profile, 100e3);
    ServerSim b(cfg, profile, 100e3);
    const auto ra = a.run(fromSec(0.3), fromMs(30.0));
    const auto rb = b.run(fromSec(0.3), fromMs(30.0));
    EXPECT_NE(ra.requests, rb.requests);
}

TEST(ServerSim, ExternalTraceDrivesCentralDispatch)
{
    // 200 arrivals, one every 100 us, non-looping: every request
    // must be dispatched (round-robin across cores under Static)
    // and completed within the window.
    const auto profile = workload::WorkloadProfile::memcached();
    workload::ArrivalTrace trace(
        std::vector<Tick>(200, fromUs(100.0)));
    ServerSim srv(ServerConfig::baseline(), profile,
                  std::make_unique<workload::TraceArrivals>(
                      trace, /*loop=*/false));
    const auto r = srv.run(fromMs(30.0), 0);
    EXPECT_EQ(r.requests, 200u);
    EXPECT_NEAR(r.offeredQps, 10e3, 1.0);
    EXPECT_GT(r.avgLatencyUs, 0.0);
}

TEST(ServerSim, ExternalTraceReplayIsDeterministic)
{
    const auto profile = workload::WorkloadProfile::memcached();
    workload::PoissonArrivals src(20e3);
    Rng rec_rng(11);
    const auto trace =
        workload::ArrivalTrace::record(src, rec_rng, 2000);
    auto once = [&]() {
        ServerSim srv(ServerConfig::awBaseline(), profile,
                      std::make_unique<workload::TraceArrivals>(
                          trace, /*loop=*/true));
        return srv.run(fromMs(50.0), fromMs(5.0));
    };
    const auto a = once(), b = once();
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_DOUBLE_EQ(a.coreEnergy, b.coreEnergy);
    EXPECT_DOUBLE_EQ(a.p99LatencyUs, b.p99LatencyUs);
}

/** What one server run shows: its result, its sorted latency
 *  samples and its timeline and trace artifacts. */
struct Observed
{
    RunResult result;
    std::vector<double> latency;
    std::string timeline;
    std::string trace;
};

/** Run a server fed by @p arrivals with a timeline and a tracer
 *  attached; @p drive runs it and returns its result. */
template <typename Drive>
Observed
observe(const ServerConfig &cfg,
        std::unique_ptr<workload::ArrivalProcess> arrivals, Drive drive)
{
    ServerSim srv(cfg, workload::WorkloadProfile::memcached(),
                  std::move(arrivals));
    analysis::TimelineConfig tc;
    tc.intervalSeconds = 0.001;
    analysis::TimelineRecorder recorder(tc, cfg.cores);
    analysis::RequestTracer tracer(analysis::TraceConfig{}, cfg.cores);
    TelemetryFanout fanout;
    fanout.add(&recorder);
    fanout.add(&tracer);
    srv.setObserver(fanout.target());
    Observed o;
    o.result = drive(srv);
    o.latency = srv.latencySamples().sortedSamples();
    o.timeline = analysis::timelineCsv(recorder.series());
    o.trace = analysis::traceCsv(tracer.series());
    return o;
}

/** Every RunResult field, compared for bit identity. */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.configName, b.configName);
    EXPECT_EQ(a.workloadName, b.workloadName);
    EXPECT_EQ(a.offeredQps, b.offeredQps);
    EXPECT_EQ(a.residency.share, b.residency.share);
    EXPECT_EQ(a.residency.entries, b.residency.entries);
    EXPECT_EQ(a.residency.window, b.residency.window);
    EXPECT_EQ(a.avgLatencyUs, b.avgLatencyUs);
    EXPECT_EQ(a.p99LatencyUs, b.p99LatencyUs);
    EXPECT_EQ(a.p999LatencyUs, b.p999LatencyUs);
    EXPECT_EQ(a.avgLatencyE2eUs, b.avgLatencyE2eUs);
    EXPECT_EQ(a.p99LatencyE2eUs, b.p99LatencyE2eUs);
    EXPECT_EQ(a.avgCorePower, b.avgCorePower);
    EXPECT_EQ(a.packagePower, b.packagePower);
    EXPECT_EQ(a.coreEnergy, b.coreEnergy);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.achievedQps, b.achievedQps);
    EXPECT_EQ(a.mispredictedEntries, b.mispredictedEntries);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.transitionsPerRequest, b.transitionsPerRequest);
    EXPECT_EQ(a.freqTransitions, b.freqTransitions);
    EXPECT_EQ(a.freqTransitionEnergyJ, b.freqTransitionEnergyJ);
    EXPECT_EQ(a.capThrottleShare, b.capThrottleShare);
    EXPECT_EQ(a.forcedIdleNaps, b.forcedIdleNaps);
    EXPECT_EQ(a.maxTempC, b.maxTempC);
    EXPECT_EQ(a.pkgResidency, b.pkgResidency);
    EXPECT_EQ(a.avgUncorePower, b.avgUncorePower);
    EXPECT_EQ(a.window, b.window);
}

TEST(ServerSim, AdvanceInPiecesEqualsOneCall)
{
    // A fleet server is advanced in pieces while its balancer still
    // routes: its arrival gaps and budget spans are appended between
    // pieces, and each piece stops short of the last known arrival.
    // Cut anywhere, that must be the run one run() call gives over
    // the same gaps -- every result field, every sample, every
    // timeline and trace byte. The cuts are seeded random ticks plus
    // the awkward ones: the warmup tick, every arrival tick and the
    // ticks either side of it, zero-gap pairs (two arrivals on one
    // tick) and every budget span's start.
    const Tick warmup = fromMs(4.0);
    const Tick duration = fromMs(36.0);
    const Tick end = warmup + duration;

    Rng rng(20261019);
    workload::PoissonArrivals poisson(150e3);
    std::vector<Tick> gaps;
    for (Tick t = 0; t < end;) {
        const Tick g = gaps.size() % 37 == 5 ? 0 : poisson.nextGap(rng);
        gaps.push_back(g);
        t += g;
    }

    struct Case
    {
        const char *name;
        ServerConfig cfg;
        bool capped;
    };
    std::vector<Case> cases;
    for (const bool aw : {true, false}) {
        ServerConfig cfg = aw ? ServerConfig::awBaseline()
                              : ServerConfig::legacyC1C6();
        cfg.idlePromotion = true;
        cfg.idlePromotionTick = fromMs(1.0);
        cfg.packageCStatesEnabled = true;
        cases.push_back(Case{aw ? "aw" : "c1c6", cfg, false});
    }
    ServerConfig capped = ServerConfig::awBaseline();
    capped.cap.capWatts = 40.0;
    capped.cap.thermalEnabled = true;
    capped.cap.thermal.tripC = 60.0;
    capped.cap.thermal.releaseC = 58.0;
    cases.push_back(Case{"capped", capped, true});

    // Budget spans every 3 ms, alternating tight and loose.
    std::vector<cap::BudgetSpan> spans;
    for (Tick t = fromMs(1.5); t < end; t += fromMs(3.0))
        spans.push_back(
            cap::BudgetSpan{t, spans.size() % 2 == 0 ? 25.0 : 60.0});

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        std::set<Tick> cuts{warmup, warmup - 1, warmup + 1, end};
        for (int k = 0; k < 200; ++k)
            cuts.insert(rng.uniformInt(0, end + fromMs(1.0)));
        Tick arrival = 0;
        for (const Tick g : gaps) {
            arrival += g;
            cuts.insert({arrival - 1, arrival, arrival + 1});
        }
        if (c.capped) {
            for (const auto &span : spans)
                cuts.insert({span.start - 1, span.start});
        }

        const Observed reference = observe(
            c.cfg,
            std::make_unique<workload::TraceArrivals>(
                workload::ArrivalTrace(gaps), /*loop=*/false),
            [&](ServerSim &srv) {
                if (c.capped)
                    srv.appendCapSpans(spans);
                return srv.run(duration, warmup);
            });
        EXPECT_GT(reference.result.requests, 1000u);
        if (c.capped) {
            EXPECT_GT(reference.result.capThrottleShare, 0.0);
            EXPECT_GT(reference.result.maxTempC, 0.0);
        } else {
            EXPECT_GT(reference.result.pkgResidency[0], 0.0);
        }

        auto owned = std::make_unique<workload::GapStream>();
        workload::GapStream &stream = *owned;
        const Observed pieces = observe(
            c.cfg, std::move(owned), [&](ServerSim &srv) {
                std::size_t next_gap = 0;
                std::size_t next_span = 0;
                // The tightest legal hand-over: every span that
                // starts by t, and gaps until one arrives after t.
                const auto handOver = [&](Tick t) {
                    if (next_gap < gaps.size()) {
                        std::vector<Tick> chunk;
                        Tick last = stream.lastArrival();
                        while (next_gap < gaps.size() &&
                               (next_gap == 0 || last <= t)) {
                            last += gaps[next_gap];
                            chunk.push_back(gaps[next_gap++]);
                        }
                        stream.append(std::move(chunk));
                        if (next_gap == gaps.size())
                            stream.close();
                    }
                    if (!c.capped)
                        return;
                    const std::size_t from = next_span;
                    while (next_span < spans.size() &&
                           spans[next_span].start <= t)
                        ++next_span;
                    srv.appendCapSpans(std::span(spans).subspan(
                        from, next_span - from));
                };
                handOver(0);
                srv.begin(duration, warmup);
                for (const Tick t : cuts) {
                    handOver(t);
                    srv.advanceTo(t);
                }
                return srv.finish();
            });

        expectSameResult(pieces.result, reference.result);
        EXPECT_EQ(pieces.latency, reference.latency);
        EXPECT_EQ(pieces.timeline, reference.timeline);
        EXPECT_EQ(pieces.trace, reference.trace);
    }
}

TEST(ServerSimDeathTest, AskingAnOpenStreamPastItsGapsPanics)
{
    // Advancing to the last known arrival fires its dispatch, which
    // draws a gap the stream does not hold yet.
    auto stream = std::make_unique<workload::GapStream>();
    workload::GapStream &gaps = *stream;
    gaps.append({fromUs(10.0), fromUs(10.0)});
    ServerSim srv(ServerConfig::baseline(),
                  workload::WorkloadProfile::memcached(),
                  std::move(stream));
    srv.begin(fromMs(1.0), 0);
    srv.advanceTo(gaps.lastArrival() - 1);
    EXPECT_DEATH(srv.advanceTo(gaps.lastArrival()), "asked for before");
}

TEST(ServerSimDeathTest, RejectsNullArrivalStream)
{
    const auto profile = workload::WorkloadProfile::memcached();
    EXPECT_EXIT(
        ServerSim(ServerConfig::baseline(), profile,
                  std::unique_ptr<workload::ArrivalProcess>{}),
        ::testing::ExitedWithCode(1), "null arrival");
}

} // namespace
