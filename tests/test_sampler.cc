/**
 * @file
 * Tests for the streaming interval sampler: boundary-exact interval
 * semantics, partial/zero-length final intervals, ring overflow,
 * fleet folding, cross-checks against whole-run results and the
 * thread-count byte-identity of the aw-timeline/3 artifacts.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/sampler.hh"
#include "exp/emit.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "server/server_sim.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;
using namespace aw::analysis;

/** 1 ms interval in ticks, the synthetic tests' grid unit. */
const sim::Tick kIv = sim::fromSec(1e-3);

TimelineConfig
cfgWith(double interval_s, std::size_t capacity = 4096)
{
    TimelineConfig tc;
    tc.intervalSeconds = interval_s;
    tc.capacity = capacity;
    return tc;
}

// ------------------------------------------------ interval semantics

TEST(Sampler, EventExactlyOnBoundaryLandsInNextInterval)
{
    TimelineRecorder rec(cfgWith(1e-3), 1);
    rec.onMeasurementStart(0);
    rec.onComplete(0, 0, kIv, 10.0); // exactly on the first boundary
    rec.onMeasurementEnd(2 * kIv);

    const TimelineSeries &s = rec.series();
    ASSERT_EQ(s.samples.size(), 2u);
    EXPECT_EQ(s.samples[0].t0, 0u);
    EXPECT_EQ(s.samples[0].t1, kIv);
    EXPECT_EQ(s.samples[0].requests, 0u);
    EXPECT_EQ(s.samples[1].requests, 1u);
}

TEST(Sampler, RunShorterThanOneIntervalEmitsOnePartial)
{
    TimelineRecorder rec(cfgWith(1e-3), 1);
    rec.onMeasurementStart(0);
    rec.onComplete(0, 0, kIv / 4, 5.0);
    rec.onMeasurementEnd(kIv / 2);

    const TimelineSeries &s = rec.series();
    EXPECT_EQ(s.emitted, 1u);
    ASSERT_EQ(s.samples.size(), 1u);
    EXPECT_EQ(s.samples[0].t0, 0u);
    EXPECT_EQ(s.samples[0].t1, kIv / 2);
    EXPECT_EQ(s.samples[0].requests, 1u);
    // achievedQps scales by the partial interval's actual length.
    EXPECT_DOUBLE_EQ(s.samples[0].achievedQps(),
                     1.0 / sim::toSec(kIv / 2));
}

TEST(Sampler, EndExactlyOnBoundaryEmitsNoZeroLengthInterval)
{
    TimelineRecorder rec(cfgWith(1e-3), 1);
    rec.onMeasurementStart(0);
    rec.onComplete(0, 0, 100, 5.0);
    rec.onMeasurementEnd(3 * kIv);

    const TimelineSeries &s = rec.series();
    EXPECT_EQ(s.emitted, 3u);
    ASSERT_EQ(s.samples.size(), 3u);
    for (const auto &sample : s.samples)
        EXPECT_GT(sample.t1, sample.t0);
    EXPECT_EQ(s.samples.back().t1, 3 * kIv);
}

TEST(Sampler, WarmupActivityIsExcluded)
{
    TimelineRecorder rec(cfgWith(1e-3), 1);
    // Pre-measurement traffic: levels are tracked, nothing accrues.
    rec.onCorePower(0, 0, 5.0);
    rec.onComplete(0, 0, 10, 3.0);
    rec.onMeasurementStart(7 * kIv); // warmup ended mid-run
    rec.onMeasurementEnd(8 * kIv);

    const TimelineSeries &s = rec.series();
    EXPECT_EQ(s.origin, 7 * kIv);
    ASSERT_EQ(s.samples.size(), 1u);
    EXPECT_EQ(s.samples[0].t0, 7 * kIv);
    EXPECT_EQ(s.samples[0].requests, 0u);
    // The power level set before the window still applies to it.
    EXPECT_NEAR(s.samples[0].powerW, 5.0, 1e-12);
}

TEST(Sampler, RingKeepsNewestAndCountsDropped)
{
    TimelineRecorder rec(cfgWith(1e-3, /*capacity=*/4), 1);
    rec.onMeasurementStart(0);
    rec.onMeasurementEnd(10 * kIv);

    const TimelineSeries &s = rec.series();
    EXPECT_EQ(s.emitted, 10u);
    EXPECT_EQ(s.dropped, 6u);
    ASSERT_EQ(s.samples.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(s.samples[i].index, 6u + i);
        EXPECT_EQ(s.samples[i].t0, (6 + i) * kIv);
    }
}

TEST(Sampler, ResidencyAndEnergyIntegrals)
{
    // Two cores: core 0 sits in C0 at 2 W, core 1 drops to C6 at
    // 0.5 W halfway through the single interval; uncore is 10 W.
    TimelineRecorder rec(cfgWith(1e-3), 2);
    rec.onCorePower(0, 0, 2.0);
    rec.onCorePower(1, 0, 2.0);
    rec.onUncorePower(0, 10.0);
    rec.onMeasurementStart(0);
    rec.onCStateEnter(1, kIv / 2, cstate::CStateId::C6);
    rec.onCorePower(1, kIv / 2, 0.5);
    rec.onMeasurementEnd(kIv);

    const TimelineSeries &s = rec.series();
    ASSERT_EQ(s.samples.size(), 1u);
    const IntervalSample &iv = s.samples[0];
    // Residency over 2 cores: C0 = (1 + 0.5) / 2, C6 = 0.5 / 2.
    EXPECT_NEAR(iv.residency[cstate::index(cstate::CStateId::C0)],
                0.75, 1e-12);
    EXPECT_NEAR(iv.residency[cstate::index(cstate::CStateId::C6)],
                0.25, 1e-12);
    // Power: 10 (uncore) + 2 (core 0) + (2 * 0.5 + 0.5 * 0.5).
    EXPECT_NEAR(iv.powerW, 10.0 + 2.0 + 1.25, 1e-9);
}

TEST(Sampler, PooledP99MatchesNearestRank)
{
    TimelineRecorder rec(cfgWith(1e-3), 1);
    rec.onMeasurementStart(0);
    for (int i = 100; i >= 1; --i) // unsorted on purpose
        rec.onComplete(0, 0, 10 + i, static_cast<double>(i));
    rec.onMeasurementEnd(kIv);

    const TimelineSeries &s = rec.series();
    ASSERT_EQ(s.samples.size(), 1u);
    // Nearest rank: ceil(0.99 * 100) = 99 -> sorted[98] = 99.
    EXPECT_DOUBLE_EQ(s.samples[0].p99Us, 99.0);
    EXPECT_EQ(s.samples[0].requests, 100u);
}

TEST(SamplerDeathTest, RejectsBadConfig)
{
    EXPECT_EXIT(TimelineRecorder(cfgWith(0.0), 1),
                testing::ExitedWithCode(1), "interval");
    EXPECT_EXIT(TimelineRecorder(cfgWith(1e-3, 0), 1),
                testing::ExitedWithCode(1), "capacity");
    EXPECT_EXIT(TimelineRecorder(cfgWith(1e-3), 0),
                testing::ExitedWithCode(1), "core");
    TimelineRecorder rec(cfgWith(1e-3), 1);
    EXPECT_EXIT(rec.series(), testing::ExitedWithCode(1),
                "before the run");
}

// ------------------------------------------------------------- fold

TEST(Sampler, FoldPoolsAcrossServers)
{
    TimelineConfig tc = cfgWith(1e-3);
    tc.retainLatencies = true;

    TimelineRecorder a(tc, 1), b(tc, 3);
    a.onCorePower(0, 0, 1.0);
    a.onMeasurementStart(0);
    for (int i = 1; i <= 50; ++i)
        a.onComplete(0, 0, 10 + i, static_cast<double>(i));
    a.onMeasurementEnd(kIv);

    b.onCorePower(0, 0, 2.0);
    b.onMeasurementStart(0);
    b.onCStateEnter(0, kIv / 2, cstate::CStateId::C6);
    for (int i = 51; i <= 100; ++i)
        b.onComplete(0, 0, 10 + i, static_cast<double>(i));
    b.onMeasurementEnd(kIv);

    const auto folded = foldTimelines({a.series(), b.series()});
    EXPECT_EQ(folded.cores, 4u);
    ASSERT_EQ(folded.samples.size(), 1u);
    const IntervalSample &iv = folded.samples[0];
    EXPECT_EQ(iv.requests, 100u);
    // Pooled p99 over both servers' samples 1..100.
    EXPECT_DOUBLE_EQ(iv.p99Us, 99.0);
    // Residency is core-weighted: server a contributes 1 C0 core,
    // server b 3 cores of which core 0 spends half in C6.
    EXPECT_NEAR(iv.residency[cstate::index(cstate::CStateId::C0)],
                (1.0 + 2.5) / 4.0, 1e-12);
    EXPECT_NEAR(iv.residency[cstate::index(cstate::CStateId::C6)],
                0.5 / 4.0, 1e-12);
    // Power sums across servers.
    EXPECT_NEAR(iv.powerW, 1.0 + 2.0, 1e-9);
}

TEST(SamplerDeathTest, FoldRejectsMismatchedGrids)
{
    TimelineConfig tc = cfgWith(1e-3);
    tc.retainLatencies = true;
    TimelineRecorder a(tc, 1), b(tc, 1);
    a.onMeasurementStart(0);
    a.onMeasurementEnd(kIv);
    b.onMeasurementStart(0);
    b.onMeasurementEnd(2 * kIv);
    EXPECT_EXIT(foldTimelines({a.series(), b.series()}),
                testing::ExitedWithCode(1), "mismatched");
}

// --------------------------------------- cross-check vs run results

TEST(Sampler, SingleIntervalMatchesRunResult)
{
    // One interval spanning the whole measured window must agree
    // with the RunResult aggregates computed independently.
    auto cfg = server::ServerConfig::awBaseline();
    cfg.cores = 4;
    cfg.seed = 3;
    server::ServerSim srv(cfg, workload::WorkloadProfile::memcached(),
                          100e3);
    TimelineRecorder rec(cfgWith(0.2), cfg.cores);
    srv.setObserver(&rec);
    const auto r = srv.run(sim::fromSec(0.2), sim::fromSec(0.02));

    const TimelineSeries &s = rec.series();
    ASSERT_EQ(s.samples.size(), 1u);
    const IntervalSample &iv = s.samples[0];
    EXPECT_EQ(iv.requests, r.requests);
    EXPECT_NEAR(iv.achievedQps(), r.achievedQps,
                1e-6 * r.achievedQps);
    EXPECT_NEAR(iv.powerW, r.packagePower, 1e-6 * r.packagePower);
    EXPECT_NEAR(iv.p99Us, r.p99LatencyUs, 1e-9);
    for (std::size_t i = 0; i < cstate::kNumCStates; ++i)
        EXPECT_NEAR(iv.residency[i], r.residency.share[i], 1e-9)
            << i;
}

TEST(Sampler, IntervalsTileTheWindowExactly)
{
    auto cfg = server::ServerConfig::awBaseline();
    cfg.cores = 2;
    cfg.seed = 5;
    server::ServerSim srv(cfg, workload::WorkloadProfile::memcached(),
                          50e3);
    TimelineRecorder rec(cfgWith(0.01), cfg.cores);
    srv.setObserver(&rec);
    const auto r = srv.run(sim::fromSec(0.1), sim::fromSec(0.01));

    const TimelineSeries &s = rec.series();
    ASSERT_EQ(s.samples.size(), 10u);
    std::uint64_t requests = 0;
    sim::Tick cursor = s.origin;
    for (const auto &iv : s.samples) {
        EXPECT_EQ(iv.t0, cursor); // gap-free tiling
        cursor = iv.t1;
        requests += iv.requests;
        double share_sum = 0.0;
        for (const double share : iv.residency)
            share_sum += share;
        EXPECT_NEAR(share_sum, 1.0, 1e-9);
    }
    EXPECT_EQ(cursor, s.origin + r.window);
    EXPECT_EQ(requests, r.requests);
}

// -------------------------------------------- artifact determinism

TEST(Sampler, TimelineArtifactsAreThreadCountInvariant)
{
    exp::ExperimentSpec spec;
    spec.name = "tl-identity";
    spec.workloads = {"memcached"};
    spec.configs = {"aw", "c1c6"};
    spec.qps = {80e3, 160e3};
    spec.seconds = 0.05;
    spec.seed = 9;
    spec.timelineIntervalSeconds = 0.01;

    const auto r1 = exp::SweepRunner(1).run(spec);
    const auto r8 = exp::SweepRunner(8).run(spec);
    ASSERT_EQ(r1.points.size(), 4u);
    EXPECT_EQ(exp::toTimelineCsv(r1), exp::toTimelineCsv(r8));
    EXPECT_EQ(exp::toTimelineJson(r1), exp::toTimelineJson(r8));
    // And the regular artifacts are untouched by the sampler.
    exp::ExperimentSpec plain = spec;
    plain.timelineIntervalSeconds = 0.0;
    const auto rp = exp::SweepRunner(2).run(plain);
    EXPECT_EQ(exp::toCsv(rp), exp::toCsv(r1));
    EXPECT_EQ(exp::toJson(rp), exp::toJson(r1));
}

TEST(Sampler, CsvSchemaIsPinned)
{
    TimelineRecorder rec(cfgWith(1e-3), 1);
    rec.onMeasurementStart(0);
    rec.onComplete(0, 0, 100, 5.0);
    rec.onMeasurementEnd(kIv);
    const std::string csv = timelineCsv(rec.series());
    EXPECT_EQ(csv.rfind("# aw-timeline/3\n", 0), 0u);
    EXPECT_NE(csv.find("interval,t0_s,t1_s,requests,achieved_qps,"
                       "power_w,p99_us,res_c0,res_c1,res_c1e,"
                       "res_c6a,res_c6ae,res_c6,freq_ghz,temp_c,"
                       "throttled_share\n"),
              std::string::npos);
    // A lossless series carries no overflow flag line (the pinned
    // goldens depend on that).
    EXPECT_EQ(csv.find("# emitted"), std::string::npos);
}

TEST(Sampler, OverflowedRingIsFlaggedInCsvAndOnStderr)
{
    // Regression: a wrapped interval ring used to render exactly
    // like a complete one -- only the JSON counters knew. Overflow
    // a capacity-4 ring and require both the artifact comment line
    // and the stderr warning.
    TimelineRecorder rec(cfgWith(1e-3, /*capacity=*/4), 1);
    rec.onMeasurementStart(0);
    rec.onMeasurementEnd(10 * kIv);
    ASSERT_EQ(rec.series().dropped, 6u);

    testing::internal::CaptureStderr();
    const std::string csv = timelineCsv(rec.series());
    const std::string err = testing::internal::GetCapturedStderr();

    EXPECT_NE(csv.find("# emitted 10 dropped 6 (ring overflow"),
              std::string::npos)
        << csv;
    EXPECT_NE(err.find("interval ring overflowed"),
              std::string::npos)
        << err;
    // The flag is a comment: the column schema stays identical.
    EXPECT_NE(csv.find("interval,t0_s,t1_s,requests"),
              std::string::npos);
    // And the JSON rendering carries the counters for machines.
    const std::string json =
        timelineJson(rec.series(), "overflow-test");
    EXPECT_NE(json.find("\"intervals_emitted\": 10"),
              std::string::npos);
    EXPECT_NE(json.find("\"intervals_dropped\": 6"),
              std::string::npos);
}

TEST(Sampler, SweepTimelineOverflowIsFlaggedPerPoint)
{
    // End to end through the sweep emitter: a sampling interval
    // fine enough to wrap the default 4096-interval ring must
    // surface per-point overflow comments in the aw-timeline/3
    // sweep CSV (and warn), not silently truncate the day.
    exp::ExperimentSpec spec;
    spec.name = "overflow";
    spec.workloads = {"memcached"};
    spec.configs = {"aw"};
    spec.qps = {20e3};
    spec.seconds = 0.45;
    spec.seed = 1;
    spec.timelineIntervalSeconds = 1e-4; // 4500 intervals > 4096
    const auto result = exp::SweepRunner(1).run(spec);
    ASSERT_EQ(result.points.size(), 1u);
    ASSERT_TRUE(result.points[0].timeline.has_value());
    ASSERT_GT(result.points[0].timeline->dropped, 0u);

    testing::internal::CaptureStderr();
    const std::string csv = exp::toTimelineCsv(result);
    const std::string err = testing::internal::GetCapturedStderr();

    EXPECT_NE(csv.find("# point 0 emitted "), std::string::npos)
        << csv.substr(0, 400);
    EXPECT_NE(csv.find("(ring overflow"), std::string::npos);
    EXPECT_NE(err.find("interval ring overflowed"),
              std::string::npos)
        << err;
}

} // namespace
