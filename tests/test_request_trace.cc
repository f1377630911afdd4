/**
 * @file
 * Tests for the request-path tracer and tail-latency attribution:
 * ring/drop semantics, tick-exact span tiling, wake attribution
 * against hand-built episodes, attributeTail vs a brute-force
 * reference, fleet merge determinism across thread counts, the
 * aw-trace/1 emitters and a strict structural parse of the Chrome
 * trace_event JSON (pinned ph/pid/tid/ts keys).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "analysis/trace.hh"
#include "cluster/fleet.hh"
#include "exp/emit.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "server/server_sim.hh"
#include "sim/stats.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;
using namespace aw::analysis;

TraceConfig
cfgWith(std::size_t capacity)
{
    TraceConfig tc;
    tc.capacity = capacity;
    return tc;
}

/** Drive one request through the tracer's lifecycle on core 0. */
void
oneRequest(RequestTracer &t, std::uint64_t id, sim::Tick arrival,
           sim::Tick start, sim::Tick done)
{
    t.onRequestArrival(0, id, arrival);
    t.onServiceStart(0, id, start);
    t.onComplete(0, id, done, sim::toUs(done - arrival));
}

// --------------------------------------------- ring/drop semantics

TEST(RequestTracer, RingKeepsTheNewestSpansAndCountsDrops)
{
    RequestTracer t(cfgWith(4), 1);
    t.onMeasurementStart(0);
    for (std::uint64_t id = 0; id < 10; ++id) {
        const sim::Tick base = 1000 * id;
        oneRequest(t, id, base, base + 10, base + 30);
    }
    t.onMeasurementEnd(20000);

    const TraceSeries &s = t.series();
    EXPECT_EQ(s.emitted, 10u);
    EXPECT_EQ(s.dropped, 6u);
    ASSERT_EQ(s.spans.size(), 4u);
    for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_EQ(s.spans[k].id, 6 + k); // oldest retained first
        EXPECT_EQ(s.spans[k].latency(), 30u);
    }
}

/** Record @p n requests (each behind a wake episode) through a
 *  capacity-@p cap tracer and return its series, moved out. */
TraceSeries
traceOf(std::size_t cap, std::uint64_t n)
{
    RequestTracer t(cfgWith(cap), 1);
    t.onMeasurementStart(0);
    for (std::uint64_t id = 0; id < n; ++id) {
        const sim::Tick base = 1000 * id;
        t.onWakeStart(0, base, cstate::CStateId::C6A);
        t.onWakeEnd(0, base + 5);
        // Latency varies with id so a misplaced span shows.
        oneRequest(t, id, base, base + 10, base + 20 + id);
    }
    t.onMeasurementEnd(1000 * (n + 1));
    return std::move(t).series();
}

TEST(RequestTracer, RingBoundariesKeepTheNewestRecords)
{
    constexpr std::size_t cap = 5;
    for (const std::uint64_t n : std::initializer_list<std::uint64_t>{
             0, 1, cap - 1, cap, cap + 1, 2 * cap + 3}) {
        SCOPED_TRACE(n);
        const TraceSeries s = traceOf(cap, n);
        // Keep-newest reference: the last min(n, cap) records.
        const std::uint64_t kept = std::min<std::uint64_t>(n, cap);
        EXPECT_EQ(s.emitted, n);
        EXPECT_EQ(s.dropped, n - kept);
        EXPECT_EQ(s.wakesEmitted, n);
        EXPECT_EQ(s.wakesDropped, n - kept);
        ASSERT_EQ(s.spans.size(), kept);
        ASSERT_EQ(s.wakes.size(), kept);
        for (std::uint64_t k = 0; k < kept; ++k) {
            const std::uint64_t id = n - kept + k;
            EXPECT_EQ(s.spans[k].id, id);
            EXPECT_EQ(s.spans[k].arrival, 1000 * id);
            EXPECT_EQ(s.spans[k].latency(), 20 + id);
            EXPECT_EQ(s.spans[k].wake, 5u);
            EXPECT_EQ(s.wakes[k].start, 1000 * id);
            EXPECT_EQ(s.wakes[k].end, 1000 * id + 5);
        }
    }
}

TEST(RequestTracer, MemoryFollowsTheRecordsNotTheCapacity)
{
    // The default ring ceiling is 2^17 records; a run that made 100
    // must not hold storage for the ceiling.
    const TraceSeries s = traceOf(TraceConfig{}.capacity, 100);
    ASSERT_EQ(s.spans.size(), 100u);
    ASSERT_EQ(s.wakes.size(), 100u);
    EXPECT_LE(s.spans.capacity(), 256u);
    EXPECT_LE(s.wakes.capacity(), 256u);
}

TEST(RequestTracer, MovedOutSeriesEqualsTheReadOne)
{
    RequestTracer t(cfgWith(3), 1);
    t.onMeasurementStart(0);
    for (std::uint64_t id = 0; id < 7; ++id)
        oneRequest(t, id, 100 * id, 100 * id + 1, 100 * id + 2);
    t.onMeasurementEnd(1000);
    const TraceSeries read = t.series();
    const TraceSeries moved = std::move(t).series();
    EXPECT_EQ(moved.emitted, read.emitted);
    EXPECT_EQ(moved.dropped, read.dropped);
    ASSERT_EQ(moved.spans.size(), read.spans.size());
    for (std::size_t k = 0; k < read.spans.size(); ++k)
        EXPECT_EQ(moved.spans[k].id, read.spans[k].id);
}

TEST(RequestTracer, OverflowedRingIsFlaggedInCsvAndOnStderr)
{
    // Regression: a wrapped span ring used to render exactly like a
    // complete trace. The CSV must carry an overflow comment line
    // (a comment, so the column schema and every lossless golden
    // stay byte-identical) and the renderer must warn on stderr.
    RequestTracer t(cfgWith(4), 1);
    t.onMeasurementStart(0);
    for (std::uint64_t id = 0; id < 10; ++id) {
        const sim::Tick base = 1000 * id;
        oneRequest(t, id, base, base + 10, base + 30);
    }
    t.onMeasurementEnd(20000);
    ASSERT_EQ(t.series().dropped, 6u);

    testing::internal::CaptureStderr();
    const std::string csv = traceCsv(t.series());
    const std::string err = testing::internal::GetCapturedStderr();

    EXPECT_NE(csv.find("# emitted 10 dropped 6 (ring overflow"),
              std::string::npos)
        << csv;
    EXPECT_NE(err.find("span ring overflowed"), std::string::npos)
        << err;
    EXPECT_NE(csv.find(traceCsvHeader()), std::string::npos);

    // A lossless series carries no flag line.
    RequestTracer ok(cfgWith(64), 1);
    ok.onMeasurementStart(0);
    oneRequest(ok, 0, 100, 110, 130);
    ok.onMeasurementEnd(1000);
    EXPECT_EQ(traceCsv(ok.series()).find("# emitted"),
              std::string::npos);
}

TEST(RequestTracer, WarmupCompletionsAreNotRecorded)
{
    RequestTracer t(cfgWith(16), 1);
    oneRequest(t, 0, 0, 10, 30); // before the measured window
    t.onMeasurementStart(100);
    oneRequest(t, 1, 200, 210, 240);
    t.onMeasurementEnd(1000);

    const TraceSeries &s = t.series();
    EXPECT_EQ(s.emitted, 1u);
    ASSERT_EQ(s.spans.size(), 1u);
    EXPECT_EQ(s.spans[0].id, 1u);
}

TEST(RequestTracer, WarmupStraddlingSpanRendersANegativeArrival)
{
    // A request that arrives during warmup but completes inside the
    // window IS measured (its latency counts), and its CSV arrival_s
    // must go negative instead of wrapping the unsigned ticks.
    RequestTracer t(cfgWith(16), 1);
    t.onRequestArrival(0, 0, sim::fromUs(50.0));
    t.onMeasurementStart(sim::fromUs(100.0));
    t.onServiceStart(0, 0, sim::fromUs(110.0));
    t.onComplete(0, 0, sim::fromUs(130.0), 80.0);
    t.onMeasurementEnd(sim::fromUs(1000.0));

    const TraceSeries &s = t.series();
    ASSERT_EQ(s.spans.size(), 1u);
    const std::string row = traceCsvRow(s, s.spans[0]);
    EXPECT_NE(row.find(",-5e-05,"), std::string::npos) << row;
}

TEST(RequestTracer, PendingFifoGrowsPastItsPreallocation)
{
    // 40 queued requests on one core exceeds the preallocated
    // 16-slot FIFO twice over; growth must preserve FIFO order.
    RequestTracer t(cfgWith(64), 1);
    t.onMeasurementStart(0);
    for (std::uint64_t id = 0; id < 40; ++id)
        t.onRequestArrival(0, id, id);
    sim::Tick now = 100;
    for (std::uint64_t id = 0; id < 40; ++id) {
        t.onServiceStart(0, id, now);
        now += 7;
        t.onComplete(0, id, now, 0.0);
    }
    t.onMeasurementEnd(now + 1);

    const TraceSeries &s = t.series();
    ASSERT_EQ(s.spans.size(), 40u);
    for (std::uint64_t id = 0; id < 40; ++id) {
        EXPECT_EQ(s.spans[id].id, id);
        EXPECT_EQ(s.spans[id].arrival, id);
    }
}

// ------------------------------------------------ wake attribution

TEST(RequestTracer, WakeOverlapIsClippedToTheRequestsWait)
{
    RequestTracer t(cfgWith(16), 1);
    t.onMeasurementStart(0);

    // Request 0 arrives at 100 and opens a wake from C6 ending at
    // 600: its whole [start, end] overlaps the wait.
    t.onRequestArrival(0, 0, 100);
    t.onWakeStart(0, 100, cstate::CStateId::C6);
    // Request 1 arrives mid-episode at 400: only [400, 600] of the
    // wake stalls it.
    t.onRequestArrival(0, 1, 400);
    t.onWakeEnd(0, 600);
    t.onServiceStart(0, 0, 600);
    t.onComplete(0, 0, 700, 0.0);
    t.onServiceStart(0, 1, 700);
    t.onComplete(0, 1, 800, 0.0);
    // Request 2 arrives after the episode closed: no wake at all.
    t.onRequestArrival(0, 2, 900);
    t.onServiceStart(0, 2, 910);
    t.onComplete(0, 2, 950, 0.0);

    t.onMeasurementEnd(1000);
    const TraceSeries &s = t.series();
    ASSERT_EQ(s.spans.size(), 3u);

    EXPECT_EQ(s.spans[0].wake, 500u);
    EXPECT_EQ(s.spans[0].wakeFrom, cstate::CStateId::C6);
    EXPECT_EQ(s.spans[0].queueWait(), 0u);

    EXPECT_EQ(s.spans[1].wake, 200u);
    EXPECT_EQ(s.spans[1].wakeFrom, cstate::CStateId::C6);
    EXPECT_EQ(s.spans[1].queueWait(), 100u);

    EXPECT_EQ(s.spans[2].wake, 0u);
    EXPECT_EQ(s.spans[2].wakeFrom, cstate::CStateId::C0);

    // The wake episode itself was recorded once.
    EXPECT_EQ(s.wakesEmitted, 1u);
    ASSERT_EQ(s.wakes.size(), 1u);
    EXPECT_EQ(s.wakes[0].start, 100u);
    EXPECT_EQ(s.wakes[0].end, 600u);
    EXPECT_EQ(s.wakes[0].from, cstate::CStateId::C6);
}

// ------------------------------------- tick-exact tiling (real run)

TEST(RequestTracer, SpansTileLatencyExactlyOnARealServerRun)
{
    auto cfg = exp::configByName("aw");
    cfg.seed = 7;
    server::ServerSim srv(cfg, exp::profileByName("memcached"),
                          100e3);
    RequestTracer tracer(TraceConfig{}, cfg.cores);
    srv.setObserver(&tracer);
    const auto r = srv.run(sim::fromSec(0.2), sim::fromSec(0.02));

    const TraceSeries &s = tracer.series();
    EXPECT_EQ(s.emitted, r.requests);
    EXPECT_EQ(s.dropped, 0u);
    ASSERT_GT(s.spans.size(), 1000u);

    sim::Tick prev_completion = 0;
    for (const auto &span : s.spans) {
        // Components tile [arrival, completion] with no gap or
        // overlap: the unsigned accessors would already underflow
        // on any mis-nesting, so check ordering first.
        ASSERT_GE(span.dispatch, span.arrival);
        ASSERT_GE(span.serviceStart, span.dispatch + span.wake);
        ASSERT_GE(span.completion, span.serviceStart);
        EXPECT_EQ(span.routing() + span.queueWait() + span.wake +
                      span.service(),
                  span.latency());
        if (span.wake > 0)
            EXPECT_NE(span.wakeFrom, cstate::CStateId::C0);
        // Completion-ordered, inside the measured window.
        EXPECT_GE(span.completion, prev_completion);
        prev_completion = span.completion;
        EXPECT_GE(span.completion, s.origin);
        EXPECT_LE(span.completion, s.end);
    }
}

TEST(RequestTracer, StaticC6ConfigAttributesWakesToC6)
{
    // Pinning the governor in C6 makes every idle wake a C6 wake:
    // the attribution must see a non-trivial C6 wake share and no
    // other sleep state in the histogram.
    auto cfg = exp::configByName("c1c6");
    cfg.governor = "static:C6";
    cfg.seed = 11;
    server::ServerSim srv(cfg, exp::profileByName("memcached"),
                          50e3);
    RequestTracer tracer(TraceConfig{}, cfg.cores);
    srv.setObserver(&tracer);
    srv.run(sim::fromSec(0.2), sim::fromSec(0.02));

    const TraceSeries &s = tracer.series();
    const TailAttribution attr = attributeTail(s);
    const auto c6 = cstate::index(cstate::CStateId::C6);
    EXPECT_GT(attr.all.wakeCount[c6], 0u);
    EXPECT_GT(attr.all.wakeShare, 0.0);
    for (std::size_t st = 0; st < cstate::kNumCStates; ++st) {
        if (st != c6)
            EXPECT_EQ(attr.all.wakeCount[st], 0u) << "state " << st;
    }
    for (const auto &w : s.wakes)
        EXPECT_EQ(w.from, cstate::CStateId::C6);
}

// ------------------------------------- attribution vs brute force

TEST(AttributeTail, MatchesABruteForceReference)
{
    auto cfg = exp::configByName("c1c6");
    cfg.seed = 3;
    server::ServerSim srv(cfg, exp::profileByName("memcached"),
                          150e3);
    RequestTracer tracer(TraceConfig{}, cfg.cores);
    srv.setObserver(&tracer);
    srv.run(sim::fromSec(0.15), sim::fromSec(0.015));

    const TraceSeries &s = tracer.series();
    ASSERT_FALSE(s.spans.empty());
    const TailAttribution attr = attributeTail(s);

    // Nearest-rank p99 threshold, recomputed independently.
    std::vector<sim::Tick> lat;
    for (const auto &span : s.spans)
        lat.push_back(span.latency());
    std::sort(lat.begin(), lat.end());
    const auto n = static_cast<double>(lat.size());
    const sim::Tick p99 = lat[static_cast<std::size_t>(
                              std::ceil(0.99 * n)) -
                          1];
    EXPECT_DOUBLE_EQ(attr.p99Us, sim::toUs(p99));

    // Brute-force cohort sums with the same integer arithmetic.
    std::uint64_t count = 0, latency = 0, wake = 0, queue = 0,
                  service = 0, routing = 0;
    for (const auto &span : s.spans) {
        if (span.latency() < p99)
            continue;
        ++count;
        latency += span.latency();
        wake += span.wake;
        queue += span.queueWait();
        service += span.service();
        routing += span.routing();
    }
    ASSERT_GT(count, 0u);
    EXPECT_EQ(attr.p99.count, count);
    EXPECT_DOUBLE_EQ(attr.p99.meanLatencyUs,
                     sim::toUs(latency) /
                         static_cast<double>(count));
    EXPECT_DOUBLE_EQ(attr.p99.wakeShare,
                     static_cast<double>(wake) /
                         static_cast<double>(latency));
    EXPECT_DOUBLE_EQ(attr.p99.queueShare,
                     static_cast<double>(queue) /
                         static_cast<double>(latency));
    EXPECT_DOUBLE_EQ(attr.p99.serviceShare,
                     static_cast<double>(service) /
                         static_cast<double>(latency));
    EXPECT_DOUBLE_EQ(attr.p99.routingShare,
                     static_cast<double>(routing) /
                         static_cast<double>(latency));
    // Shares of any cohort tile 1 exactly in the integer domain.
    EXPECT_EQ(routing + queue + wake + service, latency);
}

/** attributeTail over @p n spans with latencies drawn from
 *  [1, range] must equal a full-sort nearest-rank reference. */
void
expectSelectionMatchesASort(std::size_t n, std::uint64_t range,
                            std::mt19937_64 &rng)
{
    SCOPED_TRACE(testing::Message() << n << " spans, range " << range);
    TraceSeries s;
    for (std::size_t k = 0; k < n; ++k) {
        RequestSpan span;
        span.id = k;
        span.arrival = span.dispatch = span.serviceStart = 1000 * k;
        span.completion = span.arrival + 1 + rng() % range;
        s.spans.push_back(span);
    }
    s.emitted = n;

    std::vector<sim::Tick> sorted;
    for (const auto &span : s.spans)
        sorted.push_back(span.latency());
    std::sort(sorted.begin(), sorted.end());
    const auto rankOf = [&](double p) {
        const auto r = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n)));
        return std::max<std::size_t>(r, 1);
    };
    const sim::Tick p99 = sorted[rankOf(99.0) - 1];
    const sim::Tick p999 = sorted[rankOf(99.9) - 1];
    std::uint64_t count99 = 0, lat99 = 0, count999 = 0, lat999 = 0;
    for (const auto &span : s.spans) {
        if (span.latency() >= p99) {
            ++count99;
            lat99 += span.latency();
        }
        if (span.latency() >= p999) {
            ++count999;
            lat999 += span.latency();
        }
    }

    const TailAttribution attr = attributeTail(s);
    EXPECT_EQ(attr.p99Us, sim::toUs(p99));
    EXPECT_EQ(attr.p999Us, sim::toUs(p999));
    EXPECT_EQ(attr.p99.thresholdUs, sim::toUs(p99));
    EXPECT_EQ(attr.p999.thresholdUs, sim::toUs(p999));
    EXPECT_EQ(attr.all.count, n);
    EXPECT_EQ(attr.p99.count, count99);
    EXPECT_EQ(attr.p999.count, count999);
    EXPECT_EQ(attr.p99.meanLatencyUs,
              sim::toUs(lat99) / static_cast<double>(count99));
    EXPECT_EQ(attr.p999.meanLatencyUs,
              sim::toUs(lat999) / static_cast<double>(count999));
}

TEST(AttributeTail, RankSelectionMatchesAFullSortWithTies)
{
    std::mt19937_64 rng(42);
    for (const std::size_t n : std::initializer_list<std::size_t>{
             1, 2, 99, 100, 101, 1000, 1001, 20000}) {
        // A narrow range puts ties across the ranks; a wide one
        // leaves the selections many distinct values to order.
        expectSelectionMatchesASort(n, 37, rng);
        expectSelectionMatchesASort(n, 1000000, rng);
    }
}

TEST(AttributeTail, EmptySeriesYieldsZeros)
{
    const TailAttribution attr = attributeTail(TraceSeries{});
    EXPECT_EQ(attr.spans, 0u);
    EXPECT_EQ(attr.all.count, 0u);
    EXPECT_DOUBLE_EQ(attr.p99Us, 0.0);
    EXPECT_DOUBLE_EQ(attr.all.wakeShare, 0.0);
}

// ----------------------------------------------------- percentiles

TEST(PercentileTracker, P999UsesNearestRank)
{
    sim::PercentileTracker t;
    for (int i = 1000; i >= 1; --i)
        t.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(t.p99(), 990.0); // ceil(0.99 * 1000) = 990
    EXPECT_GE(t.p999(), 999.0);       // within one rank of the max
    EXPECT_LE(t.p999(), 1000.0);
    EXPECT_GE(t.p999(), t.p99());
    EXPECT_DOUBLE_EQ(t.p999(), t.percentile(99.9));
    sim::PercentileTracker ten;
    for (int i = 10; i >= 1; --i)
        ten.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(ten.p999(), 10.0); // ceil(0.999 * 10) = 10
    sim::PercentileTracker one;
    one.add(42.0);
    EXPECT_DOUBLE_EQ(one.p999(), 42.0);
}

// ----------------------------------------------------- mergeTraces

TEST(MergeTraces, StampsServersInterleavesAndSumsCounters)
{
    TraceSeries a;
    a.origin = 0;
    a.end = 1000;
    a.cores = 2;
    a.emitted = 3;
    a.dropped = 1;
    a.wakesEmitted = 1;
    for (const sim::Tick done : {100u, 300u, 300u}) {
        RequestSpan sp;
        sp.arrival = done - 50;
        sp.dispatch = sp.arrival;
        sp.serviceStart = done - 10;
        sp.completion = done;
        a.spans.push_back(sp);
    }
    TraceSeries b = a;
    b.emitted = 2;
    b.dropped = 0;
    b.spans.pop_back();
    b.spans[0].completion = 200;
    b.spans[1].completion = 300;

    const TraceSeries m = mergeTraces({a, b});
    EXPECT_EQ(m.servers, 2u);
    EXPECT_EQ(m.cores, 2u);
    EXPECT_EQ(m.emitted, 5u);
    EXPECT_EQ(m.dropped, 1u);
    ASSERT_EQ(m.spans.size(), 5u);
    // Completion order 100, 200, 300(a), 300(a), 300(b): the stable
    // sort keeps server 0's equal-tick spans ahead of server 1's.
    EXPECT_EQ(m.spans[0].completion, 100u);
    EXPECT_EQ(m.spans[0].server, 0u);
    EXPECT_EQ(m.spans[1].completion, 200u);
    EXPECT_EQ(m.spans[1].server, 1u);
    EXPECT_EQ(m.spans[2].server, 0u);
    EXPECT_EQ(m.spans[3].server, 0u);
    EXPECT_EQ(m.spans[4].server, 1u);
}

// -------------------------------------------------- fanout/passivity

TEST(TelemetryFanout, BothSinksSeeTheIdenticalTrace)
{
    auto cfg = exp::configByName("aw");
    cfg.seed = 5;
    server::ServerSim srv(cfg, exp::profileByName("memcached"),
                          80e3);
    RequestTracer one(TraceConfig{}, cfg.cores);
    RequestTracer two(TraceConfig{}, cfg.cores);
    server::TelemetryFanout fanout;
    fanout.add(&one);
    fanout.add(&two);
    srv.setObserver(&fanout);
    srv.run(sim::fromSec(0.1), sim::fromSec(0.01));

    EXPECT_EQ(traceCsv(one.series()), traceCsv(two.series()));
    EXPECT_GT(one.series().emitted, 0u);
}

TEST(TelemetryFanout, TargetIsNullTheSingleSinkOrItself)
{
    RequestTracer one(TraceConfig{}, 1);
    RequestTracer two(TraceConfig{}, 1);
    server::TelemetryFanout none;
    none.add(nullptr);
    EXPECT_EQ(none.target(), nullptr);
    server::TelemetryFanout single;
    single.add(nullptr);
    single.add(&one);
    EXPECT_EQ(single.target(), &one);
    server::TelemetryFanout both;
    both.add(&one);
    both.add(&two);
    EXPECT_EQ(both.target(), &both);
}

TEST(RequestTracer, TracingIsPassiveOnAServerRun)
{
    auto cfg = exp::configByName("c1c6");
    cfg.seed = 9;
    const auto profile = exp::profileByName("memcached");

    server::ServerSim plain(cfg, profile, 120e3);
    const auto a = plain.run(sim::fromSec(0.1), sim::fromSec(0.01));

    server::ServerSim traced(cfg, profile, 120e3);
    RequestTracer tracer(TraceConfig{}, cfg.cores);
    traced.setObserver(&tracer);
    const auto b = traced.run(sim::fromSec(0.1), sim::fromSec(0.01));

    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_DOUBLE_EQ(a.p99LatencyUs, b.p99LatencyUs);
    EXPECT_DOUBLE_EQ(a.packagePower, b.packagePower);
}

// ------------------------------------ sweep emitters / determinism

exp::ExperimentSpec
tracedFleetSpec()
{
    exp::ExperimentSpec spec;
    spec.name = "trace-determinism";
    spec.workloads = {"memcached"};
    spec.configs = {"aw", "c1c6"};
    spec.policies = {"round-robin", "pack-first"};
    spec.fleetSizes = {2};
    spec.qps = {100e3};
    spec.seconds = 0.1;
    spec.seed = 42;
    spec.traceRequests = true;
    return spec;
}

TEST(TraceEmit, ArtifactsAreByteIdenticalAcrossThreadCounts)
{
    const auto spec = tracedFleetSpec();
    const auto serial = exp::SweepRunner(1).run(spec);
    const auto parallel = exp::SweepRunner(8).run(spec);
    const std::string csv1 = exp::toTraceCsv(serial);
    const std::string csv8 = exp::toTraceCsv(parallel);
    EXPECT_EQ(csv1, csv8);
    EXPECT_EQ(exp::toTraceJson(serial),
              exp::toTraceJson(parallel));

    // The pinned artifact schema: versioned header plus the
    // headline columns the paper's tail argument reads.
    EXPECT_EQ(csv1.rfind("# aw-trace/1\n", 0), 0u);
    for (const char *col :
         {"p99_wake_share", "p99_queue_share", "p999_latency_us",
          "p99_wake_share_c6", "all_service_share"}) {
        EXPECT_NE(csv1.find(col), std::string::npos)
            << "missing column " << col;
    }
    // One header comment, one column row, one row per point.
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(csv1.begin(), csv1.end(), '\n')),
              2 + serial.points.size());
}

TEST(TraceEmit, RegularArtifactsStayIdenticalWithTracingOn)
{
    // The tracer is passive and its metrics live in new artifacts
    // only: the pinned CSV/JSON bytes cannot change when tracing
    // turns on, and neither can the kernel events each point
    // executes or the requests it completes.
    auto spec = tracedFleetSpec();
    spec.traceRequests = false;
    const auto off = exp::SweepRunner(1).run(spec);
    spec.traceRequests = true;
    const auto on = exp::SweepRunner(1).run(spec);
    EXPECT_EQ(exp::toCsv(off), exp::toCsv(on));
    EXPECT_EQ(exp::toJson(off), exp::toJson(on));
    ASSERT_EQ(off.points.size(), on.points.size());
    for (std::size_t i = 0; i < on.points.size(); ++i) {
        EXPECT_EQ(off.points[i].events, on.points[i].events) << i;
        EXPECT_EQ(off.points[i].requests, on.points[i].requests) << i;
        EXPECT_GT(on.points[i].events, 0u) << i;
    }
    for (const auto &p : on.points) {
        ASSERT_TRUE(p.trace.has_value());
        EXPECT_GT(p.trace->spans, 0u);
        EXPECT_GT(p.p999LatencyUs, 0.0);
        EXPECT_GE(p.p999LatencyUs, p.p99LatencyUs);
    }
}

TEST(PerfRegistry, TraceScenarioExecutesTheSameEventStream)
{
    // The tracer's passivity on the pinned 8-server fleet sweep:
    // with tracing on, every point must execute exactly the kernel
    // events and complete exactly the requests it does with tracing
    // off, or the tracer has perturbed the simulation it claims
    // merely to observe.
    exp::ExperimentSpec spec;
    spec.name = "trace-passive-fleet";
    spec.workloads = {"memcached"};
    spec.configs = {"aw", "c1c6"};
    spec.policies = {"round-robin", "pack-first"};
    spec.fleetSizes = {8};
    spec.qps = {400e3};
    spec.seconds = 0.3;
    spec.seed = 42;
    const auto plain = exp::SweepRunner(1).run(spec);
    spec.traceRequests = true;
    const auto traced = exp::SweepRunner(1).run(spec);
    ASSERT_EQ(plain.points.size(), 4u);
    ASSERT_EQ(plain.points.size(), traced.points.size());
    for (std::size_t i = 0; i < traced.points.size(); ++i) {
        ASSERT_TRUE(traced.points[i].trace.has_value()) << i;
        EXPECT_EQ(plain.points[i].point.servers, 8u) << i;
        EXPECT_EQ(plain.points[i].events, traced.points[i].events) << i;
        EXPECT_EQ(plain.points[i].requests, traced.points[i].requests)
            << i;
        EXPECT_GT(traced.points[i].events, 0u) << i;
    }
}

// --------------------------------------- Chrome trace JSON (strict)

/** Minimal recursive-descent JSON parser: enough structure to pin
 *  the trace_event contract without a JSON dependency. */
struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : _text(text) {}

    bool
    parse(JsonValue &out)
    {
        const bool ok = value(out);
        skipWs();
        return ok && _pos == _text.size();
    }

  private:
    void
    skipWs()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos])))
            ++_pos;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (_text.compare(_pos, n, word) != 0)
            return false;
        _pos += n;
        return true;
    }

    bool
    value(JsonValue &out)
    {
        skipWs();
        if (_pos >= _text.size())
            return false;
        const char c = _text[_pos];
        if (c == '{')
            return object(out);
        if (c == '[')
            return array(out);
        if (c == '"') {
            out.type = JsonValue::Type::String;
            return string(out.str);
        }
        if (c == 't' || c == 'f') {
            out.type = JsonValue::Type::Bool;
            out.boolean = c == 't';
            return literal(c == 't' ? "true" : "false");
        }
        if (c == 'n') {
            out.type = JsonValue::Type::Null;
            return literal("null");
        }
        return number(out);
    }

    bool
    string(std::string &out)
    {
        if (_text[_pos] != '"')
            return false;
        ++_pos;
        out.clear();
        while (_pos < _text.size() && _text[_pos] != '"') {
            if (_text[_pos] == '\\') {
                if (_pos + 1 >= _text.size())
                    return false;
                out += _text[_pos + 1]; // enough for the pins
                _pos += 2;
            } else {
                // RFC 8259: raw control characters are invalid.
                if (static_cast<unsigned char>(_text[_pos]) < 0x20)
                    return false;
                out += _text[_pos++];
            }
        }
        if (_pos >= _text.size())
            return false;
        ++_pos;
        return true;
    }

    bool
    number(JsonValue &out)
    {
        const std::size_t start = _pos;
        if (_pos < _text.size() && _text[_pos] == '-')
            ++_pos;
        while (_pos < _text.size() &&
               (std::isdigit(
                    static_cast<unsigned char>(_text[_pos])) ||
                _text[_pos] == '.' || _text[_pos] == 'e' ||
                _text[_pos] == 'E' || _text[_pos] == '+' ||
                _text[_pos] == '-'))
            ++_pos;
        if (_pos == start)
            return false;
        out.type = JsonValue::Type::Number;
        out.number = std::atof(_text.substr(start, _pos - start)
                                   .c_str());
        return true;
    }

    bool
    array(JsonValue &out)
    {
        out.type = JsonValue::Type::Array;
        ++_pos; // '['
        skipWs();
        if (_pos < _text.size() && _text[_pos] == ']') {
            ++_pos;
            return true;
        }
        while (true) {
            JsonValue v;
            if (!value(v))
                return false;
            out.array.push_back(std::move(v));
            skipWs();
            if (_pos >= _text.size())
                return false;
            if (_text[_pos] == ',') {
                ++_pos;
                continue;
            }
            if (_text[_pos] == ']') {
                ++_pos;
                return true;
            }
            return false;
        }
    }

    bool
    object(JsonValue &out)
    {
        out.type = JsonValue::Type::Object;
        ++_pos; // '{'
        skipWs();
        if (_pos < _text.size() && _text[_pos] == '}') {
            ++_pos;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (_pos >= _text.size() || !string(key))
                return false;
            skipWs();
            if (_pos >= _text.size() || _text[_pos] != ':')
                return false;
            ++_pos;
            JsonValue v;
            if (!value(v))
                return false;
            out.object.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (_pos >= _text.size())
                return false;
            if (_text[_pos] == ',') {
                ++_pos;
                continue;
            }
            if (_text[_pos] == '}') {
                ++_pos;
                return true;
            }
            return false;
        }
    }

    const std::string &_text;
    std::size_t _pos = 0;
};

TEST(ChromeTrace, FleetExportParsesWithThePinnedEventKeys)
{
    cluster::FleetConfig fc;
    fc.servers = 2;
    fc.server = exp::configByName("c1c6");
    fc.server.idlePromotion = true;
    fc.seed = 21;
    cluster::FleetSim fleet(fc, exp::profileByName("memcached"),
                            100e3);
    fleet.enableRequestTrace(TraceConfig{});
    const auto r =
        fleet.run(sim::fromSec(0.05), sim::fromSec(0.005));
    ASSERT_TRUE(r.trace.has_value());
    EXPECT_GT(r.trace->routingEmitted, 0u);

    const std::string json = chromeTraceJson(*r.trace);
    JsonValue doc;
    ASSERT_TRUE(JsonParser(json).parse(doc)) << json.substr(0, 400);
    ASSERT_EQ(doc.type, JsonValue::Type::Object);

    const JsonValue *unit = doc.find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->str, "ns");
    const JsonValue *other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    const JsonValue *schema = other->find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, kTraceSchema);

    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->type, JsonValue::Type::Array);
    ASSERT_FALSE(events->array.empty());

    std::size_t service = 0, wakes = 0, meta = 0, instants = 0;
    for (const auto &ev : events->array) {
        ASSERT_EQ(ev.type, JsonValue::Type::Object);
        // The pinned keys every trace_event viewer requires.
        const JsonValue *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(ev.find("pid"), nullptr);
        ASSERT_NE(ev.find("tid"), nullptr);
        ASSERT_NE(ev.find("ts"), nullptr);
        EXPECT_EQ(ev.find("pid")->type, JsonValue::Type::Number);
        EXPECT_EQ(ev.find("ts")->type, JsonValue::Type::Number);
        if (ph->str == "X") {
            ASSERT_NE(ev.find("dur"), nullptr);
            ASSERT_NE(ev.find("name"), nullptr);
            if (ev.find("name")->str == "service")
                ++service;
            else
                ++wakes;
        } else if (ph->str == "M") {
            ++meta;
        } else if (ph->str == "i") {
            const JsonValue *scope = ev.find("s");
            ASSERT_NE(scope, nullptr);
            EXPECT_EQ(scope->str, "p");
            ++instants;
        } else {
            FAIL() << "unexpected phase '" << ph->str << "'";
        }
    }
    EXPECT_GT(service, 0u);
    EXPECT_GT(wakes, 0u);  // c1c6 sleeps and wakes constantly
    EXPECT_GT(meta, 0u);   // process/thread names
    EXPECT_GT(instants, 0u) << "routing decisions missing";
    EXPECT_EQ(service, r.trace->spans.size());
    EXPECT_EQ(instants, r.trace->routing.size());
}

} // namespace
