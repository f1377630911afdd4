#include "workloads.hh"

#include <algorithm>
#include <optional>

#include "analysis/sampler.hh"
#include "cluster/fleet.hh"
#include "core/aw_core.hh"
#include "cstate/governors.hh"
#include "exp/emit.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "measure.hh"
#include "server/server_sim.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "workload/trace.hh"

namespace perfbench {

namespace {

using namespace aw;

constexpr std::uint64_t kDefaultSeed = 42;

/** Where the replay loops leave their results, so the timed work
 *  cannot be optimised away. */
volatile double g_sink = 0.0;

/** Output digests of the default seed: the sweep's CSV bytes, and
 *  each fleet's result fields plus per-server routed/request
 *  vectors. A change that moves a simulated result fails here. */
struct Pin
{
    const char *workload;
    const char *digest;
};
constexpr Pin kPins[] = {
    {"sweep_policy_grid", "8f9b59983bf40d37"},
    {"fleet_day_pack", "5b71bf86bc37e188"},
    {"fleet_day_spread", "f2abb211bfa1559e"},
};

void
checkPin(const std::string &workload, std::uint64_t seed,
         const std::string &digest, Errors &errors)
{
    if (seed != kDefaultSeed)
        return;
    for (const Pin &p : kPins)
        if (workload == p.workload && digest != p.digest)
            errors.push_back(sim::strprintf(
                "%s: output digest %s, pinned %s", p.workload,
                digest.c_str(), p.digest));
}

/** Per-server counts the observer and the RunResult supply. */
struct ServerCounts
{
    std::uint64_t events = 0;
    std::uint64_t requests = 0;
    std::uint64_t freqChanges = 0;
    std::uint64_t throttleChanges = 0;
    std::uint64_t controlTicks = 0;
    std::uint64_t selectCalls = 0;
    double selectS = 0.0;
    std::uint64_t freqTransitions = 0;
    std::uint64_t naps = 0;
    std::uint64_t mispredicted = 0;
    std::array<std::uint64_t, cstate::kNumCStates> entries{};

    void
    add(const ServerCounts &o)
    {
        events += o.events;
        requests += o.requests;
        freqChanges += o.freqChanges;
        throttleChanges += o.throttleChanges;
        controlTicks += o.controlTicks;
        selectCalls += o.selectCalls;
        selectS += o.selectS;
        freqTransitions += o.freqTransitions;
        naps += o.naps;
        mispredicted += o.mispredicted;
        for (std::size_t s = 0; s < entries.size(); ++s)
            entries[s] += o.entries[s];
    }
};

/** DVFS and cap decisions of one server, counted through the public
 *  observer seam, plus the governor's feedback inputs for the select
 *  replay. */
class CountingObserver final : public server::TelemetryObserver
{
  public:
    ServerCounts counts;
    std::vector<sim::Tick> idleLengths; //!< observeIdle inputs

    /** A core's first announcement states its operating point; only
     *  a later one that moves it is a change. */
    void onFreqChange(unsigned core, sim::Tick, double hz) override
    {
        if (core >= _hz.size())
            _hz.resize(core + 1, 0.0);
        if (_hz[core] != 0.0 && hz != _hz[core])
            ++counts.freqChanges;
        _hz[core] = hz;
    }
    void onCapThrottle(sim::Tick, std::size_t, double, bool) override
    {
        ++counts.throttleChanges;
    }
    void onTemperature(sim::Tick, double) override
    {
        ++counts.controlTicks;
    }
    void onIdleObserved(unsigned, sim::Tick, sim::Tick idle) override
    {
        idleLengths.push_back(idle);
    }

  private:
    std::vector<double> _hz; //!< last announced frequency per core
};

/** Idle periods and wakes in a measured window's transition map:
 *  C0 -> idle-state pairs open an idle period, idle-state -> C0
 *  pairs are wakes. wakeLifetimes is the log2 histogram of the idle
 *  state's lifetime before each wake. */
struct IdleStats
{
    std::uint64_t idlePeriods = 0;
    std::uint64_t wakes = 0;
    std::array<std::uint64_t, analysis::kLifetimeBuckets> wakeLifetimes{};

    static IdleStats
    of(const analysis::TransitionAnalyzer &t)
    {
        IdleStats s;
        const auto c0 = cstate::CStateId::C0;
        for (std::size_t k = 0; k < cstate::kNumCStates; ++k) {
            const auto id = static_cast<cstate::CStateId>(k);
            if (id == c0)
                continue;
            s.idlePeriods += t.pair(c0, id).count;
            const auto &wake = t.pair(id, c0);
            s.wakes += wake.count;
            for (std::size_t b = 0; b < s.wakeLifetimes.size(); ++b)
                s.wakeLifetimes[b] += wake.histogram[b];
        }
        return s;
    }

    /** Add @p n copies of @p o; a negative @p n removes them (the
     *  counts wrap modulo 2^64, so removal is exact). */
    void
    add(const IdleStats &o, std::int64_t n = 1)
    {
        const auto k = static_cast<std::uint64_t>(n);
        idlePeriods += k * o.idlePeriods;
        wakes += k * o.wakes;
        for (std::size_t b = 0; b < wakeLifetimes.size(); ++b)
            wakeLifetimes[b] += k * o.wakeLifetimes[b];
    }
};

/** @p n idle lengths drawn from @p hist (bucket b holds lifetimes in
 *  [2^(b-1), 2^b) ticks): the bucket by its count, the length
 *  uniformly inside it. */
std::vector<sim::Tick>
idleLengthsFrom(
    const std::array<std::uint64_t, analysis::kLifetimeBuckets> &hist,
    std::uint64_t n, std::uint64_t seed)
{
    std::vector<std::uint64_t> cumulative;
    std::uint64_t total = 0;
    for (const auto c : hist)
        cumulative.push_back(total += c);
    std::vector<sim::Tick> out;
    if (total == 0)
        return out;
    sim::Rng rng(sim::deriveSeed(seed, 3));
    out.reserve(n);
    for (std::uint64_t k = 0; k < n; ++k) {
        const std::size_t b =
            std::lower_bound(cumulative.begin(), cumulative.end(),
                             rng.uniformInt(1, total)) -
            cumulative.begin();
        const sim::Tick lo = b == 0 ? 0 : sim::Tick(1) << (b - 1);
        out.push_back(b == 0 ? 0 : rng.uniformInt(lo, 2 * lo - 1));
    }
    return out;
}

/** Replay @p idle through a fresh governor built like the server's:
 *  one select() and one observeIdle() per observed idle period. */
double
replaySelect(const server::ServerConfig &cfg,
             const std::vector<sim::Tick> &idle)
{
    const auto gov = cstate::makeGovernor(cfg.governor, cfg.cstates);
    sim::Tick now = 0;
    std::size_t sink = 0;
    const double t0 = wallNow();
    for (const sim::Tick len : idle) {
        sink += cstate::index(gov->select(now));
        gov->observeIdle(len);
        now += len;
    }
    const double s = wallNow() - t0;
    g_sink = static_cast<double>(sink);
    return s;
}

/** Run @p srv with a counting observer attached and replay its idle
 *  sequence through a fresh governor. */
ServerCounts
countServer(server::ServerSim &srv, sim::Tick duration, sim::Tick warmup)
{
    CountingObserver obs;
    srv.setObserver(&obs);
    const auto r = srv.run(duration, warmup);
    srv.setObserver(nullptr);
    ServerCounts c = obs.counts;
    c.events = r.events;
    c.requests = r.requests;
    c.freqTransitions = r.freqTransitions;
    c.naps = r.forcedIdleNaps;
    c.mispredicted = r.mispredictedEntries;
    c.entries = r.residency.entries;
    c.selectCalls = obs.idleLengths.size();
    c.selectS = replaySelect(srv.config(), obs.idleLengths);
    return c;
}

/** Seconds to draw @p n service demands and arrival gaps of
 *  @p profile, as the simulator does once per request. The rate is
 *  immaterial: a Poisson gap costs the same at any rate. */
double
replayDraws(const workload::WorkloadProfile &profile, std::uint64_t n,
            std::uint64_t seed)
{
    sim::Rng rng(sim::deriveSeed(seed, 1));
    const auto arrivals = profile.makeArrivals(1e4);
    auto &service = profile.service();
    const auto ref = service.referenceFrequency();
    sim::Tick sink = 0;
    const double t0 = wallNow();
    for (std::uint64_t i = 0; i < n; ++i)
        sink += service.draw(rng).duration(ref) + arrivals->nextGap(rng);
    const double s = wallNow() - t0;
    g_sink = static_cast<double>(sink);
    return s;
}

/** Seconds to pool per-part latency samples (sized @p counts) and
 *  read p99/p99.9 off the pool, as a fleet fold does. */
double
replayPercentiles(const std::vector<std::uint64_t> &counts,
                  std::uint64_t seed)
{
    sim::Rng rng(sim::deriveSeed(seed, 2));
    std::vector<sim::PercentileTracker> parts(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        parts[i].reserve(counts[i]);
        for (std::uint64_t k = 0; k < counts[i]; ++k)
            parts[i].add(rng.exponential(100.0));
    }
    const double t0 = wallNow();
    sim::PercentileTracker pooled;
    for (const auto &p : parts)
        pooled.merge(p);
    g_sink = pooled.p99() + pooled.p999();
    return wallNow() - t0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The server/cstate/freq/cap counts both workload kinds report. */
void
setCounts(Metrics &m, const ServerCounts &c, const IdleStats &idle)
{
    m.emplace_back("server.wakes", idle.wakes);
    m.emplace_back("cstate.idle_periods", idle.idlePeriods);
    for (std::size_t s = 0; s < cstate::kNumCStates; ++s)
        m.emplace_back(std::string("cstate.entries.") +
                           cstate::name(static_cast<cstate::CStateId>(s)),
                       c.entries[s]);
    m.emplace_back("cstate.mispredicted_entries", c.mispredicted);
    m.emplace_back("cstate.select_ns", 1e9 * ratio(c.selectS, c.selectCalls));
    m.emplace_back("freq.transitions", c.freqTransitions);
    m.emplace_back("freq.changes", c.freqChanges);
    m.emplace_back("cap.naps", c.naps);
    m.emplace_back("cap.throttle_changes", c.throttleChanges);
    m.emplace_back("cap.control_ticks", c.controlTicks);
}

/** A second untraced operation, in the process the first one warmed
 *  up: the base of trace.overhead, since the traced copy runs warm
 *  too. Its output must repeat the first one's. */
double
warmUntraced(Workload &w, const std::string &digest, TracedOutcome &t)
{
    OpOutcome o = w.run();
    if (o.digest != digest)
        o.errors.push_back("untraced output changed between runs");
    t.ops.emplace_back("untraced_warm", o.errors);
    return o.wallS;
}

// ------------------------------------------------- sweep_policy_grid

/** Measured window of every grid point (sim seconds). */
constexpr double kSweepSeconds = 1.0;

/** mysql's 500 us queries saturate 10 cores near 20 kQPS, so its
 *  points run the qps axis scaled down 50x (1 k and 4 kQPS): the
 *  same low/mid utilisation band memcached has at 50/200 kQPS. */
constexpr double kMysqlLoadScale = 1.0 / 50.0;

exp::GridPoint
atLoad(exp::GridPoint pt)
{
    if (pt.workload == "mysql")
        pt.qps *= kMysqlLoadScale;
    return pt;
}

/** The config runPoint builds for a single-server point. */
server::ServerConfig
pointConfig(const exp::ExperimentSpec &spec, const exp::GridPoint &pt)
{
    auto cfg = exp::configByName(pt.config);
    if (!pt.governor.empty())
        cfg.governor = pt.governor;
    if (!pt.freqPolicy.empty())
        cfg.freqPolicy = pt.freqPolicy;
    if (pt.sloUs > 0.0)
        cfg.sloUs = pt.sloUs;
    if (pt.capWatts > 0.0)
        cfg.cap.capWatts = pt.capWatts;
    if (spec.thermal)
        cfg.cap.thermalEnabled = true;
    cfg.seed = pt.seed;
    return cfg;
}

class SweepPolicyGrid final : public Workload
{
  public:
    explicit SweepPolicyGrid(const RunOptions &opts) : _opts(opts)
    {
        _spec.name = "perfbench-policy-grid";
        _spec.workloads = {"memcached", "mysql"};
        _spec.configs = {"c1c6", "aw"};
        _spec.governors = {"menu", "teo"};
        _spec.freqPolicies = {"performance", "ondemand", "racetohalt"};
        _spec.capWatts = {0.0, 18.0};
        _spec.qps = {50e3, 200e3};
        _spec.thermal = true;
        _spec.timelineIntervalSeconds = 0.01;
        _spec.traceRequests = true;
        _spec.seconds = kSweepSeconds;
        _spec.seed = opts.seed;
    }

    void
    setup() override
    {
        for (const auto &w : _spec.workloads)
            exp::profileByName(w);
        for (const auto &c : _spec.configs)
            exp::configByName(c);
        core::AwCoreModel::canonical();
        const double t0 = wallNow();
        _grid = _spec.expand();
        for (auto &pt : _grid)
            pt = atLoad(pt);
        _expandS = wallNow() - t0;
        _rssAfterSetup = rssMb();
    }

    OpOutcome
    run() override
    {
        const double w0 = wallNow();
        const auto result = runGrid(_spec, nullptr);
        return finish(result, w0);
    }

    TracedOutcome
    runTraced() override
    {
        TracedOutcome t;
        Metrics &m = t.metrics;
        m.reserve(64);

        const OpOutcome untraced = run();
        t.ops.emplace_back("untraced", untraced.errors);

        // Traced copy: every point timed through a PointFn around
        // runPoint, the emitters timed separately.
        std::vector<std::pair<double, double>> spans(_grid.size());
        const double cpu0 = processCpu();
        const double w0 = wallNow();
        const auto result = runGrid(_spec, &spans);
        const double run_s = wallNow() - w0;
        const double e0 = wallNow();
        std::string csv;
        const double bytes = emit(result, &csv);
        const double emit_s = wallNow() - e0;
        Errors errors = sweepInvariants(result, _grid);
        if (bytesDigest(csv) != untraced.digest)
            errors.push_back("sweep: traced CSV differs from untraced");
        checkPin("sweep_policy_grid", _opts.seed, bytesDigest(csv),
                 errors);
        const double wall_t = wallNow() - w0;
        const double cpu_t = processCpu() - cpu0;
        t.ops.emplace_back("traced", errors);
        const double warm_s = warmUntraced(*this, untraced.digest, t);

        // Observers off: the same grid without timeline and tracer.
        auto off_spec = _spec;
        off_spec.timelineIntervalSeconds = 0.0;
        off_spec.traceRequests = false;
        const double o0 = wallNow();
        const auto off = runGrid(off_spec, nullptr);
        const double run_off_s = wallNow() - o0;
        Errors off_errors = sweepInvariants(off, _grid);
        if (exp::toCsv(off) != csv)
            off_errors.push_back(
                "sweep: CSV changes when observers are off");
        t.ops.emplace_back("observers_off", off_errors);

        // Counting pass: each point rebuilt as a ServerSim with a
        // benchmark-owned observer; it must reproduce the point.
        std::vector<ServerCounts> counts(_grid.size());
        exp::SweepRunner(_opts.threads)
            .run(off_spec, [&](const exp::GridPoint &pt) {
                counts[pt.index] = countPoint(off_spec, _grid[pt.index]);
                return exp::PointResult{};
            });
        Errors count_errors;
        ServerCounts total;
        for (std::size_t i = 0; i < _grid.size(); ++i) {
            if (counts[i].events != result.points[i].events ||
                counts[i].requests != result.points[i].requests)
                count_errors.push_back(sim::strprintf(
                    "sweep: direct ServerSim of '%s' diverges from "
                    "runPoint",
                    _grid[i].label().c_str()));
            total.add(counts[i]);
        }
        t.ops.emplace_back("counting", count_errors);

        std::uint64_t events = 0, requests = 0;
        IdleStats idle;
        double busy_s = 0.0, worker_cpu_s = 0.0;
        double timeline_intervals = 0.0, trace_spans = 0.0, dropped = 0.0;
        for (std::size_t i = 0; i < result.points.size(); ++i) {
            const auto &p = result.points[i];
            events += p.events;
            requests += p.requests;
            busy_s += spans[i].first;
            worker_cpu_s += spans[i].second;
            t.pointMs.push_back(1e3 * spans[i].first);
            if (p.timeline) {
                idle.add(IdleStats::of(p.timeline->transitions));
                timeline_intervals += p.timeline->emitted;
                dropped += p.timeline->dropped;
            }
            if (p.trace) {
                trace_spans += p.trace->emitted;
                dropped += p.trace->dropped;
            }
        }

        // Layer replays sized by this workload's own request counts.
        double draw_s = 0.0;
        std::uint64_t draws = 0;
        for (const auto &w : _spec.workloads) {
            std::uint64_t n = 0;
            for (const auto &p : result.points)
                if (p.point.workload == w)
                    n += p.requests;
            draw_s += replayDraws(exp::profileByName(w), n, _opts.seed);
            draws += n;
        }
        double percentile_s = 0.0;
        for (const auto &p : result.points)
            percentile_s += replayPercentiles({p.requests}, _opts.seed);

        const double threads = exp::SweepRunner(_opts.threads).threads();
        m.emplace_back("exp.expand_s", _expandS);
        m.emplace_back("exp.run_s", run_s);
        m.emplace_back("exp.emit_s", emit_s);
        m.emplace_back("exp.artifact_bytes", bytes);
        m.emplace_back("exp.pool_busy_share", ratio(busy_s, threads * run_s));
        m.emplace_back("server.events", events);
        m.emplace_back("server.requests", requests);
        m.emplace_back("server.events_per_request", ratio(events, requests));
        m.emplace_back("server.ns_per_event",
                       1e9 * ratio(worker_cpu_s, events));
        setCounts(m, total, idle);
        m.emplace_back("workload.draw_ns", 1e9 * ratio(draw_s, draws));
        m.emplace_back("sim.percentile_s", percentile_s);
        m.emplace_back("analysis.observer_s", run_s - run_off_s);
        m.emplace_back("analysis.timeline_intervals", timeline_intervals);
        m.emplace_back("analysis.trace_spans", trace_spans);
        m.emplace_back("analysis.dropped", dropped);
        m.emplace_back("host.cpu_s", cpu_t);
        m.emplace_back("host.parallelism", ratio(cpu_t, wall_t));
        m.emplace_back("host.rss_after_setup_mb", _rssAfterSetup);
        m.emplace_back("trace.overhead", ratio(wall_t, warm_s));
        return t;
    }

  private:
    /** Run @p spec's grid through runPoint (at each point's load);
     *  with @p spans, record each point's wall and thread-CPU time. */
    exp::SweepResult
    runGrid(const exp::ExperimentSpec &spec,
            std::vector<std::pair<double, double>> *spans) const
    {
        return exp::SweepRunner(_opts.threads)
            .run(spec, [&](const exp::GridPoint &pt) {
                if (!spans)
                    return exp::SweepRunner::runPoint(spec, atLoad(pt));
                const double w0 = wallNow();
                const double c0 = threadCpu();
                auto r = exp::SweepRunner::runPoint(spec, atLoad(pt));
                (*spans)[pt.index] = {wallNow() - w0, threadCpu() - c0};
                return r;
            });
    }

    /** Render and write every artifact; returns the bytes written. */
    double
    emit(const exp::SweepResult &result, std::string *csv) const
    {
        *csv = exp::toCsv(result);
        const std::pair<const char *, std::string> artifacts[] = {
            {"policy_grid.csv", *csv},
            {"policy_grid.json", exp::toJson(result)},
            {"policy_grid_timeline.csv", exp::toTimelineCsv(result)},
            {"policy_grid_timeline.json", exp::toTimelineJson(result)},
            {"policy_grid_trace.csv", exp::toTraceCsv(result)},
            {"policy_grid_trace.json", exp::toTraceJson(result)},
        };
        double bytes = 0.0;
        for (const auto &[name, content] : artifacts) {
            exp::writeFile(_opts.outDir + "/" + name, content);
            bytes += content.size();
        }
        return bytes;
    }

    OpOutcome
    finish(const exp::SweepResult &result, double w0) const
    {
        OpOutcome o;
        std::string csv;
        emit(result, &csv);
        o.errors = sweepInvariants(result, _grid);
        o.digest = bytesDigest(csv);
        checkPin("sweep_policy_grid", _opts.seed, o.digest, o.errors);
        o.wallS = wallNow() - w0;
        return o;
    }

    /** Counts of grid point @p pt (already at its load), rebuilt as
     *  the ServerSim runPoint builds. */
    static ServerCounts
    countPoint(const exp::ExperimentSpec &spec, const exp::GridPoint &pt)
    {
        server::ServerSim srv(pointConfig(spec, pt),
                              exp::profileByName(pt.workload), pt.qps);
        const sim::Tick duration = sim::fromSec(spec.seconds);
        return countServer(srv, duration, duration / 10);
    }

    RunOptions _opts;
    exp::ExperimentSpec _spec;
    std::vector<exp::GridPoint> _grid;
    double _expandS = 0.0;
    double _rssAfterSetup = 0.0;
};

// ------------------------------------------------- fleet_day_{pack,spread}

constexpr unsigned kFleetServers = 10000;
constexpr double kFleetQps = 3e6;
constexpr double kDaySeconds = 2.0;
constexpr double kWarmupSeconds = 0.2;

/** The traced fleet copy records a coarse timeline only to read its
 *  transition map; a small ring keeps 10k recorders cheap. */
const analysis::TimelineConfig kFleetTimeline{/*intervalSeconds=*/1.0,
                                              /*capacity=*/4};

class FleetDay final : public Workload
{
  public:
    FleetDay(std::string name, const char *config, const char *routing,
             const RunOptions &opts)
        : _name(std::move(name)), _opts(opts),
          _profile(exp::profileByName("memcached"))
    {
        _fc.servers = kFleetServers;
        _fc.server = exp::configByName(config);
        _fc.server.idlePromotion = true;
        _fc.routing = routing;
        _fc.seed = opts.seed;
        _fc.schedule = cluster::RateSchedule::sinusoidal(
            sim::fromSec(kDaySeconds), 0.6);
        _fc.fleetThreads = opts.threads;
        _fc.epochSeconds = 0.25;
    }

    void
    setup() override
    {
        core::AwCoreModel::canonical();
        _fleet.emplace(_fc, _profile, kFleetQps);
        _rssAfterSetup = rssMb();
    }

    OpOutcome
    run() override
    {
        const double w0 = wallNow();
        const auto r = runDay(*_fleet);
        return finish(r, w0);
    }

    TracedOutcome
    runTraced() override
    {
        TracedOutcome t;
        Metrics &m = t.metrics;
        m.reserve(64);

        const OpOutcome untraced = run();
        t.ops.emplace_back("untraced", untraced.errors);

        // Traced copy: the run call split into the calling thread's
        // CPU (balancer + fold; the pool waits on a condvar) and the
        // fleet workers' CPU.
        cluster::FleetSim fleet(_fc, _profile, kFleetQps);
        fleet.enableTimeline(kFleetTimeline);
        const double cpu0 = processCpu();
        const double w0 = wallNow();
        cluster::FleetResult r;
        const CpuSplit split = measureSplit([&] { r = runDay(fleet); });
        OpOutcome traced = finish(r, w0);
        if (traced.digest != untraced.digest)
            traced.errors.push_back(_name +
                                    ": traced output differs from untraced");
        const double wall_t = traced.wallS;
        const double cpu_t = processCpu() - cpu0;
        t.ops.emplace_back("traced", traced.errors);
        const double warm_s = warmUntraced(*this, untraced.digest, t);

        // The serial reference: one fleet thread, same outputs, and the
        // same timeline, so fleet_speedup compares like with like.
        auto serial_cfg = _fc;
        serial_cfg.fleetThreads = 1;
        cluster::FleetSim serial(serial_cfg, _profile, kFleetQps);
        serial.enableTimeline(kFleetTimeline);
        const double s0 = wallNow();
        const auto r1 = runDay(serial);
        const double serial_run_s = wallNow() - s0;
        Errors serial_errors = fleetInvariants(r1);
        if (fleetDigest(r1) != traced.digest)
            serial_errors.push_back(_name + ": output at 1 fleet thread "
                                            "differs from the threaded run");
        t.ops.emplace_back("one_thread", serial_errors);

        // Counts from the fleet's own results, executed servers only:
        // the timeline's transition map folds every server, idle
        // copies included, so the copies' share is taken back out.
        const auto acct = fleetAccounting(r, _fc.idleFastPath);
        Errors count_errors;
        IdleStats idle = IdleStats::of(r.timeline->transitions);
        if (acct.idleReference)
            idle.add(referenceIdle(r, *acct.idleReference, count_errors),
                     -static_cast<std::int64_t>(acct.serversIdleCopied));
        ServerCounts counts;
        for (const unsigned i : acct.simulated) {
            const auto &s = r.perServer[i];
            counts.mispredicted += s.mispredictedEntries;
            counts.freqTransitions += s.freqTransitions;
            for (std::size_t k = 0; k < counts.entries.size(); ++k)
                counts.entries[k] += s.residency.entries[k];
        }
        counts.naps = r.forcedIdleNaps;
        // FleetSim has no observer seam for freq.changes and cap.*.
        // With no DVFS policy and the cap subsystem off, a core never
        // moves its operating point and no cap decision fires, so
        // they are zero; the check keeps that claim honest.
        if (!_fc.server.freqPolicy.empty() || _fc.server.cap.enabled() ||
            counts.freqTransitions != 0 || counts.naps != 0)
            count_errors.push_back(_name + ": DVFS or cap active, but "
                                           "freq.changes and cap.* are "
                                           "not observable on a fleet");
        // select_ns replays idle lengths drawn from the executed
        // servers' wake-lifetime histogram, one per idle period.
        const auto lengths = idleLengthsFrom(idle.wakeLifetimes,
                                             idle.idlePeriods, _opts.seed);
        counts.selectCalls = lengths.size();
        counts.selectS = replaySelect(_fc.server, lengths);
        t.ops.emplace_back("counting", count_errors);
        std::vector<std::uint64_t> samples;
        for (const auto &s : r.perServer)
            samples.push_back(s.requests);

        m.emplace_back("cluster.run_s", split.wallS);
        m.emplace_back("cluster.serial_cpu_s", split.callerCpuS);
        m.emplace_back("cluster.serial_share",
                       ratio(split.callerCpuS, split.wallS));
        m.emplace_back("cluster.parallel_cpu_s", split.otherCpuS);
        m.emplace_back("cluster.fleet_speedup",
                       ratio(serial_run_s, split.wallS));
        m.emplace_back("cluster.routed", r.routed);
        m.emplace_back("cluster.servers_simulated", acct.serversSimulated);
        m.emplace_back("cluster.servers_idle_copied", acct.serversIdleCopied);
        m.emplace_back("cluster.events_executed", acct.eventsExecuted);
        m.emplace_back("cluster.events_accounted", acct.eventsAccounted);
        m.emplace_back("cluster.critical_server_events",
                       acct.criticalServerEvents);
        m.emplace_back("server.events", acct.eventsExecuted);
        m.emplace_back("server.requests", r.requests);
        m.emplace_back("server.events_per_request",
                       ratio(acct.eventsExecuted, r.requests));
        m.emplace_back("server.ns_per_event",
                       1e9 * ratio(split.otherCpuS, acct.eventsExecuted));
        setCounts(m, counts, idle);
        m.emplace_back(
            "workload.draw_ns",
            1e9 * ratio(replayDraws(_profile, r.routed, _opts.seed),
                        r.routed));
        m.emplace_back("sim.percentile_s",
                       replayPercentiles(samples, _opts.seed));
        m.emplace_back("host.cpu_s", cpu_t);
        m.emplace_back("host.parallelism", ratio(cpu_t, wall_t));
        m.emplace_back("host.rss_after_setup_mb", _rssAfterSetup);
        m.emplace_back("trace.overhead", ratio(wall_t, warm_s));
        return t;
    }

  private:
    static cluster::FleetResult
    runDay(cluster::FleetSim &fleet)
    {
        return fleet.run(sim::fromSec(kDaySeconds),
                         sim::fromSec(kWarmupSeconds));
    }

    OpOutcome
    finish(const cluster::FleetResult &r, double w0) const
    {
        OpOutcome o;
        o.errors = fleetInvariants(r);
        o.digest = fleetDigest(r);
        checkPin(_name, _opts.seed, o.digest, o.errors);
        exp::writeFile(
            _opts.outDir + "/" + _name + ".json",
            sim::strprintf(
                "{\"workload\": \"%s\", \"seed\": %llu, \"digest\": "
                "\"%s\", \"requests\": %llu, \"routed\": %llu, "
                "\"never_routed\": %u, \"fleet_power_w\": %.10g, "
                "\"p99_latency_us\": %.10g, \"deep_idle\": %.10g}\n",
                _name.c_str(),
                static_cast<unsigned long long>(_opts.seed),
                o.digest.c_str(),
                static_cast<unsigned long long>(r.requests),
                static_cast<unsigned long long>(r.routed), r.neverRouted,
                r.fleetPower, r.p99LatencyUs, r.deepIdleShare));
        o.wallS = wallNow() - w0;
        return o;
    }

    /**
     * Idle counts of the fleet's idle reference, rebuilt as FleetSim
     * builds it (its derived seed, one never-arriving gap) with the
     * same timeline recorder. FleetSim copies the reference's timeline
     * onto every idle copy, so these are what each copy adds to the
     * fold. The rebuild must reproduce the reference's result.
     */
    IdleStats
    referenceIdle(const cluster::FleetResult &r, unsigned ref,
                  Errors &errors) const
    {
        auto cfg = _fc.server;
        cfg.seed = sim::deriveSeed(_fc.seed, ref);
        server::ServerSim srv(
            cfg, _profile,
            std::make_unique<workload::TraceArrivals>(
                workload::ArrivalTrace({sim::kMaxTick}), /*loop=*/false));
        analysis::TimelineRecorder recorder(kFleetTimeline, cfg.cores);
        srv.setObserver(&recorder);
        const auto rr = srv.run(sim::fromSec(kDaySeconds),
                                sim::fromSec(kWarmupSeconds));
        const auto &want = r.perServer[ref];
        if (rr.events != want.events ||
            rr.residency.entries != want.residency.entries)
            errors.push_back(sim::strprintf(
                "%s: rebuilt idle reference %u diverges from the fleet's",
                _name.c_str(), ref));
        return IdleStats::of(recorder.series().transitions);
    }

    std::string _name;
    RunOptions _opts;
    workload::WorkloadProfile _profile;
    cluster::FleetConfig _fc;
    std::optional<cluster::FleetSim> _fleet;
    double _rssAfterSetup = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const RunOptions &opts)
{
    if (name == "sweep_policy_grid")
        return std::make_unique<SweepPolicyGrid>(opts);
    if (name == "fleet_day_pack")
        return std::make_unique<FleetDay>(name, "aw", "pack-first", opts);
    if (name == "fleet_day_spread")
        return std::make_unique<FleetDay>(name, "c1c6", "round-robin",
                                          opts);
    return nullptr;
}

} // namespace perfbench
