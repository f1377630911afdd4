#include "analysis/sampler.hh"

#include <algorithm>

#include "analysis/ring.hh"
#include "sim/format.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace aw::analysis {

namespace {

/** Nearest-rank p99 over a *sorted* sample vector (matches
 *  sim::PercentileTracker::percentile semantics). */
double
p99Sorted(const std::vector<double> &sorted)
{
    if (sorted.empty())
        return 0.0;
    return sorted[sim::nearestRank(99.0, sorted.size()) - 1];
}

} // namespace

// -------------------------------------------------- TimelineRecorder

TimelineRecorder::TimelineRecorder(const TimelineConfig &cfg,
                                   unsigned cores)
{
    if (!(cfg.intervalSeconds > 0.0))
        sim::fatal("TimelineRecorder: interval must be positive "
                   "(got %g s)",
                   cfg.intervalSeconds);
    if (cfg.capacity == 0)
        sim::fatal("TimelineRecorder: ring capacity must be > 0");
    if (cores == 0)
        sim::fatal("TimelineRecorder: need at least one core");
    _interval = sim::fromSec(cfg.intervalSeconds);
    if (_interval == 0)
        sim::fatal("TimelineRecorder: interval %g s rounds to zero "
                   "ticks",
                   cfg.intervalSeconds);
    _capacity = cfg.capacity;
    _retainLatencies = cfg.retainLatencies;

    // The interval rings grow with the run (analysis/ring.hh); the
    // per-interval latency scratch only regrows past its high-water
    // mark.
    _cores.resize(cores);
    _analyzers.resize(cores);
    _latencies.reserve(256);
    _intervalEnd = _interval;
}

void
TimelineRecorder::accrueCore(unsigned core, sim::Tick now)
{
    CoreTrack &t = _cores[core];
    if (_measuring && now > t.last) {
        const sim::Tick dt = now - t.last;
        _stateTicks[cstate::index(t.state)] += dt;
        _energyJ += t.power * sim::toSec(dt);
        _freqGhzSec += t.freqHz * 1e-9 * sim::toSec(dt);
    }
    t.last = now;
}

void
TimelineRecorder::accrueUncore(sim::Tick now)
{
    if (_measuring && now > _uncoreLast)
        _energyJ += _uncorePower * sim::toSec(now - _uncoreLast);
    _uncoreLast = now;
}

void
TimelineRecorder::accrueThrottle(sim::Tick now)
{
    if (_measuring && _throttled && now > _throttleLast)
        _throttleTicks += now - _throttleLast;
    _throttleLast = now;
}

void
TimelineRecorder::closeInterval(sim::Tick t1)
{
    for (unsigned c = 0; c < _cores.size(); ++c)
        accrueCore(c, t1);
    accrueUncore(t1);
    accrueThrottle(t1);

    IntervalSample s;
    s.index = _emitted;
    s.t0 = _intervalStart;
    s.t1 = t1;
    s.requests = _requests;
    const double sec = sim::toSec(t1 - _intervalStart);
    s.powerW = sec > 0.0 ? _energyJ / sec : 0.0;
    std::sort(_latencies.begin(), _latencies.end());
    s.p99Us = p99Sorted(_latencies);
    const double core_time = sec * static_cast<double>(_cores.size());
    for (std::size_t i = 0; i < cstate::kNumCStates; ++i) {
        s.residency[i] =
            core_time > 0.0 ? sim::toSec(_stateTicks[i]) / core_time
                            : 0.0;
    }
    s.freqGhz = core_time > 0.0 ? _freqGhzSec / core_time : 0.0;
    s.tempC = _tempC;
    s.throttledShare =
        sec > 0.0 ? sim::toSec(_throttleTicks) / sec : 0.0;

    ringSlot(_ring, _emitted, _capacity) = s;
    if (_retainLatencies) {
        // Swap, don't copy: capacities circulate between the slot
        // and the scratch, so a wrapped ring allocates nothing new.
        std::swap(ringSlot(_ringLatencies, _emitted, _capacity),
                  _latencies);
    }
    _latencies.clear();
    ++_emitted;

    _requests = 0;
    _stateTicks.fill(0);
    _energyJ = 0.0;
    _freqGhzSec = 0.0;
    _throttleTicks = 0;
    _intervalStart = t1;
    _intervalEnd = t1 + _interval;
}

void
TimelineRecorder::advanceTo(sim::Tick now)
{
    if (!_measuring)
        return;
    // Lazy boundary closing: an event exactly on a boundary first
    // closes [t0, boundary), then lands in the next interval.
    while (_intervalEnd <= now)
        closeInterval(_intervalEnd);
}

void
TimelineRecorder::onMeasurementStart(sim::Tick now)
{
    _origin = now;
    _intervalStart = now;
    _intervalEnd = now + _interval;
    _stateTicks.fill(0);
    _energyJ = 0.0;
    _freqGhzSec = 0.0;
    _requests = 0;
    _latencies.clear();
    _ring.clear();
    _ringLatencies.clear();
    _emitted = 0;
    for (unsigned c = 0; c < _cores.size(); ++c) {
        _cores[c].last = now;
        _analyzers[c].reset(now, _cores[c].state);
    }
    _uncoreLast = now;
    _throttleLast = now;
    _throttleTicks = 0;
    _idleObservations = 0;
    _idleObservedTotal = 0;
    _idleObservationMismatches = 0;
    _measuring = true;
    _done = false;
}

void
TimelineRecorder::onMeasurementEnd(sim::Tick now)
{
    advanceTo(now);
    if (_measuring && now > _intervalStart)
        closeInterval(now); // non-empty partial final interval
    for (unsigned c = 0; c < _cores.size(); ++c) {
        accrueCore(c, now);
        _analyzers[c].finish(now);
    }
    _measuring = false;
    _done = true;

    _series = TimelineSeries{};
    _series.origin = _origin;
    _series.interval = _interval;
    _series.cores = static_cast<unsigned>(_cores.size());
    _series.emitted = _emitted;
    _series.dropped = _emitted - _ring.size();
    _series.samples = drainRing(_ring, _emitted);
    _series.latencies = drainRing(_ringLatencies, _emitted);
    for (const auto &a : _analyzers)
        _series.transitions.merge(a);
    _series.idleObservations = _idleObservations;
    _series.idleObservedTotal = _idleObservedTotal;
    _series.idleObservationMismatches = _idleObservationMismatches;
}

void
TimelineRecorder::onCStateEnter(unsigned core, sim::Tick now,
                                cstate::CStateId state)
{
    advanceTo(now);
    accrueCore(core, now);
    if (_measuring)
        _analyzers[core].enter(state, now);
    _cores[core].state = state;
}

void
TimelineRecorder::onCorePower(unsigned core, sim::Tick now,
                              power::Watts watts)
{
    advanceTo(now);
    accrueCore(core, now);
    _cores[core].power = watts;
}

void
TimelineRecorder::onUncorePower(sim::Tick now, power::Watts watts)
{
    advanceTo(now);
    accrueUncore(now);
    _uncorePower = watts;
}

void
TimelineRecorder::onFreqChange(unsigned core, sim::Tick now,
                               double hz)
{
    advanceTo(now);
    accrueCore(core, now);
    _cores[core].freqHz = hz;
}

void
TimelineRecorder::onTemperature(sim::Tick now, double celsius)
{
    advanceTo(now);
    _tempC = celsius;
}

void
TimelineRecorder::onCapThrottle(sim::Tick now, std::size_t level_cap,
                                double forced_idle_share,
                                bool throttled)
{
    (void)level_cap;
    (void)forced_idle_share;
    advanceTo(now);
    accrueThrottle(now);
    _throttled = throttled;
}

void
TimelineRecorder::onIdleStart(unsigned core, sim::Tick now)
{
    advanceTo(now);
    _cores[core].idleStart = now;
}

void
TimelineRecorder::onIdleObserved(unsigned core, sim::Tick now,
                                 sim::Tick idle)
{
    advanceTo(now);
    ++_idleObservations;
    _idleObservedTotal += idle;
    // Ground truth: the governor's observation must equal the time
    // since this core's beginIdle (promotions preserve the period's
    // start, so the whole gap is one observation).
    const sim::Tick start = _cores[core].idleStart;
    if (start == sim::kMaxTick || now < start ||
        idle != now - start) {
        ++_idleObservationMismatches;
    }
}

void
TimelineRecorder::onComplete(unsigned core, std::uint64_t id,
                             sim::Tick now, double latency_us)
{
    (void)core;
    (void)id;
    advanceTo(now);
    if (_measuring) {
        ++_requests;
        _latencies.push_back(latency_us);
    }
}

const TimelineSeries &
TimelineRecorder::series() const &
{
    if (!_done)
        sim::fatal("TimelineRecorder: series() before the run "
                   "finished");
    return _series;
}

TimelineSeries
TimelineRecorder::series() &&
{
    if (!_done)
        sim::fatal("TimelineRecorder: series() before the run "
                   "finished");
    return std::move(_series);
}

const TransitionAnalyzer &
TimelineRecorder::coreTransitions(unsigned core) const
{
    if (core >= _analyzers.size())
        sim::fatal("TimelineRecorder: core %u out of range", core);
    return _analyzers[core];
}

// ------------------------------------------------------------- fold

TimelineSeries
foldTimelines(const std::vector<TimelineSeries> &parts)
{
    if (parts.empty())
        sim::fatal("foldTimelines: no series to fold");

    const TimelineSeries &first = parts.front();
    TimelineSeries out;
    out.origin = first.origin;
    out.interval = first.interval;
    out.emitted = first.emitted;
    out.dropped = first.dropped;

    std::vector<double> pooled;
    for (const auto &p : parts) {
        if (p.origin != first.origin ||
            p.interval != first.interval ||
            p.emitted != first.emitted ||
            p.samples.size() != first.samples.size())
            sim::fatal("foldTimelines: mismatched interval grids "
                       "(servers must share duration, warmup and "
                       "interval)");
        if (p.latencies.size() != p.samples.size())
            sim::fatal("foldTimelines: per-interval latencies "
                       "missing; record with retainLatencies");
        out.cores += p.cores;
        out.transitions.merge(p.transitions);
        out.idleObservations += p.idleObservations;
        out.idleObservedTotal += p.idleObservedTotal;
        out.idleObservationMismatches +=
            p.idleObservationMismatches;
    }

    out.samples.resize(first.samples.size());
    for (std::size_t i = 0; i < first.samples.size(); ++i) {
        IntervalSample &s = out.samples[i];
        s.index = first.samples[i].index;
        s.t0 = first.samples[i].t0;
        s.t1 = first.samples[i].t1;
        pooled.clear();
        for (const auto &p : parts) {
            const IntervalSample &ps = p.samples[i];
            if (ps.t0 != s.t0 || ps.t1 != s.t1)
                sim::fatal("foldTimelines: interval %zu boundaries "
                           "disagree across servers",
                           i);
            s.requests += ps.requests;
            s.powerW += ps.powerW;
            for (std::size_t r = 0; r < cstate::kNumCStates; ++r)
                s.residency[r] += ps.residency[r] * p.cores;
            s.freqGhz += ps.freqGhz * p.cores;
            // Fleet temperature is the hottest server (the thermal
            // constraint binds per package); throttling folds as a
            // core-weighted mean like residency.
            s.tempC = std::max(s.tempC, ps.tempC);
            s.throttledShare += ps.throttledShare * p.cores;
            pooled.insert(pooled.end(), p.latencies[i].begin(),
                          p.latencies[i].end());
        }
        for (std::size_t r = 0; r < cstate::kNumCStates; ++r)
            s.residency[r] /= static_cast<double>(out.cores);
        s.freqGhz /= static_cast<double>(out.cores);
        s.throttledShare /= static_cast<double>(out.cores);
        std::sort(pooled.begin(), pooled.end());
        s.p99Us = p99Sorted(pooled);
    }
    return out;
}

// ------------------------------------------------------ aw-timeline/3

std::string
timelineCsvHeader()
{
    return "interval,t0_s,t1_s,requests,achieved_qps,power_w,"
           "p99_us,res_c0,res_c1,res_c1e,res_c6a,res_c6ae,res_c6,"
           "freq_ghz,temp_c,throttled_share";
}

std::string
timelineCsvRow(const TimelineSeries &series,
               const IntervalSample &sample)
{
    std::string out = sim::strprintf(
        "%llu,%s,%s,%llu",
        static_cast<unsigned long long>(sample.index),
        sim::fmtNum(sim::toSec(sample.t0 - series.origin)).c_str(),
        sim::fmtNum(sim::toSec(sample.t1 - series.origin)).c_str(),
        static_cast<unsigned long long>(sample.requests));
    for (const double v :
         {sample.achievedQps(), sample.powerW, sample.p99Us}) {
        out += ',';
        out += sim::fmtNum(v);
    }
    for (const double share : sample.residency) {
        out += ',';
        out += sim::fmtNum(share);
    }
    for (const double v :
         {sample.freqGhz, sample.tempC, sample.throttledShare}) {
        out += ',';
        out += sim::fmtNum(v);
    }
    return out;
}

std::string
timelineCsv(const TimelineSeries &series)
{
    std::string out = sim::strprintf("# %s\n", kTimelineSchema);
    if (series.dropped > 0) {
        // The keep-newest ring overflowed: the oldest intervals are
        // gone and every downstream consumer sees a biased (recent)
        // subset. Flag it in the artifact and on stderr -- silence
        // here is how a lossy timeline gets read as a complete one.
        out += sim::strprintf(
            "# emitted %llu dropped %llu (ring overflow: oldest "
            "intervals missing)\n",
            static_cast<unsigned long long>(series.emitted),
            static_cast<unsigned long long>(series.dropped));
        sim::warn("aw-timeline/3: interval ring overflowed "
                  "(%llu of %llu intervals dropped); raise "
                  "TimelineConfig::capacity or widen the interval",
                  static_cast<unsigned long long>(series.dropped),
                  static_cast<unsigned long long>(series.emitted));
    }
    out += timelineCsvHeader();
    out += '\n';
    for (const auto &s : series.samples) {
        out += timelineCsvRow(series, s);
        out += '\n';
    }
    return out;
}

std::string
timelineIntervalsJson(const TimelineSeries &series)
{
    std::string out = "[";
    for (std::size_t i = 0; i < series.samples.size(); ++i) {
        const auto &s = series.samples[i];
        out += i ? ",\n      {" : "\n      {";
        out += sim::strprintf(
            "\"interval\": %llu, \"t0_s\": %s, \"t1_s\": %s, "
            "\"requests\": %llu, \"achieved_qps\": %s, "
            "\"power_w\": %s, \"p99_us\": %s",
            static_cast<unsigned long long>(s.index),
            sim::fmtNum(sim::toSec(s.t0 - series.origin)).c_str(),
            sim::fmtNum(sim::toSec(s.t1 - series.origin)).c_str(),
            static_cast<unsigned long long>(s.requests),
            sim::fmtNum(s.achievedQps()).c_str(),
            sim::fmtNum(s.powerW).c_str(),
            sim::fmtNum(s.p99Us).c_str());
        out += ", \"residency\": [";
        for (std::size_t r = 0; r < s.residency.size(); ++r) {
            if (r)
                out += ", ";
            out += sim::fmtNum(s.residency[r]);
        }
        out += "]";
        out += ", \"freq_ghz\": " + sim::fmtNum(s.freqGhz);
        out += ", \"temp_c\": " + sim::fmtNum(s.tempC);
        out += ", \"throttled_share\": " + sim::fmtNum(s.throttledShare);
        out += "}";
    }
    out += series.samples.empty() ? "]" : "\n    ]";
    return out;
}

std::string
timelineTransitionsJson(const TransitionAnalyzer &map)
{
    std::string out = "[";
    bool any = false;
    for (std::size_t f = 0; f < cstate::kNumCStates; ++f) {
        for (std::size_t t = 0; t < cstate::kNumCStates; ++t) {
            const auto from = static_cast<cstate::CStateId>(f);
            const auto to = static_cast<cstate::CStateId>(t);
            const TransitionStats &p = map.pair(from, to);
            if (p.count == 0)
                continue;
            out += any ? ",\n      {" : "\n      {";
            any = true;
            out += sim::strprintf(
                "\"from\": \"%s\", \"to\": \"%s\", "
                "\"count\": %llu, \"mean_us\": %s, \"max_us\": %s",
                cstate::name(from), cstate::name(to),
                static_cast<unsigned long long>(p.count),
                sim::fmtNum(p.meanLifetimeUs()).c_str(),
                sim::fmtNum(sim::toUs(p.maxLifetime)).c_str());
            // Sparse log2 histogram: [bucket, count] pairs; bucket
            // b holds lifetimes in [2^(b-1), 2^b) picoseconds.
            out += ", \"hist\": [";
            bool first = true;
            for (std::size_t b = 0; b < kLifetimeBuckets; ++b) {
                if (p.histogram[b] == 0)
                    continue;
                if (!first)
                    out += ", ";
                first = false;
                out += sim::strprintf(
                    "[%zu, %llu]", b,
                    static_cast<unsigned long long>(p.histogram[b]));
            }
            out += "]}";
        }
    }
    out += any ? "\n    ]" : "]";
    return out;
}

std::string
timelineJson(const TimelineSeries &series, const std::string &label)
{
    std::string out = "{\n";
    out += sim::strprintf("  \"schema\": \"%s\",\n",
                          kTimelineSchema);
    out += sim::strprintf("  \"label\": \"%s\",\n", label.c_str());
    out += sim::strprintf("  \"interval_s\": %s,\n",
                          sim::fmtNum(sim::toSec(series.interval)).c_str());
    out += sim::strprintf("  \"cores\": %u,\n", series.cores);
    out += sim::strprintf(
        "  \"intervals_emitted\": %llu,\n"
        "  \"intervals_dropped\": %llu,\n",
        static_cast<unsigned long long>(series.emitted),
        static_cast<unsigned long long>(series.dropped));
    out += sim::strprintf(
        "  \"idle_observations\": %llu,\n"
        "  \"idle_observation_mismatches\": %llu,\n",
        static_cast<unsigned long long>(series.idleObservations),
        static_cast<unsigned long long>(
            series.idleObservationMismatches));
    out += "  \"intervals\": " + timelineIntervalsJson(series) +
           ",\n";
    out += "  \"transitions\": " +
           timelineTransitionsJson(series.transitions) + "\n";
    out += "}\n";
    return out;
}

} // namespace aw::analysis
