#include "analysis/trace.hh"

#include <algorithm>

#include "analysis/ring.hh"
#include "sim/format.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace aw::analysis {

// ---------------------------------------------------- RequestTracer

RequestTracer::RequestTracer(const TraceConfig &cfg, unsigned cores)
{
    if (cfg.capacity == 0)
        sim::fatal("RequestTracer: ring capacity must be > 0");
    if (cores == 0)
        sim::fatal("RequestTracer: need at least one core");
    _capacity = cfg.capacity;
    // The rings grow with the run (analysis/ring.hh); the per-core
    // pending buffers start small and regrow only past their
    // high-water mark, i.e. queue depths the run never revisits.
    _tracks.resize(cores);
    for (auto &t : _tracks)
        t.fifo.resize(16);
}

void
RequestTracer::pushPending(CoreTrack &track, const Pending &p)
{
    if (track.count == track.fifo.size()) {
        // Grow by relaying out in FIFO order; amortized, and only
        // when the core's queue outgrows every depth seen so far.
        std::vector<Pending> bigger(track.fifo.size() * 2);
        for (std::size_t k = 0; k < track.count; ++k) {
            bigger[k] = track.fifo[(track.head + k) %
                                   track.fifo.size()];
        }
        track.fifo = std::move(bigger);
        track.head = 0;
    }
    track.fifo[(track.head + track.count) % track.fifo.size()] = p;
    ++track.count;
}

RequestTracer::Pending &
RequestTracer::pendingFor(CoreTrack &track, unsigned core,
                          std::uint64_t id)
{
    // Same-tick callbacks are not phase-ordered (a dispatch can
    // land after the service start it caused), so correlate by id:
    // head first (service/completion order), then newest (dispatch
    // follows arrival), then scan.
    if (track.count == 0)
        sim::panic("RequestTracer: core %u has no pending request "
                   "(id %llu)",
                   core, static_cast<unsigned long long>(id));
    const std::size_t size = track.fifo.size();
    Pending &head = track.fifo[track.head];
    if (head.id == id)
        return head;
    Pending &tail =
        track.fifo[(track.head + track.count - 1) % size];
    if (tail.id == id)
        return tail;
    for (std::size_t k = 1; k + 1 < track.count; ++k) {
        Pending &p = track.fifo[(track.head + k) % size];
        if (p.id == id)
            return p;
    }
    sim::panic("RequestTracer: core %u id %llu is not pending", core,
               static_cast<unsigned long long>(id));
}

void
RequestTracer::onMeasurementStart(sim::Tick now)
{
    if (_done)
        sim::fatal("RequestTracer: records exactly one run");
    // Requests in flight at the window start stay pending: their
    // completions land inside the window and count, mirroring the
    // server's latency tracker.
    _measuring = true;
    _origin = now;
    _spanRing.clear();
    _spansEmitted = 0;
    _wakeRing.clear();
    _wakesEmitted = 0;
}

void
RequestTracer::onRequestArrival(unsigned core, std::uint64_t id,
                                sim::Tick now)
{
    Pending p;
    p.id = id;
    p.arrival = now;
    // Self-generated streams have no dispatcher; the routing
    // component degenerates to zero unless a dispatch follows.
    p.dispatch = now;
    pushPending(_tracks[core], p);
}

void
RequestTracer::onRequestDispatch(unsigned core, std::uint64_t id,
                                 sim::Tick now)
{
    pendingFor(_tracks[core], core, id).dispatch = now;
}

void
RequestTracer::onWakeStart(unsigned core, sim::Tick now,
                           cstate::CStateId from)
{
    CoreTrack &track = _tracks[core];
    if (track.wakeOpen)
        sim::panic("RequestTracer: core %u wake episode already "
                   "open",
                   core);
    track.wakeOpen = true;
    track.wakeStart = now;
    track.wakeFromState = from;
}

void
RequestTracer::onWakeEnd(unsigned core, sim::Tick now)
{
    CoreTrack &track = _tracks[core];
    if (!track.wakeOpen)
        sim::panic("RequestTracer: core %u wake end without start",
                   core);
    track.wakeOpen = false;
    track.lastWakeStart = track.wakeStart;
    track.lastWakeEnd = now;
    track.lastWakeFrom = track.wakeFromState;
    if (!_measuring)
        return;
    WakeEpisode &slot = ringSlot(_wakeRing, _wakesEmitted, _capacity);
    slot.server = 0;
    slot.core = core;
    slot.start = track.wakeStart;
    slot.end = now;
    slot.from = track.wakeFromState;
    ++_wakesEmitted;
}

void
RequestTracer::onServiceStart(unsigned core, std::uint64_t id,
                              sim::Tick now)
{
    CoreTrack &track = _tracks[core];
    Pending &p = pendingFor(track, core, id);
    p.serviceStart = now;
    // At most one wake episode can overlap this request's wait (a
    // core never idles with queued work), and it has closed by now
    // (service only runs on an awake core): the stall is the
    // overlap of the most recent episode with [arrival, now].
    const sim::Tick from = std::max(track.lastWakeStart, p.arrival);
    if (track.lastWakeEnd > from) {
        p.wake = track.lastWakeEnd - from;
        p.wakeFrom = track.lastWakeFrom;
    } else {
        p.wake = 0;
        p.wakeFrom = cstate::CStateId::C0;
    }
}

void
RequestTracer::onComplete(unsigned core, std::uint64_t id,
                          sim::Tick now, double latency_us)
{
    (void)latency_us;
    CoreTrack &track = _tracks[core];
    if (track.count == 0 || track.fifo[track.head].id != id) {
        sim::panic("RequestTracer: core %u completed id %llu out of "
                   "FIFO order",
                   core, static_cast<unsigned long long>(id));
    }
    const Pending p = track.fifo[track.head];
    track.head = (track.head + 1) % track.fifo.size();
    --track.count;
    if (!_measuring)
        return;
    RequestSpan &slot = ringSlot(_spanRing, _spansEmitted, _capacity);
    slot.id = p.id;
    slot.server = 0;
    slot.core = core;
    slot.arrival = p.arrival;
    slot.dispatch = p.dispatch;
    slot.serviceStart = p.serviceStart;
    slot.completion = now;
    slot.wake = p.wake;
    slot.wakeFrom = p.wakeFrom;
    ++_spansEmitted;
}

void
RequestTracer::onMeasurementEnd(sim::Tick now)
{
    _measuring = false;
    _done = true;
    _series = TraceSeries();
    _series.origin = _origin;
    _series.end = now;
    _series.servers = 1;
    _series.cores = static_cast<unsigned>(_tracks.size());
    _series.emitted = _spansEmitted;
    _series.dropped = _spansEmitted - _spanRing.size();
    _series.spans = drainRing(_spanRing, _spansEmitted);
    _series.wakesEmitted = _wakesEmitted;
    _series.wakesDropped = _wakesEmitted - _wakeRing.size();
    _series.wakes = drainRing(_wakeRing, _wakesEmitted);
}

const TraceSeries &
RequestTracer::series() const &
{
    if (!_done)
        sim::fatal("RequestTracer: series() before the run ended");
    return _series;
}

TraceSeries
RequestTracer::series() &&
{
    if (!_done)
        sim::fatal("RequestTracer: series() before the run ended");
    return std::move(_series);
}

// ------------------------------------------------------ mergeTraces

TraceSeries
mergeTraces(const std::vector<TraceSeries> &parts)
{
    if (parts.empty())
        sim::fatal("mergeTraces: no parts");
    TraceSeries out;
    out.origin = parts.front().origin;
    out.end = parts.front().end;
    out.cores = parts.front().cores;
    out.servers = static_cast<unsigned>(parts.size());

    std::size_t spans = 0;
    std::size_t wakes = 0;
    for (const auto &part : parts) {
        if (part.origin != out.origin || part.end != out.end ||
            part.cores != out.cores) {
            sim::fatal("mergeTraces: parts disagree on window or "
                       "core count");
        }
        spans += part.spans.size();
        wakes += part.wakes.size();
    }
    out.spans.reserve(spans);
    out.wakes.reserve(wakes);
    for (std::size_t s = 0; s < parts.size(); ++s) {
        const auto server = static_cast<std::uint32_t>(s);
        for (RequestSpan span : parts[s].spans) {
            span.server = server;
            out.spans.push_back(span);
        }
        for (WakeEpisode w : parts[s].wakes) {
            w.server = server;
            out.wakes.push_back(w);
        }
        out.emitted += parts[s].emitted;
        out.dropped += parts[s].dropped;
        out.wakesEmitted += parts[s].wakesEmitted;
        out.wakesDropped += parts[s].wakesDropped;
    }
    // Per-part order is already completion order; a stable sort
    // interleaves deterministically (ties keep server order).
    std::stable_sort(out.spans.begin(), out.spans.end(),
                     [](const RequestSpan &a, const RequestSpan &b) {
                         return a.completion < b.completion;
                     });
    std::stable_sort(out.wakes.begin(), out.wakes.end(),
                     [](const WakeEpisode &a, const WakeEpisode &b) {
                         return a.end < b.end;
                     });
    return out;
}

// ---------------------------------------------------- attributeTail

namespace {

/** Accumulate @p span counts/sums into @p stats (tick sums carried
 *  in the mean fields until finalize). */
struct CohortAccum
{
    std::uint64_t count = 0;
    std::uint64_t latency = 0;
    std::uint64_t routing = 0;
    std::uint64_t queue = 0;
    std::uint64_t wake = 0;
    std::uint64_t service = 0;
    std::array<std::uint64_t, cstate::kNumCStates> wakeCount{};
    std::array<std::uint64_t, cstate::kNumCStates> wakeTicks{};

    void
    add(const RequestSpan &span)
    {
        ++count;
        latency += span.latency();
        routing += span.routing();
        queue += span.queueWait();
        wake += span.wake;
        service += span.service();
        if (span.wake > 0) {
            const auto s = cstate::index(span.wakeFrom);
            ++wakeCount[s];
            wakeTicks[s] += span.wake;
        }
    }

    CohortStats
    finalize(double threshold_us) const
    {
        CohortStats st;
        st.count = count;
        st.thresholdUs = threshold_us;
        if (count == 0)
            return st;
        const auto n = static_cast<double>(count);
        st.meanLatencyUs = sim::toUs(latency) / n;
        st.meanRoutingUs = sim::toUs(routing) / n;
        st.meanQueueUs = sim::toUs(queue) / n;
        st.meanWakeUs = sim::toUs(wake) / n;
        st.meanServiceUs = sim::toUs(service) / n;
        if (latency > 0) {
            const auto total = static_cast<double>(latency);
            st.routingShare = static_cast<double>(routing) / total;
            st.queueShare = static_cast<double>(queue) / total;
            st.wakeShare = static_cast<double>(wake) / total;
            st.serviceShare = static_cast<double>(service) / total;
            for (std::size_t s = 0; s < cstate::kNumCStates; ++s) {
                st.wakeShareOfLatency[s] =
                    static_cast<double>(wakeTicks[s]) / total;
            }
        }
        for (std::size_t s = 0; s < cstate::kNumCStates; ++s) {
            st.wakeCount[s] = wakeCount[s];
            if (wakeCount[s] > 0) {
                st.wakeMeanUs[s] =
                    sim::toUs(wakeTicks[s]) /
                    static_cast<double>(wakeCount[s]);
            }
        }
        return st;
    }
};

} // namespace

TailAttribution
attributeTail(const TraceSeries &series)
{
    TailAttribution attr;
    attr.spans = series.spans.size();
    attr.emitted = series.emitted;
    attr.dropped = series.dropped;
    if (series.spans.empty())
        return attr;

    std::vector<sim::Tick> latencies;
    latencies.reserve(series.spans.size());
    for (const auto &span : series.spans)
        latencies.push_back(span.latency());
    // Two rank selections, not a sort: the p99.9 rank is at or past
    // the p99 one, so the second selection only scans the part the
    // first left at or above p99.
    const std::size_t n = latencies.size();
    const auto at99 = latencies.begin() +
                      static_cast<std::ptrdiff_t>(
                          sim::nearestRank(99.0, n) - 1);
    std::nth_element(latencies.begin(), at99, latencies.end());
    const sim::Tick p99 = *at99;
    const auto at999 = latencies.begin() +
                       static_cast<std::ptrdiff_t>(
                           sim::nearestRank(99.9, n) - 1);
    std::nth_element(at99, at999, latencies.end());
    const sim::Tick p999 = *at999;
    attr.p99Us = sim::toUs(p99);
    attr.p999Us = sim::toUs(p999);

    CohortAccum all;
    CohortAccum tail99;
    CohortAccum tail999;
    for (const auto &span : series.spans) {
        const sim::Tick lat = span.latency();
        all.add(span);
        if (lat >= p99)
            tail99.add(span);
        if (lat >= p999)
            tail999.add(span);
    }
    attr.all = all.finalize(0.0);
    attr.p99 = tail99.finalize(attr.p99Us);
    attr.p999 = tail999.finalize(attr.p999Us);
    return attr;
}

// --------------------------------------------------------- emitters

std::string
traceCsvHeader()
{
    return "server,core,id,arrival_s,routing_us,queue_us,wake_us,"
           "wake_from,service_us,latency_us\n";
}

std::string
traceCsvRow(const TraceSeries &series, const RequestSpan &span)
{
    std::string out;
    out += sim::strprintf("%u,%u,%llu,", span.server, span.core,
                          static_cast<unsigned long long>(span.id));
    // A span can straddle the warmup boundary (arrival during
    // warmup, completion measured): render a negative arrival_s
    // rather than wrapping the unsigned tick difference.
    out += sim::fmtNum(span.arrival >= series.origin
                           ? sim::toSec(span.arrival - series.origin)
                           : -sim::toSec(series.origin - span.arrival));
    out += ',';
    out += sim::fmtNum(sim::toUs(span.routing()));
    out += ',';
    out += sim::fmtNum(sim::toUs(span.queueWait()));
    out += ',';
    out += sim::fmtNum(sim::toUs(span.wake));
    out += ',';
    out += cstate::name(span.wakeFrom);
    out += ',';
    out += sim::fmtNum(sim::toUs(span.service()));
    out += ',';
    out += sim::fmtNum(sim::toUs(span.latency()));
    out += '\n';
    return out;
}

std::string
traceCsv(const TraceSeries &series)
{
    std::string out = sim::strprintf("# %s\n", kTraceSchema);
    if (series.dropped > 0) {
        // Same contract as the timeline renderer: a wrapped span
        // ring means the artifact holds a keep-newest subset, and
        // both the file and stderr must say so.
        out += sim::strprintf(
            "# emitted %llu dropped %llu (ring overflow: oldest "
            "spans missing)\n",
            static_cast<unsigned long long>(series.emitted),
            static_cast<unsigned long long>(series.dropped));
        sim::warn("aw-trace/1: span ring overflowed (%llu of %llu "
                  "spans dropped); raise TraceConfig::capacity",
                  static_cast<unsigned long long>(series.dropped),
                  static_cast<unsigned long long>(series.emitted));
    }
    out += traceCsvHeader();
    for (const auto &span : series.spans)
        out += traceCsvRow(series, span);
    return out;
}

namespace {

std::string
cohortJson(const CohortStats &st, const char *indent)
{
    std::string out = "{\n";
    const std::string in(indent);
    out += in + "  \"count\": " +
           sim::strprintf(
               "%llu", static_cast<unsigned long long>(st.count)) +
           ",\n";
    out += in + "  \"threshold_us\": " + sim::fmtNum(st.thresholdUs) + ",\n";
    out +=
        in + "  \"mean_latency_us\": " + sim::fmtNum(st.meanLatencyUs) +
        ",\n";
    out +=
        in + "  \"mean_routing_us\": " + sim::fmtNum(st.meanRoutingUs) +
        ",\n";
    out += in + "  \"mean_queue_us\": " + sim::fmtNum(st.meanQueueUs) + ",\n";
    out += in + "  \"mean_wake_us\": " + sim::fmtNum(st.meanWakeUs) + ",\n";
    out +=
        in + "  \"mean_service_us\": " + sim::fmtNum(st.meanServiceUs) +
        ",\n";
    out += in + "  \"routing_share\": " + sim::fmtNum(st.routingShare) + ",\n";
    out += in + "  \"queue_share\": " + sim::fmtNum(st.queueShare) + ",\n";
    out += in + "  \"wake_share\": " + sim::fmtNum(st.wakeShare) + ",\n";
    out += in + "  \"service_share\": " + sim::fmtNum(st.serviceShare) + ",\n";
    out += in + "  \"wake_by_state\": [\n";
    for (std::size_t s = 0; s < cstate::kNumCStates; ++s) {
        out += in + "    {\"state\": \"" +
               cstate::name(static_cast<cstate::CStateId>(s)) +
               "\", \"count\": " +
               sim::strprintf("%llu",
                              static_cast<unsigned long long>(
                                  st.wakeCount[s])) +
               ", \"mean_wake_us\": " + sim::fmtNum(st.wakeMeanUs[s]) +
               ", \"share_of_latency\": " +
               sim::fmtNum(st.wakeShareOfLatency[s]) + "}";
        out += s + 1 < cstate::kNumCStates ? ",\n" : "\n";
    }
    out += in + "  ]\n";
    out += in + "}";
    return out;
}

} // namespace

std::string
attributionCohortsJson(const TailAttribution &attr)
{
    std::string out = "{\n";
    out += "      \"all\": " + cohortJson(attr.all, "      ") + ",\n";
    out += "      \"p99\": " + cohortJson(attr.p99, "      ") + ",\n";
    out +=
        "      \"p999\": " + cohortJson(attr.p999, "      ") + "\n";
    out += "    }";
    return out;
}

std::string
attributionJson(const TraceSeries &series, const std::string &label)
{
    const TailAttribution attr = attributeTail(series);
    std::string out = "{\n";
    out += sim::strprintf("  \"schema\": \"%s\",\n", kTraceSchema);
    out += sim::strprintf("  \"label\": \"%s\",\n", label.c_str());
    out += sim::strprintf("  \"servers\": %u,\n", series.servers);
    out += sim::strprintf("  \"cores\": %u,\n", series.cores);
    out += "  \"window_s\": " +
           sim::fmtNum(sim::toSec(series.end - series.origin)) + ",\n";
    out += sim::strprintf(
        "  \"spans\": %llu,\n",
        static_cast<unsigned long long>(series.spans.size()));
    out += sim::strprintf(
        "  \"emitted\": %llu,\n",
        static_cast<unsigned long long>(series.emitted));
    out += sim::strprintf(
        "  \"dropped\": %llu,\n",
        static_cast<unsigned long long>(series.dropped));
    out += sim::strprintf(
        "  \"wake_episodes\": %llu,\n",
        static_cast<unsigned long long>(series.wakesEmitted));
    out += sim::strprintf(
        "  \"routing_decisions\": %llu,\n",
        static_cast<unsigned long long>(series.routingEmitted));
    out += "  \"p99_us\": " + sim::fmtNum(attr.p99Us) + ",\n";
    out += "  \"p999_us\": " + sim::fmtNum(attr.p999Us) + ",\n";
    out += "  \"cohorts\": {\n";
    out += "    \"all\": " + cohortJson(attr.all, "    ") + ",\n";
    out += "    \"p99\": " + cohortJson(attr.p99, "    ") + ",\n";
    out += "    \"p999\": " + cohortJson(attr.p999, "    ") + "\n";
    out += "  }\n";
    out += "}\n";
    return out;
}

namespace {

/** Chrome trace color name per wake from-state: the AW states in
 *  calm colors, legacy C6 in the loudest one the palette has. */
const char *
wakeColor(cstate::CStateId s)
{
    switch (s) {
      case cstate::CStateId::C0:
        return "white";
      case cstate::CStateId::C1:
        return "good";
      case cstate::CStateId::C1E:
        return "yellow";
      case cstate::CStateId::C6A:
        return "olive";
      case cstate::CStateId::C6AE:
        return "grey";
      case cstate::CStateId::C6:
        return "terrible";
      default:
        break;
    }
    return "white";
}

} // namespace

std::string
chromeTraceJson(const TraceSeries &series)
{
    // Timestamps: microseconds relative to the series origin (the
    // trace_event format's native unit).
    const auto ts = [&](sim::Tick t) {
        // A wake episode carried over from warmup can start before
        // the origin: render a (tiny) negative timestamp.
        return sim::fmtNum(t >= series.origin
                               ? sim::toUs(t - series.origin)
                               : -sim::toUs(series.origin - t));
    };
    std::string out = "{\n";
    out += "\"displayTimeUnit\": \"ns\",\n";
    out += sim::strprintf(
        "\"otherData\": {\"schema\": \"%s\"},\n", kTraceSchema);
    out += "\"traceEvents\": [\n";
    std::string events;
    const auto push = [&](const std::string &ev) {
        if (!events.empty())
            events += ",\n";
        events += ev;
    };
    // Process/thread naming metadata: one process per server, one
    // thread track per core, plus a balancer process for fleet
    // routing instants.
    for (unsigned s = 0; s < series.servers; ++s) {
        push(sim::strprintf(
            "{\"name\": \"process_name\", \"ph\": \"M\", "
            "\"pid\": %u, \"tid\": 0, \"ts\": 0, "
            "\"args\": {\"name\": \"server %u\"}}",
            s, s));
        for (unsigned c = 0; c < series.cores; ++c) {
            push(sim::strprintf(
                "{\"name\": \"thread_name\", \"ph\": \"M\", "
                "\"pid\": %u, \"tid\": %u, \"ts\": 0, "
                "\"args\": {\"name\": \"core %u\"}}",
                s, c, c));
        }
    }
    if (!series.routing.empty()) {
        push(sim::strprintf(
            "{\"name\": \"process_name\", \"ph\": \"M\", "
            "\"pid\": %u, \"tid\": 0, \"ts\": 0, "
            "\"args\": {\"name\": \"balancer\"}}",
            series.servers));
    }
    for (const auto &w : series.wakes) {
        push(sim::strprintf(
                 "{\"name\": \"wake %s\", \"cat\": \"wake\", "
                 "\"ph\": \"X\", \"pid\": %u, \"tid\": %u, ",
                 cstate::name(w.from), w.server, w.core) +
             "\"ts\": " + ts(w.start) +
             ", \"dur\": " + sim::fmtNum(sim::toUs(w.end - w.start)) +
             sim::strprintf(", \"cname\": \"%s\", "
                            "\"args\": {\"from\": \"%s\"}}",
                            wakeColor(w.from),
                            cstate::name(w.from)));
    }
    for (const auto &span : series.spans) {
        push(sim::strprintf(
                 "{\"name\": \"service\", \"cat\": \"request\", "
                 "\"ph\": \"X\", \"pid\": %u, \"tid\": %u, ",
                 span.server, span.core) +
             "\"ts\": " + ts(span.serviceStart) +
             ", \"dur\": " + sim::fmtNum(sim::toUs(span.service())) +
             sim::strprintf(
                 ", \"args\": {\"id\": %llu, ",
                 static_cast<unsigned long long>(span.id)) +
             "\"queue_us\": " + sim::fmtNum(sim::toUs(span.queueWait())) +
             ", \"wake_us\": " + sim::fmtNum(sim::toUs(span.wake)) +
             sim::strprintf(", \"wake_from\": \"%s\", ",
                            cstate::name(span.wakeFrom)) +
             "\"latency_us\": " + sim::fmtNum(sim::toUs(span.latency())) +
             "}}");
    }
    for (const auto &r : series.routing) {
        push(sim::strprintf("{\"name\": \"route s%u\", "
                            "\"cat\": \"routing\", \"ph\": \"i\", "
                            "\"pid\": %u, \"tid\": 0, ",
                            r.server, series.servers) +
             "\"ts\": " + ts(r.at) + ", \"s\": \"p\"}");
    }
    out += events;
    out += "\n]\n}\n";
    return out;
}

} // namespace aw::analysis
