/**
 * @file
 * Request-path tracing and tail-latency attribution.
 *
 * RequestTracer implements server::TelemetryObserver and turns the
 * per-request lifecycle callbacks into fixed-size span records --
 * one per completed request, decomposing its server latency into
 *
 *     latency = routing + queue_wait + wake(fromState) + service
 *
 * tick-exactly (the components tile the [arrival, completion]
 * interval with no gap or overlap). Wake attribution leans on a
 * structural invariant of CoreSim: a core never goes idle with
 * queued work, so at most one wake episode overlaps any request's
 * wait, and the per-request wake stall is the overlap of the core's
 * most recent wake episode with [arrival, serviceStart].
 *
 * The tracer is strictly passive (no events scheduled, no
 * simulation RNG drawn; tests/test_request_trace.cc pins identical
 * kernel event and request counts with it on and off). Spans land
 * in a keep-newest ring that grows with the run up to its capacity
 * (analysis/ring.hh; `dropped` counts overwritten records), so the
 * hot path allocates only while the ring fills, and the per-core
 * pending queues are reusable circular buffers that only grow past
 * their high-water mark.
 *
 * TailAttribution is the consumer the paper's story needs: for the
 * full population and the p99/p99.9 cohorts (nearest-rank
 * thresholds, like sim::PercentileTracker) it reports each
 * component's mean and share of total latency plus a per-from-state
 * wake-cost histogram -- the number that proves (or falsifies)
 * "C6A removes wake from the tail" on every config.
 *
 * Serialized forms: the versioned `aw-trace/1` span CSV /
 * attribution JSON (docs/TRACING.md) and a Chrome trace_event JSON
 * loadable in Perfetto or chrome://tracing (one track per core,
 * wake spans colored by from-state).
 */

#ifndef AW_ANALYSIS_TRACE_HH
#define AW_ANALYSIS_TRACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "server/telemetry.hh"
#include "sim/types.hh"

namespace aw::analysis {

/** Version tag of the trace artifact schemas. Changing the span CSV
 *  columns, the attribution JSON keys or their semantics is a
 *  schema change: bump this and docs/TRACING.md together. */
inline constexpr const char *kTraceSchema = "aw-trace/1";

/**
 * Tracer knobs.
 */
struct TraceConfig
{
    /** Span/episode ring capacity: the newest `capacity` records
     *  are retained, older ones are overwritten and counted as
     *  dropped. Must be > 0. A ceiling, not an allocation: the
     *  rings grow with the records a run makes. The default
     *  comfortably holds every measured request of the golden
     *  sweep points (tests assert dropped == 0 there). */
    std::size_t capacity = std::size_t(1) << 17;
};

/**
 * One completed request, fully attributed. Times are absolute sim
 * ticks; the component accessors return tick-exact durations that
 * sum to latency().
 */
struct RequestSpan
{
    std::uint64_t id = 0;     //!< core-local arrival sequence
    std::uint32_t server = 0; //!< fleet server index (0 standalone)
    std::uint32_t core = 0;

    sim::Tick arrival = 0;      //!< entered the core's queue
    sim::Tick dispatch = 0;     //!< balancer/dispatcher decision
    sim::Tick serviceStart = 0; //!< popped for service
    sim::Tick completion = 0;

    /** Wake stall attributed to this request: overlap of the core's
     *  wake episode with [arrival, serviceStart]. Zero when the
     *  core was already awake (or polling in C0). */
    sim::Tick wake = 0;
    cstate::CStateId wakeFrom = cstate::CStateId::C0;

    sim::Tick latency() const { return completion - arrival; }
    sim::Tick routing() const { return dispatch - arrival; }
    sim::Tick service() const { return completion - serviceStart; }
    sim::Tick queueWait() const
    {
        return serviceStart - dispatch - wake;
    }
};

/** One core wake episode (onWakeStart..onWakeEnd), for the
 *  per-core Chrome track. */
struct WakeEpisode
{
    std::uint32_t server = 0;
    std::uint32_t core = 0;
    sim::Tick start = 0;
    sim::Tick end = 0;
    cstate::CStateId from = cstate::CStateId::C0;
};

/** One fleet balancer routing decision (measured window only). */
struct RoutingDecision
{
    sim::Tick at = 0;
    std::uint32_t server = 0;
};

/**
 * A recorded trace: retained spans and wake episodes over the
 * measured window, plus (fleet runs) the balancer decisions.
 */
struct TraceSeries
{
    sim::Tick origin = 0; //!< measurement start
    sim::Tick end = 0;    //!< measurement end
    unsigned servers = 1;
    unsigned cores = 0; //!< cores per server

    std::uint64_t emitted = 0; //!< spans recorded over the window
    std::uint64_t dropped = 0; //!< overwritten by ring overflow

    /** Oldest retained to newest; completion-ordered (merged fleet
     *  series: stable by completion, server index breaking ties). */
    std::vector<RequestSpan> spans;

    std::uint64_t wakesEmitted = 0;
    std::uint64_t wakesDropped = 0;
    /** Wake episodes, end-ordered like spans. */
    std::vector<WakeEpisode> wakes;

    std::uint64_t routingEmitted = 0;
    std::uint64_t routingDropped = 0;
    /** Balancer decisions in the measured window (fleet runs). */
    std::vector<RoutingDecision> routing;
};

/**
 * The observer: attach to a ServerSim before run(); read series()
 * after. Records exactly one measured window.
 */
class RequestTracer final : public server::TelemetryObserver
{
  public:
    /** @param cores  number of cores the observed server runs. */
    RequestTracer(const TraceConfig &cfg, unsigned cores);

    /** @{ TelemetryObserver. */
    void onMeasurementStart(sim::Tick now) override;
    void onMeasurementEnd(sim::Tick now) override;
    void onRequestArrival(unsigned core, std::uint64_t id,
                          sim::Tick now) override;
    void onRequestDispatch(unsigned core, std::uint64_t id,
                           sim::Tick now) override;
    void onWakeStart(unsigned core, sim::Tick now,
                     cstate::CStateId from) override;
    void onWakeEnd(unsigned core, sim::Tick now) override;
    void onServiceStart(unsigned core, std::uint64_t id,
                        sim::Tick now) override;
    void onComplete(unsigned core, std::uint64_t id, sim::Tick now,
                    double latency_us) override;
    /** @} */

    /** @{ The recorded trace; valid after onMeasurementEnd. The
     *  rvalue overload moves it out (std::move(tracer).series()). */
    const TraceSeries &series() const &;
    TraceSeries series() &&;
    /** @} */

  private:
    /** A request between arrival and completion. */
    struct Pending
    {
        std::uint64_t id = 0;
        sim::Tick arrival = 0;
        sim::Tick dispatch = 0;
        sim::Tick serviceStart = 0;
        sim::Tick wake = 0;
        cstate::CStateId wakeFrom = cstate::CStateId::C0;
    };

    /** Per-core pending FIFO (circular, grow-on-demand) plus the
     *  wake-episode bookkeeping the attribution keys off. */
    struct CoreTrack
    {
        std::vector<Pending> fifo;
        std::size_t head = 0;
        std::size_t count = 0;

        bool wakeOpen = false;
        sim::Tick wakeStart = 0;
        cstate::CStateId wakeFromState = cstate::CStateId::C0;

        /** Most recently *closed* episode. */
        sim::Tick lastWakeStart = 0;
        sim::Tick lastWakeEnd = 0;
        cstate::CStateId lastWakeFrom = cstate::CStateId::C0;
    };

    Pending &pendingFor(CoreTrack &track, unsigned core,
                        std::uint64_t id);
    void pushPending(CoreTrack &track, const Pending &p);

    std::size_t _capacity = 0;
    std::vector<CoreTrack> _tracks;

    /** @{ Keep-newest rings (analysis/ring.hh). */
    std::vector<RequestSpan> _spanRing;
    std::uint64_t _spansEmitted = 0;
    std::vector<WakeEpisode> _wakeRing;
    std::uint64_t _wakesEmitted = 0;
    /** @} */

    sim::Tick _origin = 0;
    bool _measuring = false;
    bool _done = false;

    TraceSeries _series;
};

/**
 * Merge per-server traces into one fleet trace: spans/episodes are
 * stamped with their server index and interleaved by completion
 * (stable, so equal ticks keep server order) -- deterministic
 * regardless of how the parts were produced. All parts must share
 * the same window and core count. Routing decisions are attached
 * separately by the fleet driver.
 */
TraceSeries mergeTraces(const std::vector<TraceSeries> &parts);

/**
 * Component statistics over one cohort of spans.
 */
struct CohortStats
{
    std::uint64_t count = 0;
    double thresholdUs = 0.0; //!< cohort latency cutoff (0 = all)

    /** @{ Per-component means over the cohort (microseconds). */
    double meanLatencyUs = 0.0;
    double meanRoutingUs = 0.0;
    double meanQueueUs = 0.0;
    double meanWakeUs = 0.0;
    double meanServiceUs = 0.0;
    /** @} */

    /** @{ Component share of the cohort's total latency
     *  (sum(component) / sum(latency); the four sum to 1). */
    double routingShare = 0.0;
    double queueShare = 0.0;
    double wakeShare = 0.0;
    double serviceShare = 0.0;
    /** @} */

    /** @{ Wake-cost histogram by from-state: how many cohort
     *  requests woke a core sleeping in state s, their mean wake
     *  stall, and that state's share of the cohort's latency. */
    std::array<std::uint64_t, cstate::kNumCStates> wakeCount{};
    std::array<double, cstate::kNumCStates> wakeMeanUs{};
    std::array<double, cstate::kNumCStates> wakeShareOfLatency{};
    /** @} */
};

/**
 * Tail attribution over a trace: the full population plus the p99
 * and p99.9 cohorts (spans with latency >= the nearest-rank
 * percentile of the retained spans).
 */
struct TailAttribution
{
    std::uint64_t spans = 0;   //!< retained (= attributed) spans
    std::uint64_t emitted = 0; //!< spans recorded over the window
    std::uint64_t dropped = 0;

    double p99Us = 0.0;  //!< nearest-rank over retained spans
    double p999Us = 0.0;

    CohortStats all;
    CohortStats p99;
    CohortStats p999;
};

/** Attribute @p series (empty series => all-zero attribution). */
TailAttribution attributeTail(const TraceSeries &series);

/** @{ aw-trace/1 rendering. The span CSV column schema:
 *
 *   server,core,id,arrival_s,routing_us,queue_us,wake_us,
 *   wake_from,service_us,latency_us
 *
 *  traceCsv() prefixes the `# aw-trace/1` schema line; arrival_s is
 *  seconds relative to the series origin, durations are
 *  microseconds, numbers render with the schedule-independent
 *  "%.10g". */
std::string traceCsvHeader();
std::string traceCsvRow(const TraceSeries &series,
                        const RequestSpan &span);
std::string traceCsv(const TraceSeries &series);

/** JSON fragment ("{...}" object with all/p99/p999 cohort keys)
 *  reused by the sweep emitters. */
std::string attributionCohortsJson(const TailAttribution &attr);

/** A standalone attribution JSON document for one series
 *  (awsim --trace-requests-json). */
std::string attributionJson(const TraceSeries &series,
                            const std::string &label);

/**
 * Chrome trace_event JSON (the format chrome://tracing and
 * Perfetto load): one process per server, one thread track per
 * core, complete ("X") events for service spans and wake episodes
 * (colored by from-state), instant ("i") events for balancer
 * routing decisions. Timestamps are microseconds relative to the
 * series origin. Every event carries the pinned ph/pid/tid/ts keys.
 */
std::string chromeTraceJson(const TraceSeries &series);
/** @} */

} // namespace aw::analysis

#endif // AW_ANALYSIS_TRACE_HH
