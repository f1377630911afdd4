/**
 * @file
 * Streaming interval sampler: time-resolved telemetry over a
 * simulated run.
 *
 * TimelineRecorder implements server::TelemetryObserver and folds
 * the observer callbacks into fixed sim-time intervals -- per
 * interval: completed requests, achieved QPS, average package power
 * (exact energy integral over the interval), pooled p99 latency,
 * per-state residency shares and the core-time mean effective
 * frequency (the DVFS operating point integrated over every core,
 * from onFreqChange) -- emitted into a keep-newest ring that grows
 * with the run up to its capacity (analysis/ring.hh), so the hot
 * path allocates only while the ring fills. A per-core
 * TransitionAnalyzer rides along on the same callback stream and a
 * ground-truth cross-check validates every governor observeIdle
 * feedback against the recorder's own idle-period bookkeeping.
 *
 * The recorder is strictly passive: it schedules no events and
 * draws no randomness, so a run with telemetry enabled executes
 * the exact same event stream as one without (the golden
 * byte-identity suites pin this).
 *
 * Interval semantics (pinned by tests/test_sampler.cc):
 *
 *   - intervals are [t0, t1) anchored at the measurement start;
 *     boundaries are closed lazily by the next observation, so an
 *     event exactly on a boundary lands in the *next* interval;
 *   - the final interval is emitted as a partial [t0, end) only
 *     when non-empty (a run ending exactly on a boundary emits no
 *     zero-length interval);
 *   - on overflow the ring keeps the newest `capacity` intervals
 *     and counts the overwritten ones in `dropped` (the total
 *     `emitted` keeps counting).
 *
 * Serialized form: the versioned `aw-timeline/3` CSV/JSON schema
 * (docs/TELEMETRY.md), stable like `aw-trace/1`. (/2 appended the
 * freq_ghz column to /1; /3 appended temp_c and throttled_share;
 * there is no in-place schema evolution -- see the versioning
 * policy in docs/TELEMETRY.md.)
 */

#ifndef AW_ANALYSIS_SAMPLER_HH
#define AW_ANALYSIS_SAMPLER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/transitions.hh"
#include "power/units.hh"
#include "server/telemetry.hh"
#include "sim/types.hh"

namespace aw::analysis {

/** Version tag of the timeline artifact schema. Changing the CSV
 *  columns or JSON keys is a schema change: bump this and
 *  docs/TELEMETRY.md together. */
inline constexpr const char *kTimelineSchema = "aw-timeline/3";

/**
 * Sampler knobs.
 */
struct TimelineConfig
{
    /** Fixed interval length (sim seconds); must be > 0. */
    double intervalSeconds = 0.01;

    /** Ring capacity in intervals: the newest `capacity` samples
     *  are retained, older ones are overwritten and counted as
     *  dropped. Must be > 0. A ceiling, not an allocation: the ring
     *  grows with the intervals a run closes. */
    std::size_t capacity = 4096;

    /** Keep each interval's raw latency samples in the series so a
     *  fleet fold can pool exact per-interval percentiles. */
    bool retainLatencies = false;
};

/**
 * One closed interval [t0, t1).
 */
struct IntervalSample
{
    std::uint64_t index = 0; //!< interval number since stats start
    sim::Tick t0 = 0;        //!< absolute sim time
    sim::Tick t1 = 0;

    std::uint64_t requests = 0;
    double powerW = 0.0; //!< mean package power (cores + uncore)
    double p99Us = 0.0;  //!< pooled p99 server latency (0 if none)
    std::array<double, cstate::kNumCStates> residency{};

    /** Core-time mean effective frequency (GHz): the operating
     *  point each core last announced via onFreqChange, integrated
     *  over the interval across all cores (idle time included --
     *  this is the P-state the core would execute at, not a
     *  utilization-weighted clock). */
    double freqGhz = 0.0;

    /** Junction temperature (deg C) at the interval close: the last
     *  value the cap subsystem's RC thermal model announced via
     *  onTemperature. 0 while the thermal model is off. */
    double tempC = 0.0;

    /** Share of the interval a power-cap/thermal throttle was in
     *  effect (onCapThrottle edges integrated over the interval).
     *  0 while the cap subsystem is off. */
    double throttledShare = 0.0;

    /** Completions per second over the interval. */
    double achievedQps() const
    {
        const double sec = sim::toSec(t1 - t0);
        return sec > 0.0 ? static_cast<double>(requests) / sec : 0.0;
    }
};

/**
 * A recorded timeline: the retained samples plus the run-wide
 * transition map and idle ground-truth counters.
 */
struct TimelineSeries
{
    sim::Tick origin = 0;   //!< measurement start (t0_s zero point)
    sim::Tick interval = 0; //!< configured interval (ticks)
    unsigned cores = 0;

    std::uint64_t emitted = 0; //!< intervals closed over the run
    std::uint64_t dropped = 0; //!< overwritten by ring overflow

    /** Oldest retained to newest. */
    std::vector<IntervalSample> samples;

    /** Per-interval latency samples (sorted), parallel to samples;
     *  empty unless TimelineConfig::retainLatencies. */
    std::vector<std::vector<double>> latencies;

    /** Transition map folded over every core. */
    TransitionAnalyzer transitions;

    /** @{ Governor observeIdle ground truth: every observation is
     *  checked against the recorder's own idle-start bookkeeping. */
    std::uint64_t idleObservations = 0;
    sim::Tick idleObservedTotal = 0;
    std::uint64_t idleObservationMismatches = 0;
    /** @} */
};

/**
 * The observer: attach to a ServerSim before run(); read series()
 * after.
 */
class TimelineRecorder final : public server::TelemetryObserver
{
  public:
    /** @param cores  number of cores the observed server runs. */
    TimelineRecorder(const TimelineConfig &cfg, unsigned cores);

    /** @{ TelemetryObserver. */
    void onMeasurementStart(sim::Tick now) override;
    void onMeasurementEnd(sim::Tick now) override;
    void onCStateEnter(unsigned core, sim::Tick now,
                       cstate::CStateId state) override;
    void onCorePower(unsigned core, sim::Tick now,
                     power::Watts watts) override;
    void onUncorePower(sim::Tick now, power::Watts watts) override;
    void onFreqChange(unsigned core, sim::Tick now,
                      double hz) override;
    void onTemperature(sim::Tick now, double celsius) override;
    void onCapThrottle(sim::Tick now, std::size_t level_cap,
                       double forced_idle_share,
                       bool throttled) override;
    void onIdleStart(unsigned core, sim::Tick now) override;
    void onIdleObserved(unsigned core, sim::Tick now,
                        sim::Tick idle) override;
    void onComplete(unsigned core, std::uint64_t id, sim::Tick now,
                    double latency_us) override;
    /** @} */

    /** @{ The recorded timeline; valid after onMeasurementEnd. The
     *  rvalue overload moves it out
     *  (std::move(recorder).series()). */
    const TimelineSeries &series() const &;
    TimelineSeries series() &&;
    /** @} */

    /** Core @p core's transition map (valid after the run). */
    const TransitionAnalyzer &coreTransitions(unsigned core) const;

  private:
    /** Attribute core @p core's elapsed residency/energy up to
     *  @p now (boundaries must already be closed). */
    void accrueCore(unsigned core, sim::Tick now);
    void accrueUncore(sim::Tick now);
    void accrueThrottle(sim::Tick now);

    /** Close every interval boundary <= @p now. */
    void advanceTo(sim::Tick now);

    /** Close the current interval at @p t1 and emit it. */
    void closeInterval(sim::Tick t1);

    struct CoreTrack
    {
        cstate::CStateId state = cstate::CStateId::C0;
        sim::Tick last = 0; //!< accrued-up-to timestamp
        power::Watts power = 0.0;
        double freqHz = 0.0; //!< last announced operating point
        sim::Tick idleStart = sim::kMaxTick;
    };

    sim::Tick _interval = 0;
    std::size_t _capacity = 0;
    bool _retainLatencies = false;

    std::vector<CoreTrack> _cores;
    std::vector<TransitionAnalyzer> _analyzers;
    power::Watts _uncorePower = 0.0;
    sim::Tick _uncoreLast = 0;

    /** @{ Cap subsystem tracks (quiet while it is disabled). */
    double _tempC = 0.0;       //!< last announced temperature
    bool _throttled = false;   //!< current throttle state
    sim::Tick _throttleLast = 0;
    sim::Tick _throttleTicks = 0; //!< current-interval throttled time
    /** @} */

    /** @{ Current-interval accumulators. */
    sim::Tick _intervalStart = 0;
    sim::Tick _intervalEnd = 0;
    std::array<sim::Tick, cstate::kNumCStates> _stateTicks{};
    double _energyJ = 0.0;
    double _freqGhzSec = 0.0; //!< freq x core-time integral
    std::uint64_t _requests = 0;
    std::vector<double> _latencies; //!< scratch, capacity reused
    /** @} */

    /** @{ Ring of retained samples. */
    std::vector<IntervalSample> _ring;
    std::vector<std::vector<double>> _ringLatencies;
    std::uint64_t _emitted = 0;
    /** @} */

    sim::Tick _origin = 0;
    bool _measuring = false;
    bool _done = false;

    std::uint64_t _idleObservations = 0;
    sim::Tick _idleObservedTotal = 0;
    std::uint64_t _idleObservationMismatches = 0;

    TimelineSeries _series;
};

/**
 * Fold per-server timelines into one fleet timeline: requests and
 * power sum, residency is core-weighted, p99 is pooled exactly from
 * the retained per-interval latencies (every part must have been
 * recorded with retainLatencies), transition maps merge. All parts
 * must share the same interval grid.
 */
TimelineSeries
foldTimelines(const std::vector<TimelineSeries> &parts);

/** @{ aw-timeline/3 rendering. The CSV column schema:
 *
 *   interval,t0_s,t1_s,requests,achieved_qps,power_w,p99_us,
 *   res_c0,res_c1,res_c1e,res_c6a,res_c6ae,res_c6,freq_ghz,
 *   temp_c,throttled_share
 *
 *  timelineCsv() prefixes the `# aw-timeline/3` schema line;
 *  timestamps are seconds relative to the series origin, numbers
 *  render with the schedule-independent "%.10g". */
std::string timelineCsvHeader();
std::string timelineCsvRow(const TimelineSeries &series,
                           const IntervalSample &sample);
std::string timelineCsv(const TimelineSeries &series);

/** JSON fragments ("[...]" arrays) reused by the sweep emitters. */
std::string timelineIntervalsJson(const TimelineSeries &series);
std::string timelineTransitionsJson(const TransitionAnalyzer &map);

/** A standalone JSON document for one series (awsim --timeline-json). */
std::string timelineJson(const TimelineSeries &series,
                         const std::string &label);
/** @} */

} // namespace aw::analysis

#endif // AW_ANALYSIS_SAMPLER_HH
