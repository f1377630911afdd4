/**
 * @file
 * The whole-server simulation: N cores fed by open-loop request
 * streams, aggregated into the statistics the paper's figures plot.
 */

#ifndef AW_SERVER_SERVER_SIM_HH
#define AW_SERVER_SERVER_SIM_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cap/powercap.hh"
#include "core/aw_core.hh"
#include "cstate/residency.hh"
#include "server/config.hh"
#include "server/core_sim.hh"
#include "server/telemetry.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "workload/profiles.hh"

namespace aw::server {

/**
 * Results of one server run.
 */
struct RunResult
{
    std::string configName;
    std::string workloadName;
    double offeredQps = 0.0;

    /** Aggregate C-state residency (core-time weighted). */
    cstate::ResidencySnapshot residency;

    /** @{ Latency statistics (microseconds). */
    double avgLatencyUs = 0.0;
    double p99LatencyUs = 0.0;
    double p999LatencyUs = 0.0;
    double avgLatencyE2eUs = 0.0;
    double p99LatencyE2eUs = 0.0;
    /** @} */

    /** @{ Power/energy over the measurement window. */
    power::Watts avgCorePower = 0.0;  //!< mean over cores
    power::Watts packagePower = 0.0;  //!< cores + uncore
    power::Joules coreEnergy = 0.0;   //!< all cores
    /** @} */

    std::uint64_t requests = 0;
    double achievedQps = 0.0;
    std::uint64_t mispredictedEntries = 0;

    /** Kernel events executed over the whole run (warmup included;
     *  diagnostics/perf-telemetry only -- never part of artifact
     *  schemas, which must not depend on kernel internals). */
    std::uint64_t events = 0;

    /** Mean idle-state transitions per request (Fig 8c expected-
     *  case input). */
    double transitionsPerRequest = 0.0;

    /** @{ DVFS governance accounting over the measured window: the
     *  number of completed P-state ramps across all cores and the
     *  fixed relock energy they were charged (already inside
     *  coreEnergy). Both are zero for a pinned level (no frequency
     *  governor, no cap). */
    std::uint64_t freqTransitions = 0;
    power::Joules freqTransitionEnergyJ = 0.0;
    /** @} */

    /** @{ Power-cap / thermal accounting over the measured window
     *  (all zero while the subsystem is disabled): share of the
     *  window any throttle was in effect, forced-idle naps across
     *  all cores, and the peak junction temperature (0 when the
     *  thermal model is off). */
    double capThrottleShare = 0.0;
    std::uint64_t forcedIdleNaps = 0;
    double maxTempC = 0.0;
    /** @} */

    /** Package C-state residency shares (all zero when the package
     *  hierarchy is disabled; PC0 then covers the whole window). */
    std::array<double, kNumPkgCStates> pkgResidency{};

    /** Average uncore power over the window. */
    power::Watts avgUncorePower = 0.0;

    sim::Tick window = 0;
};

/**
 * Driver: builds cores, runs warmup + measurement, aggregates.
 */
class ServerSim
{
  public:
    /**
     * @param cfg        server configuration
     * @param profile    workload
     * @param total_qps  offered load across all cores
     */
    ServerSim(ServerConfig cfg, workload::WorkloadProfile profile,
              double total_qps);

    /**
     * Drive the server from an externally supplied arrival stream
     * (a captured trace, a diurnal-shaped process, or a fleet load
     * balancer's per-server split) instead of the profile's
     * synthetic generators. Requests are dispatched centrally:
     * round-robin across cores under Static dispatch, or via the
     * packing policy when the config selects Packing.
     */
    ServerSim(ServerConfig cfg, workload::WorkloadProfile profile,
              std::unique_ptr<workload::ArrivalProcess> arrivals);

    /**
     * Run @p warmup of unmeasured time followed by @p duration of
     * measured time: exactly begin(), then finish().
     */
    RunResult run(sim::Tick duration, sim::Tick warmup);

    /**
     * @{ run() in pieces. begin() arms the run: it starts the cores
     * and draws the first arrival gap. advanceTo(t) fires every
     * event due at or before @p t (clamped to the end of the
     * measured window), crossing the warmup reset exactly where
     * run() does. finish() runs to the end of the window and
     * aggregates. Events fire in the same (when, seq) order however
     * the run is cut, so every result, sample and observer callback
     * is the one run() gives. An appendable arrival stream
     * (workload::GapStream) must hold every gap a dispatch at or
     * before @p t draws, i.e. @p t must stay below its last known
     * arrival until the stream is closed.
     */
    void begin(sim::Tick duration, sim::Tick warmup);
    void advanceTo(sim::Tick t);
    RunResult finish();
    /** @} */

    /** Convenience: run with defaults sized to the offered rate. */
    RunResult run();

    /** The tables every core of a server with the SLO-resolved
     *  @p cfg runs on, derived in one pass over @p ladder (per-level
     *  frequency, latencies and active power, plus the QoS floor).
     *  buildCores calls it once per server. */
    static OperatingPoints
    operatingPoints(const ServerConfig &cfg,
                    const freq::PStateLadder &ladder,
                    const workload::WorkloadProfile &profile,
                    const core::AwCoreModel &aw);

    const ServerConfig &config() const { return _cfg; }

    /** Kernel events executed so far (perf telemetry). */
    std::uint64_t eventsExecuted() const
    {
        return _sim.eventsExecuted();
    }

    /** Per-request latency samples of the last measured window;
     *  fleet aggregation takes exact global percentiles over every
     *  server's sorted samples. */
    const sim::PercentileTracker &latencySamples() const
    {
        return _latency;
    }

    /** Attach a passive telemetry observer (see server/telemetry.hh)
     *  to this server and every core. Call before run(); nullptr
     *  detaches. The observer never perturbs the event stream, so
     *  results are byte-identical with or without one. */
    void setObserver(TelemetryObserver *observer);

    /**
     * Fleet budget redistribution: extend the piecewise-constant
     * schedule that replaces the constant cfg.cap.capWatts budget
     * (ascending start times; each span holds until the next). The
     * balancer computes these at epoch boundaries from its own
     * routed-demand counts, so they are a pure function of the
     * serial balancer pass. A span must be appended before the run
     * advances to its start; requires the cap subsystem enabled.
     */
    void appendCapSpans(std::span<const cap::BudgetSpan> spans);

  private:
    /** Shared constructor body: validate and build the cores. */
    void buildCores(double per_core_rate);

    /** Reset every statistic at the end of warmup. */
    void startMeasurement();

    /** @{ Power-cap control loop (armed only when cfg.cap is
     *  enabled): every control interval, read the package meters,
     *  advance the RC thermal model, step the controller and apply
     *  its decision to every core. */
    void scheduleCapControl();
    void onCapControl();
    /** @} */

    /** Central dispatch: route one request and draw the next. */
    void scheduleNextDispatch();
    std::size_t pickPackingTarget();

    /**
     * Re-evaluate the package C-state after core @p changed moved.
     * Package qualification is tracked incrementally: only the
     * changed core's idle/deep contribution is recomputed, so the
     * per-event cost is O(1) instead of a scan over every core.
     */
    void onCoreStateChange(std::size_t changed);

    ServerConfig _cfg;
    workload::WorkloadProfile _profile;
    double _totalQps;

    sim::Simulator _sim;
    OperatingPoints _points; //!< shared by every core
    std::vector<std::unique_ptr<CoreSim>> _cores;
    sim::PercentileTracker _latency;

    /** @{ Per-core package-qualification flags + population counts
     *  (idle = Mode::Idle in a real idle state; deep = additionally
     *  qualifies for PC6), maintained by onCoreStateChange. */
    std::vector<std::uint8_t> _coreIdle;
    std::vector<std::uint8_t> _coreDeep;
    unsigned _numIdle = 0;
    unsigned _numDeep = 0;
    /** @} */

    /** Central dispatcher state (Packing policy or an external
     *  arrival stream). */
    std::unique_ptr<workload::ArrivalProcess> _dispatchArrivals;
    sim::Rng _dispatchRng{1};
    std::uint64_t _nextDispatchId = 0;
    std::size_t _rrNext = 0; //!< round-robin cursor (Static dispatch)
    /** offeredQps is the stream's rate at finish(): an appendable
     *  stream's rate covers every gap it was given, not the ones it
     *  held at construction. */
    bool _externalArrivals = false;

    /** @{ The run in progress (begin/advanceTo/finish). */
    sim::Tick _warmupEnd = 0;
    sim::Tick _end = 0;
    bool _measuring = false;
    /** @} */

    /** Package C-state machinery. */
    PackageCStateModel _package;
    power::EnergyMeter _uncoreMeter;
    sim::EventId _pkgPromotion = sim::kInvalidEventId;
    sim::Tick _statsStart = 0;

    /** @{ Power-cap / thermal machinery (null while disabled). */
    std::unique_ptr<cap::PowerCapController> _capCtl;
    std::unique_ptr<cap::RcThermalModel> _thermal;
    std::vector<cap::BudgetSpan> _capSchedule;
    std::size_t _capSpan = 0;
    cap::ThrottleDecision _capDecision;
    power::Joules _capLastEnergy = 0.0;
    sim::Tick _capLastTick = 0;
    sim::Tick _capThrottledTicks = 0;
    sim::Tick _capThrottleSince = 0;
    bool _capThrottledNow = false;
    double _maxTempC = 0.0;
    /** @} */

    TelemetryObserver *_observer = nullptr;
};

/**
 * Sweep helper: run the same workload/config pair across the
 * profile's rate levels.
 */
std::vector<RunResult>
sweepRates(const ServerConfig &cfg,
           const workload::WorkloadProfile &profile,
           const std::vector<double> &rates_qps,
           sim::Tick duration = 0, sim::Tick warmup = 0);

} // namespace aw::server

#endif // AW_SERVER_SERVER_SIM_HH
