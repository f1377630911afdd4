/**
 * @file
 * Streaming-telemetry observer interface.
 *
 * CoreSim/ServerSim publish their state changes (C-state entries,
 * power-level changes, request lifecycle milestones, governor idle
 * observations) through this null-by-default observer so that
 * time-resolved consumers -- the analysis::TimelineRecorder interval
 * sampler, the transition analyzer and the analysis::RequestTracer
 * span recorder -- can watch a run without touching the event
 * stream. The contract that keeps the golden byte-identity suites
 * valid with telemetry enabled:
 *
 *   - the observer is *passive*: callbacks must not schedule
 *     simulator events, draw from any simulation RNG, or mutate
 *     simulation state;
 *   - every hook site is a single `if (_observer)` branch, so the
 *     disabled path costs one predictable-not-taken test per event
 *     (perfbench's fleet days run with no observer, and
 *     scripts/perf_ab.sh times them against the parent commit);
 *   - all published quantities are piecewise-constant between
 *     events (states, power levels) or point events (completions,
 *     idle observations), so an observer can reconstruct exact
 *     time integrals from the callbacks alone.
 */

#ifndef AW_SERVER_TELEMETRY_HH
#define AW_SERVER_TELEMETRY_HH

#include <cstdint>
#include <vector>

#include "cstate/cstate.hh"
#include "power/units.hh"
#include "sim/types.hh"

namespace aw::server {

/**
 * Passive run observer. Every callback has an empty default so
 * implementations override only what they consume.
 */
class TelemetryObserver
{
  public:
    virtual ~TelemetryObserver() = default;

    /** The measured window begins at @p now (post-warmup stats
     *  reset). Cores re-announce their current state right after
     *  via onCStateEnter, so accumulators can restart cleanly. */
    virtual void onMeasurementStart(sim::Tick now) { (void)now; }

    /** The measured window ends at @p now. */
    virtual void onMeasurementEnd(sim::Tick now) { (void)now; }

    /** Core @p core's residency state becomes @p state at @p now
     *  (mirrors every ResidencyCounters::recordEnter, including the
     *  transition windows accounted as C0). */
    virtual void
    onCStateEnter(unsigned core, sim::Tick now, cstate::CStateId state)
    {
        (void)core;
        (void)now;
        (void)state;
    }

    /** Core @p core's power level becomes @p watts at @p now. */
    virtual void
    onCorePower(unsigned core, sim::Tick now, power::Watts watts)
    {
        (void)core;
        (void)now;
        (void)watts;
    }

    /** The package's uncore power level becomes @p watts at @p now. */
    virtual void onUncorePower(sim::Tick now, power::Watts watts)
    {
        (void)now;
        (void)watts;
    }

    /** Core @p core's DVFS operating point becomes @p hz at @p now.
     *  Announced once per core at measurement start (like
     *  onCStateEnter) and on every completed P-state ramp; turbo
     *  bursts are power events, not operating-point changes, and do
     *  not fire this. */
    virtual void onFreqChange(unsigned core, sim::Tick now, double hz)
    {
        (void)core;
        (void)now;
        (void)hz;
    }

    /** The server's junction temperature is @p celsius at @p now
     *  (published by the cap control loop every control interval;
     *  never fires while the cap/thermal subsystem is disabled, so
     *  consumers default the value to 0). */
    virtual void onTemperature(sim::Tick now, double celsius)
    {
        (void)now;
        (void)celsius;
    }

    /** The server's cap controller moved to a new throttle decision
     *  at @p now: ladder ceiling @p level_cap, forced-idle duty
     *  @p forced_idle_share, any-throttle flag @p throttled. Fires
     *  only on decision *changes* (piecewise-constant between
     *  calls) and never while the subsystem is disabled. */
    virtual void onCapThrottle(sim::Tick now, std::size_t level_cap,
                               double forced_idle_share,
                               bool throttled)
    {
        (void)now;
        (void)level_cap;
        (void)forced_idle_share;
        (void)throttled;
    }

    /** Core @p core begins an idle period at @p now (CoreSim
     *  beginIdle; promotions continue the same period). */
    virtual void onIdleStart(unsigned core, sim::Tick now)
    {
        (void)core;
        (void)now;
    }

    /** Core @p core's governor observed an ended idle period of
     *  length @p idle at @p now (the observeIdle feedback input;
     *  ground-truthed against onIdleStart by the recorder). */
    virtual void
    onIdleObserved(unsigned core, sim::Tick now, sim::Tick idle)
    {
        (void)core;
        (void)now;
        (void)idle;
    }

    /** @{ Request lifecycle. Requests are identified by
     *  (core, core-local id); ids are assigned in arrival order per
     *  core, so per-core streams are FIFO in id. The milestone
     *  sequence for one request is
     *
     *    onRequestArrival -> [onRequestDispatch] -> onServiceStart
     *      -> onComplete
     *
     *  with at most one onWakeStart/onWakeEnd episode per core
     *  overlapping the wait (a core never idles with queued work).
     *  onRequestDispatch fires only for centrally dispatched
     *  streams (packing, traces, fleet splits), at the same tick as
     *  the arrival but possibly after later same-tick milestones --
     *  consumers must correlate by id, not by callback order. */

    /** Request @p id arrived at core @p core's queue at @p now. */
    virtual void
    onRequestArrival(unsigned core, std::uint64_t id, sim::Tick now)
    {
        (void)core;
        (void)id;
        (void)now;
    }

    /** The server's central dispatcher routed request @p id to core
     *  @p core at @p now (same tick as its arrival). */
    virtual void
    onRequestDispatch(unsigned core, std::uint64_t id, sim::Tick now)
    {
        (void)core;
        (void)id;
        (void)now;
    }

    /** Core @p core begins waking from @p from at @p now. For a
     *  mispredicted entry (arrival mid-entry-flow) this fires when
     *  the wake becomes pending, so the episode covers the entry
     *  remainder -- including C6's cache-flush cost -- plus the
     *  exit flow. C0 polling wakes are instant and publish no
     *  episode. */
    virtual void
    onWakeStart(unsigned core, sim::Tick now, cstate::CStateId from)
    {
        (void)core;
        (void)now;
        (void)from;
    }

    /** Core @p core's wake episode completes at @p now; service of
     *  the queue head begins at the same tick. */
    virtual void onWakeEnd(unsigned core, sim::Tick now)
    {
        (void)core;
        (void)now;
    }

    /** Core @p core starts servicing request @p id at @p now. */
    virtual void
    onServiceStart(unsigned core, std::uint64_t id, sim::Tick now)
    {
        (void)core;
        (void)id;
        (void)now;
    }

    /** Core @p core completed request @p id at @p now with server
     *  latency @p latency_us (microseconds). */
    virtual void onComplete(unsigned core, std::uint64_t id,
                            sim::Tick now, double latency_us)
    {
        (void)core;
        (void)id;
        (void)now;
        (void)latency_us;
    }
    /** @} */
};

/**
 * Fan-out observer: forwards every callback to each attached sink,
 * in attachment order. ServerSim/FleetSim hold a single observer
 * pointer; this is how two passive consumers (say a timeline
 * sampler and a request tracer) watch the same run. Passivity
 * composes: a fanout over passive observers is itself passive.
 */
class TelemetryFanout final : public TelemetryObserver
{
  public:
    /** Attach @p sink (nullptr is ignored). Must outlive the run. */
    void add(TelemetryObserver *sink)
    {
        if (sink)
            _sinks.push_back(sink);
    }

    /** The observer to attach: nullptr with no sink, the sink itself
     *  when there is exactly one (it keeps its direct dispatch), or
     *  this fan-out. */
    TelemetryObserver *target()
    {
        if (_sinks.size() > 1)
            return this;
        return _sinks.empty() ? nullptr : _sinks.front();
    }

    void onMeasurementStart(sim::Tick now) override
    {
        for (auto *s : _sinks)
            s->onMeasurementStart(now);
    }
    void onMeasurementEnd(sim::Tick now) override
    {
        for (auto *s : _sinks)
            s->onMeasurementEnd(now);
    }
    void onCStateEnter(unsigned core, sim::Tick now,
                       cstate::CStateId state) override
    {
        for (auto *s : _sinks)
            s->onCStateEnter(core, now, state);
    }
    void onCorePower(unsigned core, sim::Tick now,
                     power::Watts watts) override
    {
        for (auto *s : _sinks)
            s->onCorePower(core, now, watts);
    }
    void onUncorePower(sim::Tick now, power::Watts watts) override
    {
        for (auto *s : _sinks)
            s->onUncorePower(now, watts);
    }
    void onFreqChange(unsigned core, sim::Tick now,
                      double hz) override
    {
        for (auto *s : _sinks)
            s->onFreqChange(core, now, hz);
    }
    void onTemperature(sim::Tick now, double celsius) override
    {
        for (auto *s : _sinks)
            s->onTemperature(now, celsius);
    }
    void onCapThrottle(sim::Tick now, std::size_t level_cap,
                       double forced_idle_share,
                       bool throttled) override
    {
        for (auto *s : _sinks)
            s->onCapThrottle(now, level_cap, forced_idle_share,
                             throttled);
    }
    void onIdleStart(unsigned core, sim::Tick now) override
    {
        for (auto *s : _sinks)
            s->onIdleStart(core, now);
    }
    void onIdleObserved(unsigned core, sim::Tick now,
                        sim::Tick idle) override
    {
        for (auto *s : _sinks)
            s->onIdleObserved(core, now, idle);
    }
    void onRequestArrival(unsigned core, std::uint64_t id,
                          sim::Tick now) override
    {
        for (auto *s : _sinks)
            s->onRequestArrival(core, id, now);
    }
    void onRequestDispatch(unsigned core, std::uint64_t id,
                           sim::Tick now) override
    {
        for (auto *s : _sinks)
            s->onRequestDispatch(core, id, now);
    }
    void onWakeStart(unsigned core, sim::Tick now,
                     cstate::CStateId from) override
    {
        for (auto *s : _sinks)
            s->onWakeStart(core, now, from);
    }
    void onWakeEnd(unsigned core, sim::Tick now) override
    {
        for (auto *s : _sinks)
            s->onWakeEnd(core, now);
    }
    void onServiceStart(unsigned core, std::uint64_t id,
                        sim::Tick now) override
    {
        for (auto *s : _sinks)
            s->onServiceStart(core, id, now);
    }
    void onComplete(unsigned core, std::uint64_t id, sim::Tick now,
                    double latency_us) override
    {
        for (auto *s : _sinks)
            s->onComplete(core, id, now, latency_us);
    }

  private:
    std::vector<TelemetryObserver *> _sinks;
};

} // namespace aw::server

#endif // AW_SERVER_TELEMETRY_HH
