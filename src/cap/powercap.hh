/**
 * @file
 * Power capping and thermal coupling: a RAPL-style package power-cap
 * controller, a first-order RC thermal model, and the fleet budget
 * planner that redistributes headroom between servers at epoch
 * boundaries.
 *
 * Production datacenters oversubscribe power: the provisioned budget
 * is below the fleet's peak draw, and RAPL package caps plus thermal
 * throttling keep the installation safe. This module supplies the
 * *policy* half of that machinery as pure computational classes --
 * no simulator events, no RNG draws -- so the enforcement sites
 * (CoreSim's operating-point clamp and forced-idle injection,
 * ServerSim's periodic control loop, FleetSim's epoch budgets) stay
 * trivially deterministic and unit-testable in isolation.
 *
 * Enforcement model (docs/POWERCAP.md):
 *
 *  - The controller outputs a single *throttle index*. Indices
 *    1..L-1 clamp the DVFS operating point down the existing
 *    freq::PStateLadder (L levels), exactly like RAPL's frequency
 *    clipping; indices beyond the ladder floor additionally inject
 *    forced idle in duty-cycle quanta of 1/kIdleSteps
 *    (intel_powerclamp-style), with the core napping in its deepest
 *    enabled state.
 *  - Precedence is cap -> QoS -> governor: the cap ceiling is a
 *    safety limit and overrides the LatencyQoS frequency floor,
 *    which in turn bounds the frequency governor's request.
 *  - Forced idle is what makes the paper's headline: resuming from
 *    a nap costs a full wake from the deepest enabled state --
 *    ~100 us out of legacy C6, sub-microsecond out of C6A -- so an
 *    AgileWatts fleet absorbs throttle-forced idle almost for free
 *    and sustains a materially tighter cap at equal p99.
 */

#ifndef AW_CAP_POWERCAP_HH
#define AW_CAP_POWERCAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "power/units.hh"
#include "sim/types.hh"

namespace aw::cap {

/**
 * First-order (one pole) RC thermal parameters of one server's hot
 * spot: junction temperature above chassis ambient through a single
 * thermal resistance, with the die + spreader heat capacity setting
 * the time constant (tau = R * C). Idiom reference:
 * drivers/thermal/devfreq_cooling.c's simple power->temperature
 * coupling.
 */
struct ThermalParams
{
    /** Chassis inlet temperature (deg C). */
    double ambientC = 45.0;

    /** Junction-to-ambient thermal resistance (deg C per W). */
    double resistanceCPerW = 0.6;

    /** Effective heat capacity (J per deg C); tau = R * C. */
    double capacitanceJPerC = 1.0;

    /** Throttle trip point (deg C): at or above, the controller is
     *  forced to escalate regardless of the watt budget. */
    double tripC = 85.0;

    /** Release point (deg C): the trip latches until the
     *  temperature falls back to or below this (hysteresis). */
    double releaseC = 82.0;
};

/**
 * Integrates junction temperature from a piecewise-constant power
 * trace: dT/dt = (P - (T - Tamb) / R) / C, advanced in closed form
 * per interval (exact for constant P), so the result is independent
 * of how often the control loop samples.
 */
class RcThermalModel
{
  public:
    explicit RcThermalModel(const ThermalParams &params,
                            sim::Tick start = 0);

    /** Advance to @p now charging @p watts since the last call;
     *  returns the new temperature (deg C). */
    double advance(sim::Tick now, power::Watts watts);

    double temperature() const { return _tempC; }

    /** Steady-state temperature at a constant @p watts. */
    double steadyStateC(power::Watts watts) const
    {
        return _params.ambientC + watts * _params.resistanceCPerW;
    }

  private:
    ThermalParams _params;
    double _tempC;
    sim::Tick _last;
};

/**
 * Cap + thermal knobs of one server (ServerConfig::cap). All
 * defaults keep the subsystem fully disabled: no control events are
 * scheduled, no core's level moves, and every artifact stays
 * byte-identical to a build without the subsystem.
 */
struct CapConfig
{
    /** Package power budget in watts; 0 = uncapped. */
    power::Watts capWatts = 0.0;

    /** Control-loop sampling interval (RAPL windows are ~1 ms). */
    sim::Tick controlInterval = sim::fromUs(500.0);

    /** Release band: the controller steps back toward full speed
     *  only once measured power is below budget * (1 - hysteresis),
     *  so it does not oscillate across the budget line. */
    double hysteresis = 0.05;

    /** Forced-idle duty-cycle window: a nap of duty * period is
     *  injected at most once per period and per service boundary. */
    sim::Tick napPeriod = sim::fromMs(1.0);

    /** Couple the RC thermal model; trips feed the same throttle
     *  ladder as budget overshoot. */
    bool thermalEnabled = false;
    ThermalParams thermal;

    /** True when any enforcement machinery must be armed. */
    bool enabled() const { return capWatts > 0.0 || thermalEnabled; }

    /** Die (sim::fatal) on non-physical parameters. */
    void validate() const;
};

/**
 * One throttle decision, already mapped onto the enforcement
 * mechanisms: clamp the ladder at @p levelCap, and nap for
 * forcedIdleShare of each nap window.
 */
struct ThrottleDecision
{
    /** Ladder-level ceiling (ladder top = unclamped). */
    std::size_t levelCap = 0;

    /** Forced-idle duty share in [0, (kIdleSteps-1)/kIdleSteps]. */
    double forcedIdleShare = 0.0;

    /** Any throttling in effect (levelCap below top or naps). */
    bool throttled = false;

    bool operator==(const ThrottleDecision &o) const
    {
        return levelCap == o.levelCap &&
               forcedIdleShare == o.forcedIdleShare &&
               throttled == o.throttled;
    }
    bool operator!=(const ThrottleDecision &o) const
    {
        return !(*this == o);
    }
};

/**
 * RAPL-style stepping controller: one throttle index walked up when
 * the measured interval power overshoots the budget (or the thermal
 * trip latches), down when it is comfortably below. Indices map to
 * ladder clamps first, forced-idle duty beyond the ladder floor --
 * the same escalation order RAPL + intel_powerclamp implement.
 *
 * Pure policy: step() touches no simulator state, so one controller
 * instance per server keeps fleet runs bit-identical at any thread
 * count.
 */
class PowerCapController
{
  public:
    /** Forced-idle duty quanta per nap window (duty k/kIdleSteps,
     *  k in 1..kIdleSteps-1, on top of a floor-clamped ladder). */
    static constexpr unsigned kIdleSteps = 8;

    /**
     * @param cfg           validated cap knobs
     * @param ladder_levels freq::PStateLadder::count() of the
     *                      server's ladder (>= 1)
     */
    PowerCapController(const CapConfig &cfg,
                       std::size_t ladder_levels);

    /** Feed one control-interval sample; @p temperature_c is
     *  ignored unless thermal coupling is enabled. */
    ThrottleDecision step(power::Watts measured,
                          double temperature_c);

    /** Current decision without advancing the controller. */
    ThrottleDecision decision() const { return map(_index); }

    /** Fleet redistribution: replace the watt budget (takes effect
     *  at the next step()). Keeps the thermal latch. */
    void setBudget(power::Watts watts) { _budget = watts; }
    power::Watts budget() const { return _budget; }

    std::size_t throttleIndex() const { return _index; }
    std::size_t maxThrottleIndex() const { return _maxIndex; }
    bool thermalTripped() const { return _tripped; }

  private:
    ThrottleDecision map(std::size_t index) const;

    CapConfig _cfg;
    std::size_t _top;      //!< ladder top level (count - 1)
    std::size_t _maxIndex; //!< _top ladder steps + duty quanta
    std::size_t _index = 0;
    power::Watts _budget = 0.0;
    bool _tripped = false;
};

/** One breakpoint of a per-server budget schedule: @p watts applies
 *  from @p start until the next span (or the end of the run). */
struct BudgetSpan
{
    sim::Tick start = 0;
    power::Watts watts = 0.0;
};

/**
 * Fleet budget redistributor. The fleet's total budget is
 * servers * capWatts; every server keeps a kBaseShare floor of its
 * nominal cap, and the pooled remainder is dealt out proportionally
 * to each server's routed-request share of the *previous* epoch.
 * The load balancer computes this at epoch boundaries from its own
 * routing counts -- never from live server state -- so per-server
 * budget schedules are a pure function of the serial balancer pass
 * and fleet artifacts stay bit-identical at any fleetThreads.
 *
 * Servers with no routed requests in an epoch (including
 * never-routed spares) all receive the identical base budget, which
 * is what keeps the homogeneous-idle fast path valid: one idle
 * reference run still stands in for every spare.
 */
class FleetBudgetPlanner
{
  public:
    /** Fraction of the nominal per-server cap a server always
     *  keeps; the rest is the redistributable pool. */
    static constexpr double kBaseShare = 0.6;

    FleetBudgetPlanner(power::Watts per_server_watts,
                       std::size_t servers);

    power::Watts baseWatts() const { return _base; }
    power::Watts nominalWatts() const { return _nominal; }

    /**
     * Budgets for the epoch following one with per-server routed
     * counts @p routed. Zero total demand parks every server at the
     * base budget. Sum of budgets == servers * nominal when any
     * demand exists (conservation; pinned in test_cap).
     */
    std::vector<power::Watts>
    epochBudgets(const std::vector<std::uint64_t> &routed) const;

  private:
    power::Watts _nominal;
    power::Watts _base;
    std::size_t _servers;
};

} // namespace aw::cap

#endif // AW_CAP_POWERCAP_HH
