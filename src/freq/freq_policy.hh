/**
 * @file
 * The DVFS half of the governance story: a discretized P-state
 * ladder derived from the platform's PStateTable, and the abstract
 * frequency policy every cpufreq-style governor implements.
 *
 * The C-state side (PR 4) asked "how deep should an idle core
 * sleep"; this subsystem asks the dual question "how fast should a
 * busy core run". A FreqPolicy picks a ladder level per core --
 * either on a periodic re-evaluation tick fed with the measured
 * utilization of the last window (ondemand, conservative), or on
 * busy/idle edges (racetohalt), or never (performance, powersave).
 * CoreSim turns the chosen level into rescaled service rates,
 * active/boost powers and C-state transition latencies via per-level
 * tables ServerSim precomputes once per server, so the de-virtualized
 * fast path stays allocation-free.
 */

#ifndef AW_FREQ_FREQ_POLICY_HH
#define AW_FREQ_FREQ_POLICY_HH

#include <array>
#include <cstddef>
#include <memory>
#include <string>

#include "cstate/cstate.hh"
#include "power/units.hh"
#include "server/pstate.hh"
#include "sim/types.hh"

namespace aw::freq {

/** @{
 * Cost of moving the operating point between two ladder levels.
 * The ramp is dominated by the voltage-regulator slew and PLL
 * relock, not by the frequency distance, so one flat latency covers
 * any hop; the old level's rates and powers stay in force until the
 * ramp lands. The relock itself burns a fixed energy on top.
 */
constexpr sim::Tick kRampLatency = 8 * sim::kTicksPerUs;
constexpr power::Joules kRampEnergy = power::microjoules(2.0);
/** @} */

/**
 * The discrete DVFS operating points between Pn and P1.
 *
 * Real cpufreq exposes a table of ACPI P-states; we derive one by
 * evenly subdividing [minimum, base] from the platform PStateTable
 * into up to kMaxLevels points (level 0 = Pn, top = P1). Turbo is
 * not a ladder level: opportunistic boost above P1 stays the
 * TurboModel's job. Each level carries the unscaled C0 active power
 * from a cubic fit P(f) = a*f^3 + b anchored on the Table 1 points
 * (Pn: 0.8 GHz / 1 W, P1: 2.2 GHz / 4 W). The endpoints are pinned
 * to the table itself, so level 0 is exactly Pn at 1 W and top() is
 * exactly P1 at 4 W for any table, whatever rounding the
 * subdivision and the fit leave in between.
 */
class PStateLadder
{
  public:
    static constexpr std::size_t kMaxLevels = 8;

    explicit PStateLadder(const server::PStateTable &table)
    {
        const double fmin = table.minimum.gigahertz();
        const double fbase = table.base.gigahertz();
        _count = fbase > fmin ? kMaxLevels : 1;
        // Cubic dynamic-power fit through the two Table 1 anchors;
        // degenerate tables (min == base) pin the base point.
        const double a =
            _count > 1 ? (cstate::kC0PowerP1 - cstate::kC0PowerPn) /
                             (fbase * fbase * fbase -
                              fmin * fmin * fmin)
                       : 0.0;
        const double b = cstate::kC0PowerP1 - a * fbase * fbase * fbase;
        for (std::size_t i = 0; i < _count; ++i) {
            const double f =
                _count > 1 ? fmin + (fbase - fmin) *
                                        static_cast<double>(i) /
                                        static_cast<double>(_count - 1)
                           : fbase;
            _freq[i] = sim::Frequency::ghz(f);
            _power[i] = a * f * f * f + b;
        }
        _freq[0] = table.minimum;
        _power[0] = cstate::kC0PowerPn;
        _freq[top()] = table.base;
        _power[top()] = cstate::kC0PowerP1;
    }

    std::size_t count() const { return _count; }
    std::size_t top() const { return _count - 1; }

    /** Operating frequency of @p level (0 = Pn, top() = P1). */
    sim::Frequency frequency(std::size_t level) const
    {
        return _freq[level];
    }

    /** Unscaled C0 active power at @p level (watts). */
    power::Watts activePower(std::size_t level) const
    {
        return _power[level];
    }

    /** Lowest level running at least @p f; top() when none does. */
    std::size_t levelAtOrAbove(sim::Frequency f) const
    {
        for (std::size_t i = 0; i < _count; ++i)
            if (_freq[i].hz() >= f.hz() * (1.0 - 1e-12))
                return i;
        return top();
    }

  private:
    std::size_t _count = 1;
    std::array<sim::Frequency, kMaxLevels> _freq{};
    std::array<power::Watts, kMaxLevels> _power{};
};

/**
 * Abstract per-core frequency governor.
 *
 * Mirrors cstate::GovernorPolicy: ServerSim builds and validates ONE
 * prototype per server from the config's spec string, then clone()s
 * it per core so every core carries independent policy state.
 * Policies are consulted two ways:
 *
 *  - evalInterval() > 0: CoreSim schedules a repeating re-evaluation
 *    event and calls select() with the busy-time fraction of the
 *    window that just closed.
 *  - observe() fires on every busy/idle edge (request service
 *    starting on an idle core, or the queue draining); edge-driven
 *    policies like racetohalt return a new level from it and keep
 *    evalInterval() at 0, adding zero events to the kernel.
 *
 * The level a policy returns is a *request*: CoreSim clamps it to
 * the LatencyQoS frequency floor and applies it only after the
 * kRampLatency voltage ramp.
 */
class FreqPolicy
{
  public:
    explicit FreqPolicy(PStateLadder ladder) : _ladder(ladder) {}
    virtual ~FreqPolicy() = default;

    /** The registry spec string that rebuilds this policy. */
    virtual std::string spec() const = 0;

    /**
     * Desired ladder level given @p load, the busy-time fraction
     * (in [0, 1]) of the evaluation window ending at @p now. Also
     * called once at construction time (now = 0, load = 0) to set
     * the initial operating point.
     */
    virtual std::size_t select(sim::Tick now, double load) = 0;

    /**
     * Busy/idle edge: the core just started serving (@p busy true)
     * or ran out of work (@p busy false). Returns the desired level
     * after the edge; the default keeps @p current.
     */
    virtual std::size_t observe(sim::Tick now, bool busy,
                                std::size_t current)
    {
        (void)now;
        (void)busy;
        return current;
    }

    /** Forget accumulated state (measurement-window boundaries). */
    virtual void reset() {}

    /** Fresh per-core copy with independent state. */
    virtual std::unique_ptr<FreqPolicy> clone() const = 0;

    /** Re-evaluation period; 0 = edge-driven only (no events). */
    virtual sim::Tick evalInterval() const { return 0; }

    const PStateLadder &ladder() const { return _ladder; }

  protected:
    PStateLadder _ladder;
};

} // namespace aw::freq

#endif // AW_FREQ_FREQ_POLICY_HH
