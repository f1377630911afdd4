/**
 * @file
 * The C6A power-management-agent (PMA) controller: the finite state
 * machine of Fig 6 that orchestrates C6A/C6AE entry, exit and snoop
 * handling at nanosecond granularity.
 *
 * The FSM is clocked by the PMA clock (several hundred MHz in
 * modern SoCs; 500 MHz here) and sequences:
 *
 *   entry:  (1) clock-gate UFPG, keep PLL on   [2 cycles]
 *           (2) save context in place, gate    [4 cycles]
 *           (3) caches to sleep + clock-gate   [3 cycles]
 *   exit:   (4) cache wake + sleep exit        [2 cycles]
 *           (5) staggered power-ungate + Ret   [<70 ns + 1 cycle]
 *           (6) clock-ungate UFPG              [2 cycles]
 *   snoop:  (a) cache wake                     [2 cycles]
 *           (b) serve probes                   [cache model]
 *           (c) back to sleep                  [3 cycles]
 *
 * The controller both *computes* these latencies (for the analytical
 * models and Table 1) and *executes* the entry and exit flows as
 * discrete events with a phase trace. The snoop flow is only
 * computed: the server simulator charges its wake and re-sleep
 * latencies directly.
 */

#ifndef AW_CORE_PMA_HH
#define AW_CORE_PMA_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/ccsm.hh"
#include "core/ufpg.hh"
#include "cstate/transition.hh"
#include "power/power_gate.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace aw::core {

/** Phases of the C6A PMA state machine. */
enum class PmaPhase : std::uint8_t
{
    C0,              //!< core active
    EntryClockGate,  //!< Fig 6 step 1
    EntrySaveGate,   //!< Fig 6 step 2
    EntryCacheSleep, //!< Fig 6 step 3
    IdleC6a,         //!< resident in C6A/C6AE
    ExitCacheWake,   //!< Fig 6 step 4
    ExitUngate,      //!< Fig 6 step 5 (staggered)
    ExitClockUngate, //!< Fig 6 step 6
};

const char *name(PmaPhase p);

/**
 * The C6A/C6AE controller of one core.
 */
class C6aController
{
  public:
    /** PMA clock: modern SoC power-management controllers run at
     *  several hundred MHz to react at nanosecond scale. */
    static constexpr sim::Frequency kPmaClock =
        sim::Frequency(500e6);

    /** Number of staggered wake-up zones (Sec 5.3). */
    static constexpr std::size_t kWakeZones = 5;

    /** Additional PMA power while C6A machinery is present. */
    static constexpr power::Watts kControllerPower =
        power::milliwatts(5.0);

    /**
     * @param ufpg  the UFPG subsystem (provides the zone area ratio)
     * @param ccsm  the CCSM subsystem (cache sleep transitions)
     */
    C6aController(const Ufpg &ufpg, const Ccsm &ccsm);

    /** @{ Latency queries (hardware-only). */
    sim::Tick entryLatency() const;
    sim::Tick exitLatency() const;

    /** Entry + immediate exit: the paper's <100 ns claim. */
    sim::Tick
    roundTripLatency() const
    {
        return entryLatency() + exitLatency();
    }

    /** Time to make caches snoop-ready from C6A (step a). */
    sim::Tick snoopWakeLatency() const;

    /** Time to return to full C6A after serving snoops (step c). */
    sim::Tick snoopResleepLatency() const;

    /** Packaged latencies for the cstate transition engine;
     *  C6AE has identical hardware latency (the V/F ramp rides the
     *  non-blocking DVFS flow accounted in software). */
    cstate::AwHardwareLatencies awLatencies() const;
    /** @} */

    /** The staggered wake plan for the UFPG zones. */
    const power::StaggeredWakeupPlan &wakePlan() const
    {
        return _wakePlan;
    }

    /** @{ Event-driven execution with phase tracing. */
    struct PhaseRecord
    {
        PmaPhase phase;
        sim::Tick start;
        sim::Tick end;
    };

    /** Run the entry flow; @p done fires when C6A is reached. */
    void runEntry(sim::Simulator &simr, std::function<void()> done);

    /** Run the exit flow; @p done fires when C0 is reached. */
    void runExit(sim::Simulator &simr, std::function<void()> done);

    PmaPhase phase() const { return _phase; }
    const std::vector<PhaseRecord> &trace() const { return _trace; }
    void clearTrace() { _trace.clear(); }
    /** @} */

    const Ufpg &ufpg() const { return _ufpg; }
    const Ccsm &ccsm() const { return _ccsm; }

  private:
    /** Advance to @p next, recording the elapsed phase. */
    void advance(sim::Simulator &simr, PmaPhase next);

    /** Schedule the tail of a multi-phase flow. */
    void step(sim::Simulator &simr, PmaPhase current, sim::Tick dur,
              PmaPhase next, std::function<void()> cont);

    const Ufpg &_ufpg;
    const Ccsm &_ccsm;
    power::StaggeredWakeupPlan _wakePlan;
    PmaPhase _phase = PmaPhase::C0;
    sim::Tick _phaseStart = 0;
    std::vector<PhaseRecord> _trace;
};

} // namespace aw::core

#endif // AW_CORE_PMA_HH
