#include "core/pma.hh"

#include "sim/logging.hh"

namespace aw::core {

const char *
name(PmaPhase p)
{
    switch (p) {
      case PmaPhase::C0: return "C0";
      case PmaPhase::EntryClockGate: return "entry.clock_gate";
      case PmaPhase::EntrySaveGate: return "entry.save_gate";
      case PmaPhase::EntryCacheSleep: return "entry.cache_sleep";
      case PmaPhase::IdleC6a: return "idle.c6a";
      case PmaPhase::ExitCacheWake: return "exit.cache_wake";
      case PmaPhase::ExitUngate: return "exit.ungate";
      case PmaPhase::ExitClockUngate: return "exit.clock_ungate";
      default: return "?";
    }
}

namespace {

/** Fig 6 step 1: clock-gating all domains takes 1-2 cycles in an
 *  optimized clock distribution; we model the conservative 2. */
constexpr std::uint64_t kClockGateCycles = 2;

/** Fig 6 step 6: clock-ungating, likewise 1-2 cycles. */
constexpr std::uint64_t kClockUngateCycles = 2;

} // namespace

C6aController::C6aController(const Ufpg &ufpg, const Ccsm &ccsm)
    : _ufpg(ufpg), _ccsm(ccsm),
      _wakePlan(power::StaggeredWakeupPlan::proportional(
          ufpg.inventory().ufpgToAvxAreaRatio(), kWakeZones))
{
    if (!_wakePlan.inrushWithinLimit()) {
        sim::panic("C6aController: wake plan exceeds the in-rush "
                   "envelope (peak %.3f of reference)",
                   _wakePlan.peakInrushRelToReference());
    }
}

sim::Tick
C6aController::entryLatency() const
{
    const std::uint64_t cycles = kClockGateCycles +
                                 Ufpg::kSaveCycles +
                                 Ccsm::kSleepEntryCycles;
    return kPmaClock.cycles(cycles);
}

sim::Tick
C6aController::exitLatency() const
{
    const std::uint64_t cycles = Ccsm::kSleepExitCycles +
                                 Ufpg::kRestoreCycles +
                                 kClockUngateCycles;
    return kPmaClock.cycles(cycles) + _wakePlan.totalWakeTime();
}

sim::Tick
C6aController::snoopWakeLatency() const
{
    return kPmaClock.cycles(Ccsm::kSleepExitCycles);
}

sim::Tick
C6aController::snoopResleepLatency() const
{
    return kPmaClock.cycles(Ccsm::kSleepEntryCycles);
}

cstate::AwHardwareLatencies
C6aController::awLatencies() const
{
    cstate::AwHardwareLatencies lat;
    lat.c6a.entry = entryLatency();
    lat.c6a.exit = exitLatency();
    // C6AE's extra V/F ramp is a non-blocking DVFS flow accounted
    // as software overhead by the TransitionEngine.
    lat.c6ae = lat.c6a;
    return lat;
}

void
C6aController::advance(sim::Simulator &simr, PmaPhase next)
{
    _trace.push_back(PhaseRecord{_phase, _phaseStart, simr.now()});
    _phase = next;
    _phaseStart = simr.now();
}

void
C6aController::step(sim::Simulator &simr, PmaPhase current,
                    sim::Tick dur, PmaPhase next,
                    std::function<void()> cont)
{
    if (_phase != current) {
        sim::panic("C6aController: expected phase %s, in %s",
                   name(current), name(_phase));
    }
    simr.scheduleIn(dur, [this, &simr, next,
                          cont = std::move(cont)]() mutable {
        advance(simr, next);
        if (cont)
            cont();
    });
}

void
C6aController::runEntry(sim::Simulator &simr,
                        std::function<void()> done)
{
    if (_phase != PmaPhase::C0)
        sim::panic("C6aController::runEntry from phase %s",
                   name(_phase));
    _phaseStart = simr.now();
    advance(simr, PmaPhase::EntryClockGate);
    step(simr, PmaPhase::EntryClockGate,
         kPmaClock.cycles(kClockGateCycles), PmaPhase::EntrySaveGate,
         [this, &simr, done = std::move(done)]() mutable {
        step(simr, PmaPhase::EntrySaveGate,
             kPmaClock.cycles(Ufpg::kSaveCycles),
             PmaPhase::EntryCacheSleep,
             [this, &simr, done = std::move(done)]() mutable {
            step(simr, PmaPhase::EntryCacheSleep,
                 kPmaClock.cycles(Ccsm::kSleepEntryCycles),
                 PmaPhase::IdleC6a, std::move(done));
        });
    });
}

void
C6aController::runExit(sim::Simulator &simr,
                       std::function<void()> done)
{
    if (_phase != PmaPhase::IdleC6a)
        sim::panic("C6aController::runExit from phase %s",
                   name(_phase));
    advance(simr, PmaPhase::ExitCacheWake);
    step(simr, PmaPhase::ExitCacheWake,
         kPmaClock.cycles(Ccsm::kSleepExitCycles),
         PmaPhase::ExitUngate,
         [this, &simr, done = std::move(done)]() mutable {
        const sim::Tick ungate =
            _wakePlan.totalWakeTime() +
            kPmaClock.cycles(Ufpg::kRestoreCycles);
        step(simr, PmaPhase::ExitUngate, ungate,
             PmaPhase::ExitClockUngate,
             [this, &simr, done = std::move(done)]() mutable {
            step(simr, PmaPhase::ExitClockUngate,
                 kPmaClock.cycles(kClockUngateCycles), PmaPhase::C0,
                 std::move(done));
        });
    });
}

} // namespace aw::core
