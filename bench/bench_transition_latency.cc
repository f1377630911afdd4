/**
 * @file
 * Sec 5.2 reproduction: C6A/C6AE entry (<20 ns), exit (<80 ns) and
 * round trip (<100 ns), the C6 breakdown of Sec 3, and the ~900x
 * speedup. The PMA FSM is executed event by event, not just
 * queried, so the numbers come out of the running state machine.
 */

#include "bench_common.hh"

#include "analysis/table.hh"
#include "core/aw_core.hh"
#include "cstate/transition.hh"
#include "sim/event_queue.hh"

namespace {

using namespace aw;

void
reproduce()
{
    core::AwCoreModel model;
    auto &ctl = model.controller();

    banner("Sec 5.2: C6A transition anatomy (PMA FSM executed "
           "event by event)");
    sim::Simulator simr;
    ctl.runEntry(simr, nullptr);
    simr.run();
    ctl.runExit(simr, nullptr);
    simr.run();

    analysis::TableWriter t({"phase", "duration (ns)"});
    for (const auto &rec : ctl.trace()) {
        if (rec.end == rec.start)
            continue;
        t.addRow({core::name(rec.phase),
                  analysis::cell("%.1f",
                                 sim::toNs(rec.end - rec.start))});
    }
    t.print();

    std::printf("\nentry %.1f ns (paper <20), exit %.1f ns "
                "(paper <80), round trip %.1f ns (paper <100)\n",
                sim::toNs(ctl.entryLatency()),
                sim::toNs(ctl.exitLatency()),
                sim::toNs(ctl.roundTripLatency()));

    banner("Sec 3: legacy C6 breakdown at 800 MHz, 50% dirty");
    model.caches().setDirtyFraction(0.5);
    auto engine = model.makeTransitionEngine();
    const auto freq = sim::Frequency::mhz(800.0);
    const auto in = engine.c6EntryBreakdown(freq);
    const auto out = engine.c6ExitBreakdown(freq);
    analysis::TableWriter c6({"step", "time (us)"});
    c6.addRow({"entry: flush L1/L2",
               analysis::cell("%.1f", sim::toUs(in.flush))});
    c6.addRow({"entry: save context to S/R SRAM",
               analysis::cell("%.1f", sim::toUs(in.contextSave))});
    c6.addRow({"entry: PG controller + flow",
               analysis::cell("%.1f", sim::toUs(in.controller))});
    c6.addRow({"exit: hw wake (ungate, PLL relock, reset)",
               analysis::cell("%.1f", sim::toUs(out.hwWake))});
    c6.addRow({"exit: restore context",
               analysis::cell("%.1f",
                              sim::toUs(out.contextRestore))});
    c6.addRow({"exit: microcode re-init",
               analysis::cell("%.1f",
                              sim::toUs(out.microcodeReinit))});
    c6.addRow({"exit: resume tail",
               analysis::cell("%.1f", sim::toUs(out.resumeTail))});
    c6.print();

    const auto c6lat = engine.latency(cstate::CStateId::C6, freq);
    const auto c6a_hw = engine.hardwareLatency(
        cstate::CStateId::C6A, sim::Frequency::ghz(2.2));
    std::printf("\nC6 total (sw+hw) %.0f us; speedup vs C6A "
                "hardware: %.0fx (paper: up to 900x)\n",
                sim::toUs(c6lat.total()),
                static_cast<double>(c6lat.total()) /
                    static_cast<double>(c6a_hw.total()));
}

} // namespace

AW_BENCH_MAIN(reproduce)
