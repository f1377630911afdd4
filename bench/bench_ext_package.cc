/**
 * @file
 * Extension: package C-states (the paper's footnote 1 / AgilePkgC
 * direction). With legacy core states, C1/C1E residency blocks the
 * package from ever qualifying for PC6; AW's C6A is a qualifying
 * deep state with C1-class latency, so the whole package can sleep
 * during the same idle periods -- compounding the core-level
 * savings with uncore savings.
 */

#include "bench_common.hh"

#include "analysis/table.hh"
#include "server/server_sim.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;
using namespace aw::server;

void
reproduce()
{
    const auto profile = workload::WorkloadProfile::memcached();

    banner("Extension: package C-state residency and power "
           "(PC6 hysteresis 200 us)");
    analysis::TableWriter t({"KQPS", "config", "PC0", "PC2", "PC6",
                             "uncore W", "pkg W"});
    for (const double qps : {2e3, 10e3, 50e3, 100e3}) {
        for (const bool aw_mode : {false, true}) {
            ServerConfig cfg = aw_mode
                                   ? ServerConfig::awBaseline()
                                   : ServerConfig::ntNoC6();
            cfg.packageCStatesEnabled = true;
            cfg.turboEnabled = false;
            ServerSim srv(cfg, profile, qps);
            const auto r =
                srv.run(sim::fromSec(1.0), sim::fromMs(100.0));
            t.addRow(
                {analysis::cell("%.0f", qps / 1e3), cfg.name,
                 analysis::cell("%.1f%%",
                                100 * r.pkgResidency[0]),
                 analysis::cell("%.1f%%",
                                100 * r.pkgResidency[1]),
                 analysis::cell("%.1f%%",
                                100 * r.pkgResidency[2]),
                 analysis::cell("%.2f", r.avgUncorePower),
                 analysis::cell("%.2f", r.packagePower)});
        }
    }
    t.print();

    std::printf("\nC1-family idle never qualifies for PC6; C6A "
                "does, so AW unlocks uncore savings\nthat grow as "
                "load drops (energy proportionality at the "
                "package level).\n");
}

} // namespace

AW_BENCH_MAIN(reproduce)
