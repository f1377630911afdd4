/**
 * @file
 * Extension: race-to-halt vs pace-to-idle (Sec 8). The classic
 * energy argument against racing is that the idle state you halt
 * into isn't cheap enough; C6A changes that calculus. Compare:
 *   pace:  run at Pn (0.8 GHz, ~1 W active), idle in C1
 *   race:  run at P1 (2.2 GHz, ~4 W active), idle in C1
 *   race+AW: run at P1, idle in C6A
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

    banner("Extension: race-to-halt with C6A");
    analysis::TableWriter t({"KQPS", "strategy", "W/core",
                             "uJ/request", "avg lat (us)",
                             "p99 lat (us)"});
    for (const double qps : {20e3, 100e3, 200e3}) {
        struct Strategy
        {
            const char *label;
            ServerConfig cfg;
        };
        std::vector<Strategy> strategies;
        {
            ServerConfig pace = ServerConfig::ntNoC6NoC1e();
            pace.runAtPn = true;
            strategies.push_back({"pace (Pn, C1)", pace});
        }
        strategies.push_back(
            {"race (P1, C1)", ServerConfig::ntNoC6NoC1e()});
        strategies.push_back(
            {"race (P1, C6A)", ServerConfig::ntAwNoC6NoC1e()});

        for (auto &strat : strategies) {
            ServerSim srv(strat.cfg, profile, qps);
            const auto r =
                srv.run(sim::fromSec(0.8), sim::fromMs(80.0));
            const double uj_per_req =
                r.requests > 0
                    ? r.coreEnergy / r.requests * 1e6
                    : 0.0;
            t.addRow({analysis::cell("%.0f", qps / 1e3),
                      strat.label,
                      analysis::cell("%.3f", r.avgCorePower),
                      analysis::cell("%.1f", uj_per_req),
                      analysis::cell("%.1f", r.avgLatencyUs),
                      analysis::cell("%.1f", r.p99LatencyUs)});
        }
    }
    t.print();

    std::printf("\nwith only C1 to halt into, pacing at Pn wins "
                "energy-per-request; once C6A\nexists, racing at "
                "P1 wins both energy AND latency -- the Sec 8 "
                "observation that\nAW makes race-to-halt "
                "attractive again.\n");
}

} // namespace

AW_BENCH_MAIN(reproduce)
