/**
 * @file
 * Extension: AgileWatts vs workload-aware idle management (Sec 8).
 * CARB-style request packing lengthens idle periods on spare cores
 * so legacy deep states become reachable -- at a queueing-latency
 * cost. AW attacks the same inefficiency in hardware: static
 * dispatch + C6A matches or beats packed power with none of the
 * tail-latency damage. The two compose, too (packing + AW).
 */

#include "bench_common.hh"

#include "analysis/table.hh"
#include "server/server_sim.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;
using namespace aw::server;
using cstate::CStateId;

void
reproduce()
{
    const auto profile = workload::WorkloadProfile::memcached();

    banner("Extension: management (packing) vs architecture (AW)");
    analysis::TableWriter t({"KQPS", "strategy", "C6-family res.",
                             "W/core", "avg lat (us)",
                             "p99 lat (us)"});
    struct Strategy
    {
        const char *label;
        ServerConfig cfg;
    };
    for (const double qps : {50e3, 100e3, 200e3}) {
        std::vector<Strategy> strategies;
        {
            ServerConfig s = ServerConfig::ntBaseline();
            strategies.push_back({"static + legacy", s});
        }
        {
            ServerConfig s = ServerConfig::ntBaseline();
            s.dispatch = DispatchPolicy::Packing;
            strategies.push_back({"packing + legacy", s});
        }
        {
            ServerConfig s = ServerConfig::ntAwNoC6NoC1e();
            strategies.push_back({"static + AW", s});
        }
        {
            ServerConfig s = ServerConfig::awBaseline();
            s.turboEnabled = false;
            s.dispatch = DispatchPolicy::Packing;
            strategies.push_back({"packing + AW", s});
        }
        for (auto &strat : strategies) {
            ServerSim srv(strat.cfg, profile, qps);
            const auto r =
                srv.run(sim::fromSec(0.8), sim::fromMs(80.0));
            const double deep =
                r.residency.shareOf(CStateId::C6) +
                r.residency.shareOf(CStateId::C6A) +
                r.residency.shareOf(CStateId::C6AE);
            t.addRow({analysis::cell("%.0f", qps / 1e3),
                      strat.label,
                      analysis::cell("%.1f%%", 100 * deep),
                      analysis::cell("%.3f", r.avgCorePower),
                      analysis::cell("%.1f", r.avgLatencyUs),
                      analysis::cell("%.1f", r.p99LatencyUs)});
        }
    }
    t.print();

    std::printf("\npacking buys legacy systems deep-state "
                "residency at a visible tail cost;\nAW reaches "
                "lower power with static dispatch and unimpaired "
                "latency, and still\ncomposes with packing for "
                "the final percent.\n");
}

} // namespace

AW_BENCH_MAIN(reproduce)
