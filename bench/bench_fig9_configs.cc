/**
 * @file
 * Fig 9 reproduction: the three tuned legacy configurations
 * (NT_Baseline, NT_No_C6, NT_No_C6,No_C1E) across the Memcached
 * rate sweep -- average latency, tail latency, package power and
 * C-state residency.
 *
 * The config x rate grid runs through exp::SweepRunner, so the 21
 * points execute in parallel and the tables below are just ordered
 * lookups into the folded SweepResult.
 */

#include "bench_common.hh"

#include <vector>

#include "analysis/table.hh"
#include "cstate/cstate.hh"
#include "exp/runner.hh"
#include "server/server_sim.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;
using cstate::CStateId;

void
reproduce()
{
    const auto profile = workload::WorkloadProfile::memcached();
    const auto &rates = profile.rateLevels();

    exp::ExperimentSpec spec;
    spec.name = "fig9-tuned-configs";
    spec.workloads = {"memcached"};
    spec.configs = {"nt_baseline", "nt_no_c6", "nt_no_c6_no_c1e"};
    spec.qps = rates;

    const auto sweep = exp::SweepRunner().run(spec);

    std::vector<std::string> pretty;
    for (const auto &c : spec.configs)
        pretty.push_back(exp::configByName(c).name);

    auto at = [&](std::size_t cfg_idx, double rate)
        -> const exp::PointResult & {
        return sweep.at({.config = spec.configs[cfg_idx],
                         .qps = rate});
    };

    banner("Fig 9(a): average latency (us)");
    analysis::TableWriter ta({"KQPS", pretty[0], pretty[1],
                              pretty[2]});
    for (const double rate : rates) {
        ta.addRow({analysis::cell("%.0f", rate / 1e3),
                   analysis::cell("%.1f", at(0, rate).avgLatencyUs),
                   analysis::cell("%.1f", at(1, rate).avgLatencyUs),
                   analysis::cell("%.1f",
                                  at(2, rate).avgLatencyUs)});
    }
    ta.print();

    banner("Fig 9(b): tail (p99) latency (us)");
    analysis::TableWriter tb({"KQPS", pretty[0], pretty[1],
                              pretty[2]});
    for (const double rate : rates) {
        tb.addRow({analysis::cell("%.0f", rate / 1e3),
                   analysis::cell("%.1f", at(0, rate).p99LatencyUs),
                   analysis::cell("%.1f", at(1, rate).p99LatencyUs),
                   analysis::cell("%.1f",
                                  at(2, rate).p99LatencyUs)});
    }
    tb.print();

    banner("Fig 9(c): package power (W)");
    analysis::TableWriter tpow({"KQPS", pretty[0], pretty[1],
                                pretty[2]});
    for (const double rate : rates) {
        tpow.addRow({analysis::cell("%.0f", rate / 1e3),
                     analysis::cell("%.1f", at(0, rate).powerW),
                     analysis::cell("%.1f", at(1, rate).powerW),
                     analysis::cell("%.1f", at(2, rate).powerW)});
    }
    tpow.print();

    banner("Fig 9(d): C-state residency (%) per config");
    analysis::TableWriter tres({"KQPS", "config", "C0", "C1",
                                "C1E", "C6"});
    for (const double rate : rates) {
        for (std::size_t c = 0; c < spec.configs.size(); ++c) {
            const auto &res = at(c, rate).residency;
            tres.addRow(
                {analysis::cell("%.0f", rate / 1e3), pretty[c],
                 analysis::cell("%.1f",
                                100 * res[cstate::index(CStateId::C0)]),
                 analysis::cell("%.1f",
                                100 * res[cstate::index(CStateId::C1)]),
                 analysis::cell("%.1f",
                                100 * res[cstate::index(CStateId::C1E)]),
                 analysis::cell("%.1f",
                                100 * res[cstate::index(CStateId::C6)])});
        }
    }
    tres.print();

    std::printf("\npaper shape: disabling C1E lowers latency "
                "(no 10 us transitions) but raises power\n(time "
                "moves to C1 at 1.44 W, ~63%% above C1E).\n");
}

} // namespace

AW_BENCH_MAIN(reproduce)
