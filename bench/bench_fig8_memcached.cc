/**
 * @file
 * Fig 8 reproduction (Memcached vs baseline: P-states disabled,
 * Turbo + C-states enabled):
 *  (a) baseline C-state residency vs request rate,
 *  (b) AW average-power reduction + avg/tail latency degradation,
 *  (c) worst-case vs expected-case response-time degradation,
 *  (d) performance scalability from 2.0 to 2.2 GHz.
 */

#include "bench_common.hh"

#include <algorithm>
#include <vector>

#include "analysis/power_model.hh"
#include "analysis/table.hh"
#include "server/server_sim.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;
using cstate::CStateId;

/** Measured Fig 8d scalability, filled by the (d) pass and used
 *  by the (b)/(c) analytical models, like the paper does. */
std::vector<double> scalability;

void
reproduce()
{
    const auto profile = workload::WorkloadProfile::memcached();
    const auto &rates = profile.rateLevels();

    // --- (d) performance scalability: 2.0 -> 2.2 GHz ------------
    banner("Fig 8(d): performance scalability (2.0 -> 2.2 GHz)");
    analysis::TableWriter td({"KQPS", "scalability"});
    for (const double qps : rates) {
        server::ServerConfig slow = server::ServerConfig::baseline();
        slow.turboEnabled = false;
        slow.pstates.base = sim::Frequency::ghz(2.0);
        server::ServerConfig fast = slow;
        fast.pstates.base = sim::Frequency::ghz(2.2);
        server::ServerSim s(slow, profile, qps);
        server::ServerSim f(fast, profile, qps);
        const auto rs = s.run();
        const auto rf = f.run();
        // Scalability: latency improvement per relative frequency
        // increase (how much of the +10% frequency shows up).
        const double gain = rs.avgLatencyUs / rf.avgLatencyUs - 1.0;
        const double sc = gain / (2.2 / 2.0 - 1.0);
        scalability.push_back(std::clamp(sc, 0.0, 1.0));
        td.addRow({analysis::cell("%.0f", qps / 1e3),
                   analysis::cell("%.0f%%",
                                  100 * scalability.back())});
    }
    td.print();

    // --- (a) residency + (b) power/latency -----------------------
    core::AwCoreModel aw_model;
    const analysis::CStatePowerModel model(
        server::StatePowers::fromModels(aw_model.ppa()));

    banner("Fig 8(a): baseline C-state residency (%)");
    analysis::TableWriter ta({"KQPS", "C0", "C1", "C1E", "C6"});

    std::vector<server::RunResult> base_runs, aw_runs;
    for (const double qps : rates) {
        server::ServerSim base(server::ServerConfig::baseline(),
                               profile, qps);
        base_runs.push_back(base.run());
        server::ServerSim agile(server::ServerConfig::awBaseline(),
                                profile, qps);
        aw_runs.push_back(agile.run());
    }

    for (std::size_t i = 0; i < rates.size(); ++i) {
        const auto &r = base_runs[i].residency;
        ta.addRow({analysis::cell("%.0f", rates[i] / 1e3),
                   analysis::cell("%.1f",
                                  100 * r.shareOf(CStateId::C0)),
                   analysis::cell("%.1f",
                                  100 * r.shareOf(CStateId::C1)),
                   analysis::cell("%.1f",
                                  100 * r.shareOf(CStateId::C1E)),
                   analysis::cell("%.1f",
                                  100 * r.shareOf(CStateId::C6))});
    }
    ta.print();

    banner("Fig 8(b): AW AvgP reduction and latency degradation");
    analysis::TableWriter tb({"KQPS", "AvgP red. (model)",
                              "AvgP red. (sim)", "avg lat deg.",
                              "tail lat deg."});
    double sum_model = 0.0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const auto &b = base_runs[i];
        const auto &a = aw_runs[i];
        const double est = model.awSavingsVsMeasured(
            b.residency, b.avgCorePower);
        sum_model += est;
        const double sim_red =
            1.0 - a.avgCorePower / b.avgCorePower;
        const double avg_deg =
            a.avgLatencyUs / b.avgLatencyUs - 1.0;
        const double tail_deg =
            a.p99LatencyUs / b.p99LatencyUs - 1.0;
        tb.addRow({analysis::cell("%.0f", rates[i] / 1e3),
                   analysis::cell("%.1f%%", 100 * est),
                   analysis::cell("%.1f%%", 100 * sim_red),
                   analysis::cell("%+.2f%%", 100 * avg_deg),
                   analysis::cell("%+.2f%%", 100 * tail_deg)});
    }
    tb.print();
    std::printf("\naverage model AvgP reduction: %.1f%% "
                "(paper Fig 8b avg: 23.5%%; up to 38%% at low "
                "load, ~10%% at 500 KQPS)\n",
                100 * sum_model / rates.size());

    banner("Fig 8(c): response-time degradation (worst vs expected "
           "case, server vs end-to-end)");
    analysis::TableWriter tc({"KQPS", "worst e2e", "worst server",
                              "expected e2e", "expected server"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const auto &b = base_runs[i];
        const auto d = analysis::awLatencyDegradation(
            b.avgLatencyUs,
            sim::toUs(profile.service().meanServiceTime()),
            sim::toUs(server::ServerConfig::baseline()
                          .networkLatency),
            scalability[i], b.transitionsPerRequest);
        tc.addRow({analysis::cell("%.0f", rates[i] / 1e3),
                   analysis::cell("%.3f%%",
                                  100 * d.worstCaseE2eFrac),
                   analysis::cell("%.3f%%",
                                  100 * d.worstCaseServerFrac),
                   analysis::cell("%.3f%%",
                                  100 * d.expectedE2eFrac),
                   analysis::cell("%.3f%%",
                                  100 * d.expectedServerFrac)});
    }
    tc.print();
    std::printf("\nend-to-end degradation is negligible: the "
                "117 us network latency dominates.\n");
}

} // namespace

AW_BENCH_MAIN(reproduce)
