/**
 * @file
 * Fig 10 reproduction: AW power and latency reduction over the
 * three tuned configurations (paper averages: 23.5% / 28.6% /
 * 35.3% power reduction; latency reduced up to 5%/26% vs
 * NT_Baseline and within 1% of NT_No_C6,No_C1E).
 */

#include "bench_common.hh"

#include <vector>

#include "analysis/table.hh"
#include "server/server_sim.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;

void
reproduce()
{
    const auto profile = workload::WorkloadProfile::memcached();
    const auto &rates = profile.rateLevels();

    const std::vector<server::ServerConfig> tuned = {
        server::ServerConfig::ntBaseline(),
        server::ServerConfig::ntNoC6(),
        server::ServerConfig::ntNoC6NoC1e(),
    };
    const auto aw_runs = server::sweepRates(
        server::ServerConfig::ntAwNoC6NoC1e(), profile, rates);

    banner("Fig 10: AW reduction over the tuned configurations");
    analysis::TableWriter t({"KQPS", "vs config", "AvgP red.",
                             "avg lat red.", "tail lat red."});
    std::vector<double> avg_power_red(tuned.size(), 0.0);
    for (std::size_t c = 0; c < tuned.size(); ++c) {
        const auto runs =
            server::sweepRates(tuned[c], profile, rates);
        for (std::size_t i = 0; i < rates.size(); ++i) {
            const double pred = 1.0 - aw_runs[i].avgCorePower /
                                          runs[i].avgCorePower;
            const double lred = 1.0 - aw_runs[i].avgLatencyUs /
                                          runs[i].avgLatencyUs;
            const double tred = 1.0 - aw_runs[i].p99LatencyUs /
                                          runs[i].p99LatencyUs;
            avg_power_red[c] += pred / rates.size();
            t.addRow({analysis::cell("%.0f", rates[i] / 1e3),
                      tuned[c].name,
                      analysis::cell("%.1f%%", 100 * pred),
                      analysis::cell("%+.1f%%", 100 * lred),
                      analysis::cell("%+.1f%%", 100 * tred)});
        }
    }
    t.print();

    std::printf("\naverage AvgP reduction: %.1f%% vs %s, %.1f%% "
                "vs %s, %.1f%% vs %s\n(paper: 23.5%% / 28.6%% / "
                "35.3%%)\n",
                100 * avg_power_red[0], tuned[0].name.c_str(),
                100 * avg_power_red[1], tuned[1].name.c_str(),
                100 * avg_power_red[2], tuned[2].name.c_str());
}

} // namespace

AW_BENCH_MAIN(reproduce)
