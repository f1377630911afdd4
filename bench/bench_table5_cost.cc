/**
 * @file
 * Table 5 reproduction: AW yearly cost savings (in $M) per 100K
 * servers running Memcached across the QPS sweep.
 */

#include "bench_common.hh"

#include "analysis/cost_model.hh"
#include "analysis/table.hh"
#include "server/server_sim.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;

void
reproduce()
{
    const auto profile = workload::WorkloadProfile::memcached();
    const analysis::CostModel cost; // $0.125/kWh, PUE 1, 100K srv

    banner("Table 5: AW yearly cost savings ($M) per 100K servers "
           "(Memcached)");
    analysis::TableWriter t({"QPS", "Baseline W/CPU", "AW W/CPU",
                             "Savings ($M/100K servers)"});
    for (const double qps : profile.rateLevels()) {
        server::ServerSim base(server::ServerConfig::baseline(),
                               profile, qps);
        const auto b = base.run();
        server::ServerSim agile(server::ServerConfig::awBaseline(),
                                profile, qps);
        const auto a = agile.run();
        const double cores = base.config().cores;
        const double usd = cost.yearlySavingsUsd(
            b.avgCorePower * cores, a.avgCorePower * cores);
        t.addRow({analysis::cell("%.0fK", qps / 1e3),
                  analysis::cell("%.2f", b.avgCorePower * cores),
                  analysis::cell("%.2f", a.avgCorePower * cores),
                  analysis::cell("%.2f", usd / 1e6)});
    }
    t.print();
    std::printf("\npaper: savings between 0.33 and 0.59 $M/yr per "
                "100K servers, peaking at low-mid load;\nsavings "
                "grow proportionally with PUE.\n");
}

} // namespace

AW_BENCH_MAIN(reproduce)
