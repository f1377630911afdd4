/**
 * @file
 * Table 3 reproduction: the AgileWatts area/power rollup.
 */

#include "bench_common.hh"

#include "analysis/table.hh"
#include "core/aw_core.hh"

namespace {

using namespace aw;
using aw::power::formatMilliwatts;
using aw::power::formatPercent;

void
reproduce()
{
    core::AwCoreModel model;
    const auto &ppa = model.ppa();

    banner("Table 3: area and power requirements to implement AW "
           "in a Skylake-like core");
    analysis::TableWriter t({"Component", "Sub-Component",
                             "Area Requirement", "C6A Power",
                             "C6AE Power"});
    for (const auto &row : ppa.rows()) {
        t.addRow({row.component, row.subComponent,
                  row.areaRequirement,
                  formatMilliwatts(row.powerC6a),
                  formatMilliwatts(row.powerC6ae)});
    }
    t.addRow({"Overall", "",
              formatPercent(ppa.totalAreaFractionOfCore(), 1) +
                  " of the core area",
              formatMilliwatts(ppa.totalPowerC6a()),
              formatMilliwatts(ppa.totalPowerC6ae())});
    t.print();

    std::printf("\npaper overall: 3-7%% of core area, 290-315 mW "
                "(C6A), 227-243 mW (C6AE)\n");
    std::printf("midpoints: C6A %.3f W (~0.3 W), C6AE %.3f W "
                "(~0.23 W)\n",
                ppa.c6aPowerMid(), ppa.c6aePowerMid());
}

} // namespace

AW_BENCH_MAIN(reproduce)
