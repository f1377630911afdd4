/**
 * @file
 * Extension: governor sensitivity -- idle-governance policy x
 * C-state configuration.
 *
 * The paper's Sec 1 argument is that servers "rarely enter a deep
 * idle power state" because OS governor mispredictions make deep
 * entries too risky -- and that AgileWatts' fast C6A wake makes the
 * quality of the idle governor far less critical. This harness
 * quantifies exactly that: every built-in governor (menu, teo,
 * ladder, the static always-shallow / always-deep endpoints, and
 * the clairvoyant oracle) against three hierarchies -- legacy with
 * C6 disabled (nothing deep to win), tuned legacy C6 (deep but
 * expensive) and AW's C6A (deep and nearly free).
 *
 * Headline: under tuned C6 the oracle-minus-menu package-power gap
 * is watts (governor quality matters a lot) and the always-C6
 * endpoint multiplies latency; under AW every governor collapses
 * onto the same power and latency point.
 */

#include "bench_common.hh"

#include <cmath>
#include <string>
#include <vector>

#include "analysis/table.hh"
#include "exp/runner.hh"
#include "server/server_sim.hh"
#include "sim/logging.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;

/** Pretty label per config registry name. */
const char *
configLabel(const std::string &key)
{
    if (key == "c1only")
        return "legacy, C6 off";
    if (key == "c1c6")
        return "tuned C6";
    if (key == "aw_c6a")
        return "AW (C6A)";
    sim::fatal("no pretty label for config '%s'", key.c_str());
}

void
reproduce()
{
    banner("Extension: governor sensitivity -- idle governor x "
           "C-state config (memcached, 50 KQPS trough)");

    exp::ExperimentSpec grid;
    grid.name = "governor-config";
    grid.workloads = {"memcached"};
    grid.configs = {"c1only", "c1c6", "aw_c6a"};
    grid.governors = {"menu",           "teo",
                      "ladder",         "static:shallowest",
                      "static:deepest", "oracle"};
    grid.qps = {50e3};
    grid.seconds = 0.4;
    grid.warmupSeconds = 0.04;
    const auto sweep = exp::SweepRunner().run(grid);

    analysis::TableWriter t({"config", "governor", "pkg W",
                             "mJ/req", "avg (us)", "p99 (us)",
                             "deep idle"});
    for (const auto &config : grid.configs) {
        for (const auto &governor : grid.governors) {
            const auto &r = sweep.at(
                {.config = config, .governor = governor});
            t.addRow({configLabel(config), governor,
                      analysis::cell("%.1f", r.powerW),
                      analysis::cell("%.3f", r.energyPerRequestMj),
                      analysis::cell("%.1f", r.avgLatencyUs),
                      analysis::cell("%.1f", r.p99LatencyUs),
                      analysis::cell("%.1f%%",
                                     100 * r.deepIdleShare)});
        }
    }
    t.print();

    // The sensitivity headline, spelled out.
    auto power = [&sweep](const char *config, const char *governor) {
        return sweep.at({.config = config, .governor = governor})
            .powerW;
    };
    auto lat = [&sweep](const char *config, const char *governor) {
        return sweep.at({.config = config, .governor = governor})
            .avgLatencyUs;
    };
    const double gap_legacy =
        power("c1c6", "menu") - power("c1c6", "oracle");
    const double gap_aw = std::fabs(power("aw_c6a", "menu") -
                                    power("aw_c6a", "oracle"));
    std::printf(
        "\noracle-minus-menu package power gap: %.2f W under tuned "
        "C6, %.2f W under AW\n(%.0f%% of the legacy gap). Always-C6 "
        "costs %.1fx menu's average latency on\nthe legacy "
        "hierarchy but %.2fx under AW: with C6A's ~sub-us wake, "
        "idle-state\nselection quality simply stops mattering -- "
        "the paper's Sec 1 claim.\n",
        gap_legacy, gap_aw, 100.0 * gap_aw / gap_legacy,
        lat("c1c6", "static:deepest") / lat("c1c6", "menu"),
        lat("aw_c6a", "static:deepest") / lat("aw_c6a", "menu"));
}

} // namespace

AW_BENCH_MAIN(reproduce)
