/**
 * @file
 * awperf -- self-timing harness for the simulation kernel.
 *
 * Runs the pinned scenario registry (see src/exp/perf.hh), reports
 * wall clock, simulated-seconds-per-second and events-per-second
 * per scenario, and optionally writes the stable aw-perf/1 JSON
 * document consumed by scripts/check_perf.py and the CI perf-smoke
 * gate:
 *
 *   awperf                       # all scenarios, summary table
 *   awperf --json results/BENCH_perf.json
 *   awperf --scenarios fleet_sweep --repeat 5
 *   awperf --list                # names + descriptions
 *
 * Scenarios are deterministic simulations; only the wall clock
 * varies between runs, and --repeat keeps the best (minimum) wall
 * time so shared-machine noise biases measurements slow-to-fast,
 * never fast-to-slow.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/table.hh"
#include "exp/emit.hh"
#include "exp/perf.hh"
#include "sim/logging.hh"

#include "cli.hh"

namespace {

using namespace aw;

void
usage()
{
    std::printf(
        "awperf -- simulation-kernel speed telemetry\n\n"
        "  --list            print the pinned scenarios and exit\n"
        "  --scenarios A,B   run only the named scenarios\n"
        "  --repeat N        timed repeats per scenario, keep the\n"
        "                    best wall clock (default 3)\n"
        "  --json FILE       write the aw-perf/1 JSON document\n"
        "  --quiet           no summary table, just artifacts\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> names;
    unsigned repeat = 3;
    std::string json_path;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                sim::fatal("%s needs a value", flag);
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--list") {
            for (const auto &s : exp::perfScenarios())
                std::printf("%-18s %s\n", s.name.c_str(),
                            s.description.c_str());
            return 0;
        } else if (arg == "--scenarios" || arg == "--scenario") {
            names = cli::splitList(next(arg.c_str()));
        } else if (arg == "--repeat") {
            repeat = cli::parseUnsigned("--repeat", next("--repeat"));
            if (repeat == 0)
                sim::fatal("--repeat must be >= 1");
        } else if (arg == "--json") {
            json_path = next("--json");
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            usage();
            sim::fatal("unknown argument '%s'", arg.c_str());
        }
    }

    std::vector<const exp::PerfScenario *> selected;
    if (names.empty()) {
        for (const auto &s : exp::perfScenarios())
            selected.push_back(&s);
    } else {
        for (const auto &name : names) {
            const auto *s = exp::findPerfScenario(name);
            if (!s) {
                std::string known;
                for (const auto &k : exp::perfScenarios()) {
                    if (!known.empty())
                        known += '|';
                    known += k.name;
                }
                sim::fatal("unknown scenario '%s' (%s)",
                           name.c_str(), known.c_str());
            }
            selected.push_back(s);
        }
    }

    std::vector<exp::PerfMeasurement> runs;
    runs.reserve(selected.size());
    for (const auto *s : selected)
        runs.push_back(exp::measurePerfScenario(*s, repeat));

    if (!quiet) {
        std::printf("awperf scenarios=%zu repeat=%u (wall = best "
                    "of repeats)\n\n",
                    runs.size(), repeat);
        analysis::TableWriter t({"scenario", "wall s", "sim s",
                                 "sim/wall", "events", "events/s",
                                 "req/s"});
        for (const auto &m : runs) {
            t.addRow({m.name, analysis::cell("%.3f", m.wallSeconds),
                      analysis::cell("%.2f", m.totals.simSeconds),
                      analysis::cell("%.1f", m.simPerWall()),
                      analysis::cell(
                          "%llu", static_cast<unsigned long long>(
                                      m.totals.events)),
                      analysis::cell("%.3g", m.eventsPerSec()),
                      analysis::cell("%.3g", m.requestsPerSec())});
        }
        t.print();
    }

    if (!json_path.empty()) {
        exp::writeFile(json_path, exp::perfToJson(runs));
        if (!quiet)
            std::printf("\nartifact: json=%s\n", json_path.c_str());
    }
    return 0;
}
