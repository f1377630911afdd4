/**
 * @file
 * awsweep -- declarative parallel experiment sweeps.
 *
 * Expands a (workload x config x policy x fleet size x qps x
 * replica) grid, executes the points on a work-stealing thread
 * pool, prints a summary table and optionally writes CSV/JSON
 * artifacts. The artifacts are bit-identical for a given spec
 * regardless of --threads. Examples:
 *
 *   # the PR-2 fleet finding: routing policy x C-state config
 *   awsweep --fleet 8 --policies round-robin,pack-first \
 *           --configs c1c6,aw_c6a --qps 400000 --seconds 0.4 \
 *           --threads 8 --csv fleet.csv
 *
 *   # single-server rate sweep, 3 seed replicas per point
 *   awsweep --configs nt_baseline,nt_no_c6 \
 *           --qps 100000,200000,300000 --replicas 3
 *
 * Run `awsweep --help` for the full knob list.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/table.hh"
#include "cluster/routing.hh"
#include "cstate/governors.hh"
#include "exp/emit.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "freq/policies.hh"
#include "sim/logging.hh"

#include "cli.hh"

int
main(int argc, char **argv)
{
    using namespace aw;
    using namespace aw::cli;

    exp::ExperimentSpec spec;
    spec.name = "awsweep";
    unsigned threads = 0;
    std::string csv_path;
    std::string json_path;
    Artifacts out;
    bool quiet = false;

    std::vector<Flag> flags{
        {"", "", "grid axes (comma-separated lists)", {}},
        {"--workloads", "A,B",
         "workload profiles (default memcached): " +
             join(exp::workloadNames()),
         store(spec.workloads)},
        {"--configs", "A,B",
         "server configs (default baseline): " + join(exp::configNames()),
         store(spec.configs)},
        {"--governors", "A,B",
         "idle governors (default: each config's own; oracle is "
         "single-server only):" +
             kindLines<cstate::GovernorRegistry>(cstate::governorKinds()),
         store(spec.governors)},
        {"--freq-governors", "A,B",
         "DVFS governors (default: the static operating point):" +
             kindLines<freq::FreqRegistry>(freq::freqPolicyKinds()),
         store(spec.freqPolicies)},
        {"--slo", "N,M",
         "per-request latency-SLO levels in us (PM-QoS; 0 = unconstrained)",
         store(spec.sloUs, parseDouble)},
        {"--caps", "N,M",
         "package power-cap levels in watts (0 = uncapped; "
         "docs/POWERCAP.md)",
         store(spec.capWatts, parseDouble)},
        {"--policies", "A,B",
         "routing policies, fleet grids only (default round-robin): " +
             join(cluster::routingPolicyNames()),
         store(spec.policies)},
        {"--fleet", "N,M", "fleet sizes; omit for single-server",
         store(spec.fleetSizes, parseUnsigned<unsigned>)},
        {"--qps", "N,M", "offered load levels (default 100000)",
         store(spec.qps, parseDouble)},
        {"--replicas", "N", "seed replicas per point (default 1)",
         store(spec.replicas, parseUnsigned<unsigned>)},
        {"--per-server-qps", "", "scale each qps level by the fleet size",
         store(spec.qpsPerServer)},
        {"", "", "execution and artifacts", {}},
        {"--threads", "N",
         "worker threads across grid points (default: hardware)",
         checked(threads, parseUnsigned<unsigned>, atLeastOne,
                 "need at least 1 worker thread (omit the flag for "
                 "hardware concurrency)")},
        {"--csv", "FILE", "write the sweep as CSV", store(csv_path)},
        {"--json", "FILE", "write the sweep as JSON", store(json_path)},
        {"--name", "NAME", "spec name recorded in the artifacts",
         store(spec.name)},
        {"--quiet", "", "no summary table, just artifacts", store(quiet)},
    };
    parse(argc, argv,
          "awsweep -- parallel experiment sweeps over the AgileWatts "
          "simulator",
          std::move(flags), spec, out);

    // expand() inside run() validates on this thread before any
    // worker spawns; it range-checks every numeric axis value.
    exp::SweepRunner runner(threads);
    const auto result = runner.run(spec);

    if (!quiet) {
        std::printf("sweep=%s points=%zu threads=%u seed=%llu "
                    "wall=%.2fs\n\n",
                    spec.name.c_str(), result.points.size(),
                    runner.threads(),
                    static_cast<unsigned long long>(spec.seed),
                    result.wallSeconds);
        // The optional axes' columns appear only when the spec swept
        // them, as in the artifacts; an axis off at a point (no
        // frequency governor, SLO or cap) shows "-".
        const auto axes = exp::sweptAxes(spec);
        std::vector<std::string> headers = {"workload", "config",
                                            "governor"};
        for (const auto &axis : axes)
            headers.push_back(axis.name);
        for (const char *h :
             {"policy", "K", "qps", "rep", "power W", "mJ/req",
              "avg us", "p99 us", "deep idle"})
            headers.push_back(h);
        analysis::TableWriter t(headers);
        for (const auto &p : result.points) {
            const auto &pt = p.point;
            std::vector<std::string> row = {
                pt.workload, pt.config,
                pt.governor.empty() ? "-" : pt.governor};
            for (const auto &axis : axes) {
                std::string v = axis.value(pt);
                row.push_back(v.empty() || v == "0" ? "-" : std::move(v));
            }
            for (std::string &cell : std::vector<std::string>{
                     pt.policy.empty() ? "-" : pt.policy,
                     pt.servers ? analysis::cell("%u", pt.servers)
                                : std::string("-"),
                     analysis::cell("%.0f", pt.qps),
                     analysis::cell("%u", pt.replica),
                     analysis::cell("%.1f", p.powerW),
                     analysis::cell("%.3f", p.energyPerRequestMj),
                     analysis::cell("%.1f", p.avgLatencyUs),
                     analysis::cell("%.1f", p.p99LatencyUs),
                     analysis::cell("%.1f%%", 100 * p.deepIdleShare)})
                row.push_back(std::move(cell));
            t.addRow(row);
        }
        t.print();
    }

    const struct
    {
        const char *label;
        const std::string &path;
        std::string (*emit)(const exp::SweepResult &);
    } artifacts[] = {
        {"csv", csv_path, exp::toCsv},
        {"json", json_path, exp::toJson},
        {"timeline", out.timelineCsv, exp::toTimelineCsv},
        {"timeline_json", out.timelineJson, exp::toTimelineJson},
        {"trace", out.traceCsv, exp::toTraceCsv},
        {"trace_json", out.traceJson, exp::toTraceJson},
    };
    std::string written;
    for (const auto &a : artifacts)
        if (!a.path.empty()) {
            exp::writeFile(a.path, a.emit(result));
            written += sim::strprintf(" %s=%s", a.label, a.path.c_str());
        }
    if (!quiet && !written.empty())
        std::printf("\nartifacts:%s\n", written.c_str());
    return 0;
}
