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
#include "exp/emit.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "sim/logging.hh"

#include "cli.hh"

namespace {

using namespace aw;
using namespace aw::cli;

void
usage()
{
    std::printf(
        "awsweep -- parallel experiment sweeps over the AgileWatts "
        "simulator\n\n"
        "grid axes (comma-separated lists):\n"
        "  --workloads A,B   workload profiles (default memcached)\n"
        "  --configs A,B     server configs (default baseline)\n"
        "  --governors A,B   idle governors (menu|teo|ladder|\n"
        "                    static:<state>|oracle; default: config\n"
        "                    default; oracle is single-server only)\n"
        "  --freq-governors A,B  DVFS governors (performance|"
        "powersave|\n"
        "                    ondemand|conservative|racetohalt;\n"
        "                    default: the static operating point)\n"
        "  --slo N,M         per-request latency-SLO levels in us\n"
        "                    (PM-QoS; 0 = unconstrained)\n"
        "  --caps N,M        package power-cap levels in watts\n"
        "                    (0 = uncapped; docs/POWERCAP.md)\n"
        "  --policies A,B    routing policies (fleet mode only;\n"
        "                    default round-robin)\n"
        "  --fleet N,M       fleet sizes; omit for single-server\n"
        "  --qps N,M         offered load levels (default 100000)\n"
        "  --replicas N      seed replicas per point (default 1)\n"
        "\nrun shaping:\n"
        "  --per-server-qps  scale each qps level by the fleet size\n"
        "  --seconds S       measured window (default: auto-sized)\n"
        "  --warmup S        warmup (default: window/10)\n"
        "  --cores N         per-server core count (default: config)\n"
        "  --dispatch NAME   request-to-core mapping for every "
        "point\n"
        "                    (static|packing; default: config)\n"
        "  --thermal         couple the RC thermal model on every "
        "point\n"
        "                    (a machine knob, not an axis)\n"
        "  --seed N          top-level seed (default 42)\n"
        "  --fleet-threads N worker threads WITHIN each fleet "
        "point\n"
        "                    (default 1; artifacts are bit-identical "
        "at any N)\n"
        "  --epoch S         fleet routing-decision epoch length in "
        "sim\n"
        "                    seconds (default: one epoch; artifacts "
        "are\n"
        "                    identical for any value)\n"
        "\nexecution and artifacts:\n"
        "  --threads N       worker threads across grid points\n"
        "                    (default: hardware)\n"
        "  --csv FILE        write the sweep as CSV\n"
        "  --json FILE       write the sweep as JSON\n"
        "  --name NAME       spec name recorded in the artifacts\n"
        "  --quiet           no summary table, just artifacts\n"
        "\nstreaming telemetry (aw-timeline/3, see "
        "docs/TELEMETRY.md):\n"
        "  --timeline FILE   write every point's interval timeline "
        "as CSV\n"
        "  --timeline-json FILE  the same timelines as JSON "
        "(intervals +\n"
        "                    per-point C-state transition maps)\n"
        "  --timeline-interval S  sampling interval in sim seconds\n"
        "                    (default 0.01 when a timeline file is "
        "given)\n"
        "\nrequest tracing (aw-trace/1, see docs/TRACING.md):\n"
        "  --trace-requests FILE  record per-request spans at every\n"
        "                    point and write the tail-latency "
        "attribution\n"
        "                    sweep (p99 wake/queue shares) as CSV\n"
        "  --trace-requests-json FILE  the same attributions as "
        "JSON\n"
        "                    (full all/p99/p99.9 cohort objects)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    exp::ExperimentSpec spec;
    spec.name = "awsweep";
    unsigned threads = 0;
    std::string csv_path;
    std::string json_path;
    std::string timeline_csv_path;
    std::string timeline_json_path;
    std::string trace_csv_path;
    std::string trace_json_path;
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
        } else if (arg == "--workloads") {
            spec.workloads = splitList(next("--workloads"));
        } else if (arg == "--configs") {
            spec.configs = splitList(next("--configs"));
        } else if (arg == "--governors") {
            spec.governors = splitList(next("--governors"));
        } else if (arg == "--freq-governors") {
            spec.freqPolicies =
                splitList(next("--freq-governors"));
        } else if (arg == "--slo") {
            spec.sloUs = parseList("--slo", next("--slo"), parseDouble);
        } else if (arg == "--caps") {
            spec.capWatts =
                parseList("--caps", next("--caps"), parseDouble);
        } else if (arg == "--thermal") {
            spec.thermal = true;
        } else if (arg == "--dispatch") {
            spec.dispatch = next("--dispatch");
        } else if (arg == "--policies") {
            spec.policies = splitList(next("--policies"));
        } else if (arg == "--fleet") {
            spec.fleetSizes =
                parseList("--fleet", next("--fleet"), parseUnsigned);
        } else if (arg == "--qps") {
            spec.qps = parseList("--qps", next("--qps"), parseDouble);
        } else if (arg == "--replicas") {
            spec.replicas =
                parseUnsigned("--replicas", next("--replicas"));
        } else if (arg == "--per-server-qps") {
            spec.qpsPerServer = true;
        } else if (arg == "--seconds") {
            spec.seconds = parseDouble("--seconds", next("--seconds"));
            if (spec.seconds < 0.0)
                sim::fatal("--seconds: window must be >= 0 "
                           "(0 = auto-sized; got %g)",
                           spec.seconds);
        } else if (arg == "--warmup") {
            spec.warmupSeconds =
                parseDouble("--warmup", next("--warmup"));
            if (spec.warmupSeconds < 0.0)
                sim::fatal("--warmup: must be >= 0 (omit the flag "
                           "for the window/10 default; got %g)",
                           spec.warmupSeconds);
        } else if (arg == "--cores") {
            spec.cores = parseUnsigned("--cores", next("--cores"));
            if (spec.cores == 0)
                sim::fatal("--cores: need at least 1 core (omit "
                           "the flag for the config default)");
        } else if (arg == "--seed") {
            spec.seed = parseUint64("--seed", next("--seed"));
        } else if (arg == "--threads") {
            threads = parseUnsigned("--threads", next("--threads"));
            if (threads == 0)
                sim::fatal("--threads: need at least 1 worker "
                           "thread (omit the flag for hardware "
                           "concurrency)");
        } else if (arg == "--fleet-threads") {
            spec.fleetThreads = parseUnsigned(
                "--fleet-threads", next("--fleet-threads"));
            if (spec.fleetThreads == 0)
                sim::fatal("--fleet-threads: need at least 1 "
                           "worker thread");
        } else if (arg == "--epoch") {
            spec.epochSeconds =
                parseDouble("--epoch", next("--epoch"));
            if (spec.epochSeconds <= 0.0)
                sim::fatal("--epoch: epoch length must be positive "
                           "(omit the flag for one epoch spanning "
                           "the run; got %g)",
                           spec.epochSeconds);
        } else if (arg == "--csv") {
            csv_path = next("--csv");
        } else if (arg == "--json") {
            json_path = next("--json");
        } else if (arg == "--timeline") {
            timeline_csv_path = next("--timeline");
        } else if (arg == "--timeline-json") {
            timeline_json_path = next("--timeline-json");
        } else if (arg == "--timeline-interval") {
            spec.timelineIntervalSeconds = parseDouble(
                "--timeline-interval", next("--timeline-interval"));
            if (spec.timelineIntervalSeconds <= 0.0)
                sim::fatal("--timeline-interval: must be positive");
        } else if (arg == "--trace-requests") {
            trace_csv_path = next("--trace-requests");
        } else if (arg == "--trace-requests-json") {
            trace_json_path = next("--trace-requests-json");
        } else if (arg == "--name") {
            spec.name = next("--name");
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            usage();
            sim::fatal("unknown argument '%s'", arg.c_str());
        }
    }

    // A timeline artifact without an explicit interval gets the
    // 10 ms default; an interval without a file is pointless.
    const bool want_timeline = !timeline_csv_path.empty() ||
                               !timeline_json_path.empty();
    if (want_timeline && spec.timelineIntervalSeconds <= 0.0)
        spec.timelineIntervalSeconds = 0.01;
    if (!want_timeline && spec.timelineIntervalSeconds > 0.0)
        sim::fatal("--timeline-interval needs --timeline or "
                   "--timeline-json");
    const bool want_trace =
        !trace_csv_path.empty() || !trace_json_path.empty();
    if (want_trace)
        spec.traceRequests = true;

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
        {"timeline", timeline_csv_path, exp::toTimelineCsv},
        {"timeline_json", timeline_json_path, exp::toTimelineJson},
        {"trace", trace_csv_path, exp::toTraceCsv},
        {"trace_json", trace_json_path, exp::toTraceJson},
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
