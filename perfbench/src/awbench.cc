/**
 * @file
 * awbench: one benchmark operation in a fresh process.
 *
 *   awbench <workload> [--seed N] [--out DIR] [--traced | --setup-only]
 *
 * Runs on as many worker threads as the process may use CPUs and
 * prints one JSON object on stdout. It holds the monotonic-clock time
 * setup finished; with --setup-only nothing runs after that.
 * Untraced, it adds the operation's wall time, its output digest and
 * any check errors; with --traced, the per-layer metrics and the
 * errors of every operation the traced run made. perfbench/run.py
 * drives it.
 */

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "measure.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c == '\n' ? ' ' : c;
    }
    return out + "\"";
}

std::string
errorList(const Errors &errors)
{
    std::string out = "[";
    for (std::size_t i = 0; i < errors.size(); ++i)
        out += (i ? ", " : "") + quoted(errors[i]);
    return out + "]";
}

/** CPUs in the process's affinity mask. */
unsigned
allowedCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "awbench: %s\nusage: awbench <workload> [--seed N] "
                 "[--out DIR] [--traced | --setup-only]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("missing workload");
    RunOptions opts;
    opts.threads = allowedCpus();
    bool traced = false;
    bool setup_only = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--seed")
            opts.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--out")
            opts.outDir = value();
        else if (arg == "--traced")
            traced = true;
        else if (arg == "--setup-only")
            setup_only = true;
        else
            usage(("unknown flag " + arg).c_str());
    }
    const auto workload = makeWorkload(argv[1], opts);
    if (!workload)
        usage(("unknown workload " + std::string(argv[1])).c_str());

    workload->setup();
    const double ready = wallNow();

    std::string out = "{\"workload\": " + quoted(argv[1]) +
                      ", \"seed\": " + std::to_string(opts.seed) +
                      ", \"threads\": " + std::to_string(opts.threads) +
                      ", \"ready_mono\": " + number(ready) +
                      ", \"compiler\": " + quoted(PERFBENCH_COMPILER) +
                      ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE);
    if (!traced && !setup_only) {
        const OpOutcome o = workload->run();
        out += ", \"wall_s\": " + number(o.wallS) +
               ", \"digest\": " + quoted(o.digest) +
               ", \"errors\": " + errorList(o.errors);
    } else if (traced) {
        const TracedOutcome t = workload->runTraced();
        out += ", \"ops\": [";
        for (std::size_t i = 0; i < t.ops.size(); ++i)
            out += std::string(i ? ", " : "") + "{\"name\": " +
                   quoted(t.ops[i].first) +
                   ", \"errors\": " + errorList(t.ops[i].second) + "}";
        out += "], \"metrics\": {";
        for (std::size_t i = 0; i < t.metrics.size(); ++i)
            out += std::string(i ? ", " : "") + quoted(t.metrics[i].first) +
                   ": " + number(t.metrics[i].second);
        out += "}, \"point_ms\": [";
        for (std::size_t i = 0; i < t.pointMs.size(); ++i)
            out += (i ? ", " : "") + number(t.pointMs[i]);
        out += "]";
    }
    std::printf("%s}\n", out.c_str());
    return 0;
}
