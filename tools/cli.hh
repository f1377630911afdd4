/**
 * @file
 * The command-line layer of awsim and awsweep. Each tool declares
 * one table of flag rows; parse() walks argv against it and prints
 * --help from the same rows, so a flag is parsed, checked and
 * documented in one place. addSpecFlags() holds the rows both
 * tools share. A value parser takes the whole value or dies with
 * "<flag>: bad value '<value>'": no numeric prefix is taken and no
 * negative number wraps.
 */

#ifndef AW_TOOLS_CLI_HH
#define AW_TOOLS_CLI_HH

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "exp/spec.hh"
#include "server/config.hh"
#include "sim/logging.hh"

namespace aw::cli {

/** Parse a non-negative integer flag value that fits @p T or die. */
template <typename T>
T
parseUnsigned(const char *flag, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0' || value[0] == '-' ||
        errno == ERANGE || v > std::numeric_limits<T>::max())
        sim::fatal("%s: bad value '%s'", flag, value);
    return static_cast<T>(v);
}

/** Parse a finite floating-point flag value or die. */
inline double
parseDouble(const char *flag, const char *value)
{
    char *end = nullptr;
    const double v = std::strtod(value, &end);
    if (end == value || *end != '\0' || !std::isfinite(v))
        sim::fatal("%s: bad value '%s'", flag, value);
    return v;
}

/** Split a comma-separated list, dropping empty items. */
inline std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= arg.size()) {
        const std::size_t comma = arg.find(',', start);
        const std::string item =
            arg.substr(start, comma == std::string::npos
                                  ? std::string::npos
                                  : comma - start);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/** Parse a comma-separated list with @p parse (a parser above). */
template <typename T>
std::vector<T>
parseList(const char *flag, const char *value,
          T (*parse)(const char *, const char *))
{
    std::vector<T> out;
    for (const auto &item : splitList(value))
        out.push_back(parse(flag, item.c_str()));
    return out;
}

/** Applies one flag: (flag, value), value nullptr for a switch. */
using Setter = std::function<void(const char *flag, const char *value)>;

/** One row of a tool's flag table. */
struct Flag
{
    std::string name;  //!< "--qps"; "" makes the row a --help heading
    std::string value; //!< "N", "FILE", ...; "" for a switch
    std::string help;  //!< wrapped by --help; '\n' starts a new line
    Setter set;        //!< empty for a heading
};

/** @{ Setters that store a flag's value; a list value is split at
 *  commas. */
inline Setter
store(bool &dst)
{
    return [&dst](const char *, const char *) { dst = true; };
}
inline Setter
store(std::string &dst)
{
    return [&dst](const char *, const char *v) { dst = v; };
}
inline Setter
store(std::vector<std::string> &dst)
{
    return [&dst](const char *, const char *v) { dst = splitList(v); };
}
template <typename T>
Setter
store(T &dst, T (*parse)(const char *, const char *))
{
    return [&dst, parse](const char *f, const char *v) {
        dst = parse(f, v);
    };
}
template <typename T>
Setter
store(std::vector<T> &dst, T (*parse)(const char *, const char *))
{
    return [&dst, parse](const char *f, const char *v) {
        dst = parseList(f, v, parse);
    };
}
/** @} */

/** @{ Range rules for checked(). */
inline bool positive(double v) { return v > 0.0; }
inline bool nonNegative(double v) { return v >= 0.0; }
inline bool atLeastOne(unsigned v) { return v >= 1; }
/** @} */

/** Store a parsed value, or die with "<flag>: <rule>; got <value>"
 *  when @p ok rejects it. */
template <typename T>
Setter
checked(T &dst, T (*parse)(const char *, const char *), bool (*ok)(T),
        const char *rule)
{
    return [&dst, parse, ok, rule](const char *f, const char *v) {
        dst = parse(f, v);
        if (!ok(dst))
            sim::fatal("%s: %s; got %s", f, rule, v);
    };
}

/** "a, b, c" */
inline std::string
join(const std::vector<std::string> &names)
{
    std::string out;
    for (const auto &n : names)
        out += (out.empty() ? "" : ", ") + n;
    return out;
}

/** One "kind: summary" line per kind of a policy registry. */
template <typename Registry>
std::string
kindLines(const std::vector<std::string> &kinds)
{
    std::string out;
    for (const auto &k : kinds)
        out += "\n" + k + ": " + Registry::instance().summary(k);
    return out;
}

/** Print @p title, then every row of @p flags, the help text
 *  word-wrapped in a column of its own. */
inline void
usage(const char *title, const std::vector<Flag> &flags)
{
    constexpr std::size_t kIndent = 20, kWidth = 78;
    std::string out = std::string(title) + "\n";
    for (const auto &f : flags) {
        if (f.name.empty()) {
            out += "\n" + f.help + ":\n";
            continue;
        }
        std::string line =
            "  " + f.name + (f.value.empty() ? "" : " " + f.value);
        line.resize(std::max(line.size() + 2, kIndent), ' ');
        std::size_t text = line.size(); // where the text starts
        const auto newline = [&] {
            out += line + "\n";
            line.assign(kIndent, ' ');
            text = kIndent;
        };
        for (std::size_t i = 0; i < f.help.size(); ++i) {
            const std::size_t end =
                std::min(f.help.find_first_of(" \n", i), f.help.size());
            if (line.size() > text &&
                line.size() + 1 + (end - i) > kWidth)
                newline();
            if (line.size() > text)
                line += ' ';
            line.append(f.help, i, end - i);
            if (end < f.help.size() && f.help[end] == '\n')
                newline();
            i = end;
        }
        out += line + "\n";
    }
    std::fputs(out.c_str(), stdout);
}

/** The telemetry artifact files a run writes (traceChrome: awsim's
 *  --trace-chrome). */
struct Artifacts
{
    std::string timelineCsv, timelineJson;
    std::string traceCsv, traceJson, traceChrome;
};

/**
 * Append the rows awsim and awsweep share, under one heading: run
 * shaping and telemetry go into @p spec, artifact files into @p out.
 */
inline void
addSpecFlags(std::vector<Flag> &flags, exp::ExperimentSpec &spec,
             Artifacts &out)
{
    flags.insert(flags.end(), {
        {"", "", "run shaping and telemetry", {}},
        {"--seconds", "S", "measured window (default: sized to the rate)",
         checked(spec.seconds, parseDouble, nonNegative,
                 "window must be >= 0 (0 = auto-sized)")},
        {"--warmup", "S",
         "warmup excluded from the statistics (default: window/10; "
         "needs --seconds)",
         checked(spec.warmupSeconds, parseDouble, nonNegative,
                 "must be >= 0 (omit the flag for the window/10 default)")},
        {"--cores", "N", "cores per server (default: the config's)",
         checked(spec.cores, parseUnsigned<unsigned>, atLeastOne,
                 "need at least 1 core (omit the flag for the config's)")},
        {"--seed", "N", "top-level RNG seed (default 42)",
         store(spec.seed, parseUnsigned<std::uint64_t>)},
        {"--thermal", "",
         "couple the RC thermal model; trips feed the same throttle "
         "ladder as budget overshoot",
         store(spec.thermal)},
        {"--dispatch", "NAME",
         "request-to-core mapping (default: the config's): " +
             join(server::dispatchPolicyNames()),
         store(spec.dispatch)},
        {"--fleet-threads", "N",
         "worker threads within a fleet run (default 1; results are "
         "bit-identical at any N)",
         checked(spec.fleetThreads, parseUnsigned<unsigned>, atLeastOne,
                 "need at least 1 worker thread")},
        {"--epoch", "S",
         "fleet routing-decision epoch in sim seconds (default: one "
         "epoch; results are identical for any value)",
         checked(spec.epochSeconds, parseDouble, positive,
                 "epoch length must be positive (omit the flag for one "
                 "epoch spanning the run)")},
        {"--timeline", "FILE",
         "write the interval telemetry as aw-timeline/3 CSV "
         "(docs/TELEMETRY.md)",
         store(out.timelineCsv)},
        {"--timeline-json", "FILE",
         "the same telemetry as JSON, with the C-state transition maps",
         store(out.timelineJson)},
        {"--timeline-interval", "S",
         "sampling interval in sim seconds (default 0.01 when a timeline "
         "file is given)",
         checked(spec.timelineIntervalSeconds, parseDouble, positive,
                 "must be positive")},
        {"--trace-requests", "FILE",
         "trace every request and write aw-trace/1 CSV (docs/TRACING.md): "
         "awsim the spans, awsweep each point's p99 wake/queue shares",
         store(out.traceCsv)},
        {"--trace-requests-json", "FILE",
         "the tail-latency attribution (all/p99/p99.9 cohorts) as JSON",
         store(out.traceJson)},
    });
}

/**
 * Apply argv to @p flags and the shared rows (addSpecFlags()).
 * --help (or -h) prints the usage and exits 0; a value flag given
 * last dies with "<flag> needs a value"; an argument no row names
 * prints the usage and dies. Then a trace file turns request tracing
 * on, and a timeline file samples every 10 ms unless
 * --timeline-interval says otherwise (an interval without a file is
 * an error). Returns the flags given, in order.
 */
inline std::vector<std::string>
parse(int argc, char **argv, const char *title, std::vector<Flag> flags,
      exp::ExperimentSpec &spec, Artifacts &out)
{
    addSpecFlags(flags, spec, out);
    flags.insert(flags.begin(),
                 Flag{"--help", "", "print this list and exit (also -h)",
                      [&](const char *, const char *) {
                          usage(title, flags);
                          std::exit(0);
                      }});
    std::vector<std::string> given;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i] == std::string("-h")
                                    ? flags.front().name
                                    : argv[i];
        const auto row =
            std::find_if(flags.begin(), flags.end(),
                         [&](const Flag &f) { return f.name == arg; });
        if (row == flags.end() || !row->set) {
            usage(title, flags);
            sim::fatal("unknown argument '%s'", arg.c_str());
        }
        if (!row->value.empty() && i + 1 >= argc)
            sim::fatal("%s needs a value", arg.c_str());
        row->set(arg.c_str(), row->value.empty() ? nullptr : argv[++i]);
        given.push_back(arg);
    }

    spec.traceRequests = !out.traceCsv.empty() ||
                         !out.traceJson.empty() || !out.traceChrome.empty();
    const bool timeline =
        !out.timelineCsv.empty() || !out.timelineJson.empty();
    if (timeline && spec.timelineIntervalSeconds <= 0.0)
        spec.timelineIntervalSeconds = 0.01;
    if (!timeline && spec.timelineIntervalSeconds > 0.0)
        sim::fatal("--timeline-interval needs --timeline or "
                   "--timeline-json");
    return given;
}

} // namespace aw::cli

#endif // AW_TOOLS_CLI_HH
