/**
 * @file
 * awperf coverage: scenario-registry round-trips, the aw-perf/1
 * JSON schema contract, and the check_perf.py gate parsing the
 * harness's own output (both the accepting and the rejecting
 * directions). The binary path comes from the AWPERF_BIN compile
 * definition; the gate script from AW_CHECK_PERF_PY.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/perf.hh"

namespace {

using namespace aw;

#ifndef AWPERF_BIN
#define AWPERF_BIN "./awperf"
#endif
#ifndef AW_CHECK_PERF_PY
#define AW_CHECK_PERF_PY "scripts/check_perf.py"
#endif

/** Run a command, capture stdout+stderr, return (exit_code, output). */
std::pair<int, std::string>
runCommand(const std::string &cmd)
{
    std::array<char, 4096> buf{};
    std::string out;
    FILE *pipe = popen((cmd + " 2>&1").c_str(), "r");
    if (!pipe)
        return {-1, ""};
    while (fgets(buf.data(), buf.size(), pipe))
        out += buf.data();
    const int status = pclose(pipe);
    return {WEXITSTATUS(status), out};
}

bool
havePython3()
{
    return runCommand("python3 -c 'pass'").first == 0;
}

std::string
tmpPath(const std::string &name)
{
    const char *dir = std::getenv("TMPDIR");
    return std::string(dir ? dir : "/tmp") + "/" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// ---------------------------------------------- registry (library)

TEST(PerfRegistry, PinnedScenariosPresentInOrder)
{
    const auto &scenarios = exp::perfScenarios();
    ASSERT_EQ(scenarios.size(), 8u);
    EXPECT_EQ(scenarios[0].name, "single_memcached");
    EXPECT_EQ(scenarios[1].name, "fleet_sweep");
    EXPECT_EQ(scenarios[2].name, "governors_axis");
    EXPECT_EQ(scenarios[3].name, "fleet_sweep_timeline");
    EXPECT_EQ(scenarios[4].name, "fleet_sweep_trace");
    EXPECT_EQ(scenarios[5].name, "fleet_sweep_dvfs");
    EXPECT_EQ(scenarios[6].name, "fleet_sweep_cap");
    EXPECT_EQ(scenarios[7].name, "fleet_10k");
    for (const auto &s : scenarios) {
        EXPECT_FALSE(s.description.empty());
        EXPECT_TRUE(static_cast<bool>(s.run));
    }
}

TEST(PerfRegistry, FindRoundTripsEveryName)
{
    for (const auto &s : exp::perfScenarios()) {
        const auto *found = exp::findPerfScenario(s.name);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(found, &s);
        EXPECT_EQ(found->description, s.description);
    }
    EXPECT_EQ(exp::findPerfScenario("no_such_scenario"), nullptr);
}

TEST(PerfRegistry, MeasurementsCarryDeterministicTotals)
{
    // Scenario totals are simulation results: two measurements of
    // the same scenario must agree exactly (only wall time varies).
    const auto *s = exp::findPerfScenario("governors_axis");
    ASSERT_NE(s, nullptr);
    const auto a = exp::measurePerfScenario(*s, 1);
    const auto b = exp::measurePerfScenario(*s, 1);
    EXPECT_EQ(a.totals.events, b.totals.events);
    EXPECT_EQ(a.totals.requests, b.totals.requests);
    EXPECT_DOUBLE_EQ(a.totals.simSeconds, b.totals.simSeconds);
    EXPECT_GT(a.totals.events, 0u);
    EXPECT_GT(a.totals.requests, 0u);
    EXPECT_GT(a.wallSeconds, 0.0);
    // 12 grid cells x 1 server x 0.33 s simulated.
    EXPECT_DOUBLE_EQ(a.totals.simSeconds, 12 * 0.33);
}

TEST(PerfJson, SchemaCarriesEveryDocumentedKey)
{
    exp::PerfMeasurement m;
    m.name = "single_memcached";
    m.repeat = 3;
    m.wallSeconds = 0.5;
    m.totals.simSeconds = 1.1;
    m.totals.events = 1000;
    m.totals.requests = 200;
    const std::string json = exp::perfToJson({m});
    for (const char *key :
         {"\"schema\": \"aw-perf/1\"", "\"generator\": \"awperf\"",
          "\"scenarios\"", "\"name\"", "\"repeat\"", "\"wall_s\"",
          "\"sim_s\"", "\"events\"", "\"requests\"",
          "\"sim_per_wall\"", "\"events_per_s\"",
          "\"requests_per_s\""}) {
        EXPECT_NE(json.find(key), std::string::npos)
            << "missing " << key << " in\n"
            << json;
    }
}

TEST(PerfRegistry, TimelineScenarioExecutesTheSameEventStream)
{
    // The sampler's passivity, pinned at the perf layer: the
    // timeline variant of the fleet sweep must execute exactly the
    // same number of kernel events and complete exactly the same
    // requests as the plain sweep -- the only thing telemetry may
    // cost is wall clock, and that cost is what the perf baseline
    // gates.
    const auto *plain = exp::findPerfScenario("fleet_sweep");
    const auto *timeline =
        exp::findPerfScenario("fleet_sweep_timeline");
    ASSERT_NE(plain, nullptr);
    ASSERT_NE(timeline, nullptr);
    const auto a = exp::measurePerfScenario(*plain, 1);
    const auto b = exp::measurePerfScenario(*timeline, 1);
    EXPECT_EQ(a.totals.events, b.totals.events);
    EXPECT_EQ(a.totals.requests, b.totals.requests);
    EXPECT_DOUBLE_EQ(a.totals.simSeconds, b.totals.simSeconds);
}

TEST(PerfRegistry, TraceScenarioExecutesTheSameEventStream)
{
    // Same passivity pin for the request tracer: fleet_sweep_trace
    // must execute exactly the same kernel events and complete
    // exactly the same requests as the plain sweep, or the tracer
    // has perturbed the simulation it claims merely to observe.
    const auto *plain = exp::findPerfScenario("fleet_sweep");
    const auto *trace = exp::findPerfScenario("fleet_sweep_trace");
    ASSERT_NE(plain, nullptr);
    ASSERT_NE(trace, nullptr);
    const auto a = exp::measurePerfScenario(*plain, 1);
    const auto b = exp::measurePerfScenario(*trace, 1);
    EXPECT_EQ(a.totals.events, b.totals.events);
    EXPECT_EQ(a.totals.requests, b.totals.requests);
    EXPECT_DOUBLE_EQ(a.totals.simSeconds, b.totals.simSeconds);
}

// ------------------------------------------------------ CLI (tool)

TEST(AwperfTool, HelpAndListExitZero)
{
    const auto help =
        runCommand(std::string(AWPERF_BIN) + " --help");
    EXPECT_EQ(help.first, 0);
    EXPECT_NE(help.second.find("--json"), std::string::npos);

    const auto list =
        runCommand(std::string(AWPERF_BIN) + " --list");
    EXPECT_EQ(list.first, 0);
    for (const auto &s : exp::perfScenarios())
        EXPECT_NE(list.second.find(s.name), std::string::npos);
}

TEST(AwperfTool, UnknownScenarioFailsWithKnownList)
{
    const auto [code, out] = runCommand(
        std::string(AWPERF_BIN) + " --scenarios bogus");
    EXPECT_NE(code, 0);
    EXPECT_NE(out.find("unknown scenario"), std::string::npos);
    EXPECT_NE(out.find("fleet_sweep"), std::string::npos);
}

TEST(AwperfTool, MalformedRepeatFailsBeforeRunning)
{
    // A trailing junk suffix must not parse as its numeric prefix,
    // and a negative count must not wrap to ~4e9 repeats.
    for (const char *bad : {"1x", "-1"}) {
        const auto [code, out] =
            runCommand(std::string(AWPERF_BIN) + " --repeat " + bad +
                       " --scenarios single_memcached");
        EXPECT_NE(code, 0) << bad;
        EXPECT_NE(out.find("bad value"), std::string::npos) << bad;
        EXPECT_EQ(out.find("awperf scenarios="), std::string::npos)
            << bad;
    }
}

TEST(AwperfTool, JsonArtifactMatchesTheLibraryRendering)
{
    const std::string path = tmpPath("awperf_schema_test.json");
    const auto [code, out] = runCommand(
        std::string(AWPERF_BIN) +
        " --scenarios governors_axis --repeat 1 --quiet --json " +
        path);
    ASSERT_EQ(code, 0) << out;
    const std::string json = readFile(path);
    std::remove(path.c_str());

    // Schema identity and scenario content.
    EXPECT_NE(json.find("\"schema\": \"aw-perf/1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"governors_axis\""),
              std::string::npos);

    // The tool's bytes are the library's bytes, wall clock aside:
    // strip the timing-dependent fields and compare the rest
    // against a library measurement of the same scenario.
    const auto *s = exp::findPerfScenario("governors_axis");
    ASSERT_NE(s, nullptr);
    const auto m = exp::measurePerfScenario(*s, 1);
    const std::string expected = exp::perfToJson({m});
    auto stripTiming = [](std::string text) {
        for (const char *key : {"\"wall_s\"", "\"sim_per_wall\"",
                                "\"events_per_s\"",
                                "\"requests_per_s\""}) {
            auto pos = text.find(key);
            while (pos != std::string::npos) {
                const auto comma = text.find(',', pos);
                text.erase(pos, comma - pos + 1);
                pos = text.find(key, pos);
            }
        }
        return text;
    };
    EXPECT_EQ(stripTiming(json), stripTiming(expected));
}

// ------------------------------------------- check_perf.py (gate)

TEST(CheckPerfGate, AcceptsItsOwnHarnessOutput)
{
    if (!havePython3())
        GTEST_SKIP() << "python3 not available";
    const std::string path = tmpPath("awperf_gate_self.json");
    const auto gen = runCommand(
        std::string(AWPERF_BIN) +
        " --scenarios governors_axis --repeat 1 --quiet --json " +
        path);
    ASSERT_EQ(gen.first, 0) << gen.second;

    // A document always passes against itself (ratio 1.0).
    const auto [code, out] =
        runCommand("python3 " + std::string(AW_CHECK_PERF_PY) +
                   " " + path + " " + path);
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("PASS"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CheckPerfGate, RejectsARegressionAndSchemaDrift)
{
    if (!havePython3())
        GTEST_SKIP() << "python3 not available";
    const std::string cur = tmpPath("awperf_gate_cur.json");
    const std::string base = tmpPath("awperf_gate_base.json");

    exp::PerfMeasurement m;
    m.name = "fleet_sweep";
    m.repeat = 1;
    m.totals.simSeconds = 10.0;
    m.totals.events = 1000000;
    m.totals.requests = 100000;

    m.wallSeconds = 1.0; // baseline: 1M events/s
    std::ofstream(base) << exp::perfToJson({m});
    m.wallSeconds = 3.0; // current: 3x slower -- must trip the gate
    std::ofstream(cur) << exp::perfToJson({m});

    const auto regress =
        runCommand("python3 " + std::string(AW_CHECK_PERF_PY) +
                   " " + cur + " " + base);
    EXPECT_NE(regress.first, 0);
    EXPECT_NE(regress.second.find("regressed"), std::string::npos);

    // Within the 2x allowance the same pair passes.
    m.wallSeconds = 1.8;
    std::ofstream(cur) << exp::perfToJson({m});
    const auto ok =
        runCommand("python3 " + std::string(AW_CHECK_PERF_PY) +
                   " " + cur + " " + base);
    EXPECT_EQ(ok.first, 0) << ok.second;

    // Schema drift (wrong schema id) is a hard failure.
    std::ofstream(cur) << "{\"schema\": \"bogus/9\", "
                          "\"scenarios\": []}";
    const auto drift =
        runCommand("python3 " + std::string(AW_CHECK_PERF_PY) +
                   " " + cur + " " + base);
    EXPECT_NE(drift.first, 0);
    EXPECT_NE(drift.second.find("schema"), std::string::npos);

    std::remove(cur.c_str());
    std::remove(base.c_str());
}

TEST(CheckPerfGate, NanAndInfiniteValuesAreSchemaErrors)
{
    // Python's json.load parses NaN/Infinity literals, and every
    // comparison with NaN is False -- so a NaN metric used to sail
    // through the gate as a silent pass. It must be a schema error.
    if (!havePython3())
        GTEST_SKIP() << "python3 not available";
    const std::string cur = tmpPath("awperf_gate_nan_cur.json");
    const std::string base = tmpPath("awperf_gate_nan_base.json");

    exp::PerfMeasurement m;
    m.name = "fleet_sweep";
    m.repeat = 1;
    m.wallSeconds = 1.0;
    m.totals.simSeconds = 10.0;
    m.totals.events = 1000000;
    m.totals.requests = 100000;
    std::ofstream(base) << exp::perfToJson({m});

    auto entry = [](const char *events_per_s) {
        return std::string(
                   "{\"schema\": \"aw-perf/1\", \"scenarios\": "
                   "[{\"name\": \"fleet_sweep\", \"repeat\": 1, "
                   "\"wall_s\": 1.0, \"sim_s\": 10.0, "
                   "\"events\": 1000000, \"requests\": 100000, "
                   "\"sim_per_wall\": 10.0, \"events_per_s\": ") +
               events_per_s +
               ", \"requests_per_s\": 100000.0}]}";
    };
    for (const char *bad : {"NaN", "Infinity", "-Infinity"}) {
        std::ofstream(cur) << entry(bad);
        const auto [code, out] =
            runCommand("python3 " + std::string(AW_CHECK_PERF_PY) +
                       " " + cur + " " + base);
        EXPECT_NE(code, 0) << bad;
        EXPECT_NE(out.find("finite"), std::string::npos)
            << bad << ": " << out;
    }
    // A negative metric is equally malformed.
    std::ofstream(cur) << entry("-5.0");
    const auto neg =
        runCommand("python3 " + std::string(AW_CHECK_PERF_PY) +
                   " " + cur + " " + base);
    EXPECT_NE(neg.first, 0);
    EXPECT_NE(neg.second.find("negative"), std::string::npos)
        << neg.second;

    std::remove(cur.c_str());
    std::remove(base.c_str());
}

TEST(CheckPerfGate, ZeroEventsBaselineFailsInsteadOfPassing)
{
    // A broken (zero-events) baseline entry makes every ratio 0,
    // which used to read as "no regression" forever -- and divided
    // by zero on the way. It must fail loudly and name the cure.
    if (!havePython3())
        GTEST_SKIP() << "python3 not available";
    const std::string cur = tmpPath("awperf_gate_zero_cur.json");
    const std::string base = tmpPath("awperf_gate_zero_base.json");

    exp::PerfMeasurement m;
    m.name = "fleet_sweep";
    m.repeat = 1;
    m.wallSeconds = 1.0;
    m.totals.simSeconds = 10.0;
    m.totals.events = 1000000;
    m.totals.requests = 100000;
    std::ofstream(cur) << exp::perfToJson({m});
    m.totals.events = 0; // baseline measured nothing
    std::ofstream(base) << exp::perfToJson({m});

    const auto [code, out] =
        runCommand("python3 " + std::string(AW_CHECK_PERF_PY) +
                   " " + cur + " " + base);
    EXPECT_NE(code, 0);
    EXPECT_NE(out.find("non-positive baseline"), std::string::npos)
        << out;
    EXPECT_NE(out.find("regenerate the baseline"),
              std::string::npos);

    std::remove(cur.c_str());
    std::remove(base.c_str());
}

TEST(CheckPerfGate, NewScenarioIsReportedButNotGated)
{
    // The rollout path for a new scenario (how fleet_sweep_timeline
    // itself landed): present in the current document, absent from
    // the committed baseline -- the gate reports it as new and
    // passes, so adding a scenario and refreshing the baseline can
    // happen in the same PR without a chicken-and-egg failure.
    if (!havePython3())
        GTEST_SKIP() << "python3 not available";
    const std::string cur = tmpPath("awperf_gate_new_cur.json");
    const std::string base = tmpPath("awperf_gate_new_base.json");

    exp::PerfMeasurement old_one;
    old_one.name = "fleet_sweep";
    old_one.repeat = 1;
    old_one.wallSeconds = 1.0;
    old_one.totals.simSeconds = 10.0;
    old_one.totals.events = 1000000;
    old_one.totals.requests = 100000;
    exp::PerfMeasurement fresh = old_one;
    fresh.name = "fleet_sweep_timeline";

    std::ofstream(base) << exp::perfToJson({old_one});
    std::ofstream(cur) << exp::perfToJson({old_one, fresh});

    const auto [code, out] =
        runCommand("python3 " + std::string(AW_CHECK_PERF_PY) +
                   " " + cur + " " + base);
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("new (not gated)"), std::string::npos)
        << out;
    EXPECT_NE(out.find("fleet_sweep_timeline"), std::string::npos);

    std::remove(cur.c_str());
    std::remove(base.c_str());
}

} // namespace
