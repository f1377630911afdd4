/**
 * @file
 * scripts/check_counts.py, the exact-count perf gate, fed hand-made
 * perfbench result records: an exact match passes, a count off by
 * one fails and names its workload and metric, a missing workload
 * fails, and timing metrics are never compared. The script path
 * comes from the AW_CHECK_COUNTS_PY compile definition.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace {

#ifndef AW_CHECK_COUNTS_PY
#define AW_CHECK_COUNTS_PY "scripts/check_counts.py"
#endif

/** The committed-counts table the records are checked against. */
const char *const kCounts =
    "{\"workloads\": [\"sweep_policy_grid\", \"fleet_day_pack\"],\n"
    " \"analysis.dropped\": [831373, 0],\n"
    " \"cluster.routed\": [0, 6711644],\n"
    " \"exp.artifact_bytes\": [4451151, 0]}\n";

/** One perfbench metric as a record's "metrics" member. */
std::string
metric(const std::string &name, double value, const char *unit)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, ", \"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}", name.c_str(), value, unit);
    return buf;
}

/** A perfbench result record, as run.py writes it to
 *  .bench_build/perfbench/results/, with the workload's counts from
 *  kCounts, @p extra metrics appended and @p dropped as its
 *  analysis.dropped. */
std::string
record(const char *workload, const std::string &extra = "",
       double dropped = -1, bool correct = true)
{
    const bool sweep = std::string(workload) == "sweep_policy_grid";
    if (dropped < 0)
        dropped = sweep ? 831373 : 0;
    return std::string("{\"provenance\": {\"workload\": \"") + workload +
           "\", \"seed\": 42, \"trace\": 1}, \"result\": {\"correct\": " +
           (correct ? "true" : "false") + ", \"metrics\": {" +
           "\"exp.run_s\": {\"value\": 1.69, \"unit\": \"s\"}" +
           metric("analysis.dropped", dropped, "count") +
           metric("cluster.routed", sweep ? 0 : 6711644, "count") +
           metric("exp.artifact_bytes", sweep ? 4451151 : 0, "bytes") +
           extra + "}}}\n";
}

/** Run the checker on kCounts and @p records (one file each):
 *  (exit code, output). */
std::pair<int, std::string>
check(const std::vector<std::string> &records)
{
    const std::string stem =
        testing::TempDir() + "check_counts_" + std::to_string(getpid()) +
        "_" + testing::UnitTest::GetInstance()->current_test_info()->name();
    std::vector<std::string> files = {stem + "_counts.json"};
    std::ofstream(files[0]) << kCounts;
    std::string cmd = "python3 " AW_CHECK_COUNTS_PY " " + files[0];
    for (std::size_t i = 0; i < records.size(); ++i) {
        files.push_back(stem + "_" + std::to_string(i) + ".json");
        std::ofstream(files.back()) << records[i];
        cmd += " " + files.back();
    }
    std::string out;
    FILE *pipe = popen((cmd + " 2>&1").c_str(), "r");
    if (!pipe)
        return {-1, ""};
    char buf[4096];
    while (fgets(buf, sizeof buf, pipe))
        out += buf;
    const int status = pclose(pipe);
    for (const auto &f : files)
        std::remove(f.c_str());
    return {WEXITSTATUS(status), out};
}

class CheckCounts : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (std::system("python3 -c pass") != 0)
            GTEST_SKIP() << "python3 not available";
    }
};

TEST_F(CheckCounts, ExactMatchPasses)
{
    const auto [code, out] =
        check({record("sweep_policy_grid"), record("fleet_day_pack")});
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("PASS 6 counts on 2 workloads"), std::string::npos)
        << out;
}

TEST_F(CheckCounts, CountOffByOneFailsAndNamesTheMetric)
{
    const auto [code, out] = check(
        {record("sweep_policy_grid", "", 831374), record("fleet_day_pack")});
    EXPECT_EQ(code, 1) << out;
    EXPECT_NE(out.find("FAIL sweep_policy_grid analysis.dropped: "
                       "expected 831373, got 831374"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("FAIL fleet_day_pack"), std::string::npos) << out;
}

TEST_F(CheckCounts, MissingWorkloadFails)
{
    const auto [code, out] = check({record("sweep_policy_grid")});
    EXPECT_EQ(code, 1) << out;
    EXPECT_NE(out.find("FAIL fleet_day_pack: no result given"),
              std::string::npos)
        << out;
}

TEST_F(CheckCounts, TimingMetricsAreIgnored)
{
    // Wall-clock, per-event nanoseconds and ratios vary run to run
    // and are not in the table: only `count` and `bytes` are gated.
    const std::string timing = metric("wall_s", 9.9, "s") +
                               metric("cstate.select_ns", 1e6, "ns") +
                               metric("cluster.serial_share", 0.5, "ratio");
    const auto [code, out] = check({record("sweep_policy_grid", timing),
                                    record("fleet_day_pack", timing)});
    EXPECT_EQ(code, 0) << out;
}

TEST_F(CheckCounts, RunThatFailedItsChecksFails)
{
    const auto [code, out] = check({record("sweep_policy_grid", "", -1, false),
                                    record("fleet_day_pack")});
    EXPECT_EQ(code, 1) << out;
    EXPECT_NE(out.find("sweep_policy_grid: the run failed its own checks"),
              std::string::npos)
        << out;
}

} // namespace
