/**
 * @file
 * Sweep artifact emission: CSV and JSON with a stable schema.
 *
 * The emitters are pure functions of the SweepResult's points (the
 * wall-clock is deliberately excluded), so two runs of the same
 * spec produce byte-identical artifacts regardless of thread count
 * -- which is what the determinism tests and the golden regression
 * suite diff against.
 */

#ifndef AW_EXP_EMIT_HH
#define AW_EXP_EMIT_HH

#include <string>
#include <vector>

#include "exp/runner.hh"

namespace aw::exp {

/**
 * The CSV column schema: the grid coordinates every emitter opens
 * with (a bracketed column only when the spec swept that axis)
 *
 *   index,workload,config,governor,[freq_policy],[slo_us],[cap_w],
 *   policy,variant,servers,qps,replica,
 *
 * then seed,requests,achieved_qps,window_s,power_w,mj_per_request,
 * avg_latency_us,p99_latency_us,deep_idle,min_server_deep,
 * max_server_deep,busiest_share,res_c0,res_c1,res_c1e,res_c6a,
 * res_c6ae,res_c6 and the extras columns, taken from the first point.
 */
std::string csvHeader(const SweepResult &result);

/** An optional grid coordinate: an artifact column that exists only
 *  when the spec swept its axis. */
struct SweptAxis
{
    const char *name; //!< the artifact column name
    /** The point's cell, rendered as the artifacts render it. */
    std::string (*value)(const GridPoint &);
};

/** The optional coordinates @p spec swept, in artifact column order:
 *  the bracketed columns of csvHeader(). */
std::vector<SweptAxis> sweptAxes(const ExperimentSpec &spec);

/** Render the whole sweep as CSV (header + one row per point). */
std::string toCsv(const SweepResult &result);

/** Render the whole sweep as a JSON document. */
std::string toJson(const SweepResult &result);

/**
 * Render every point's recorded timeline as one aw-timeline/3 CSV:
 * a `# aw-timeline/3` schema line, then a header of the point
 * coordinates followed by analysis::timelineCsvHeader() columns,
 * then one row per retained interval per point (grid order).
 * fatal() if any point lacks a timeline (run the sweep with
 * spec.timelineIntervalSeconds > 0).
 */
std::string toTimelineCsv(const SweepResult &result);

/** The same timelines as one JSON document (schema, spec identity,
 *  then per-point interval arrays and transition maps). */
std::string toTimelineJson(const SweepResult &result);

/**
 * Render every point's tail-latency attribution as one aw-trace/1
 * CSV: a `# aw-trace/1` schema line, then one row per point (grid
 * order) of the point coordinates followed by the attribution
 * columns -- span accounting, nearest-rank thresholds, p99.9
 * latency, per-cohort component shares (including the headline
 * p99_wake_share and p99_queue_share) and the p99 cohort's
 * per-from-state wake shares. fatal() if any point lacks an
 * attribution (run the sweep with spec.traceRequests = true).
 */
std::string toTraceCsv(const SweepResult &result);

/** The same attributions as one JSON document (schema, spec
 *  identity, then per-point cohort objects). */
std::string toTraceJson(const SweepResult &result);

/** Write @p content to @p path; fatal() on I/O errors. */
void writeFile(const std::string &path, const std::string &content);

} // namespace aw::exp

#endif // AW_EXP_EMIT_HH
