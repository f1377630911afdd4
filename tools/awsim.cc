/**
 * @file
 * awsim -- command-line driver for the AgileWatts server simulator.
 *
 * Runs one workload x configuration x load point and prints the
 * full result record. Example:
 *
 *   awsim --workload memcached --config aw --qps 100000 \
 *         --seconds 2 --seed 7
 *
 * With --fleet N the same workload drives a cluster of N servers
 * behind a routing policy (see src/cluster/):
 *
 *   awsim --fleet 8 --route pack-first --config aw --qps 400000
 *
 * Run `awsim --help` for the knob list.
 */

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

#include "analysis/power_model.hh"
#include "analysis/sampler.hh"
#include "analysis/table.hh"
#include "analysis/trace.hh"
#include "cluster/fleet.hh"
#include "cluster/routing.hh"
#include "cstate/governors.hh"
#include "exp/emit.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "freq/policies.hh"
#include "server/server_sim.hh"
#include "sim/logging.hh"
#include "workload/trace.hh"

#include "cli.hh"

namespace {

using namespace aw;
using namespace aw::cli;
using ull = unsigned long long; //!< what "%llu" prints

/** Write the requested aw-trace/1 artifacts for one series and
 *  print its tail-attribution summary. */
void
writeRequestTrace(const analysis::TraceSeries &series,
                  const std::string &label, const Artifacts &out)
{
    if (!out.traceCsv.empty())
        exp::writeFile(out.traceCsv, analysis::traceCsv(series));
    if (!out.traceJson.empty())
        exp::writeFile(out.traceJson,
                       analysis::attributionJson(series, label));
    if (!out.traceChrome.empty())
        exp::writeFile(out.traceChrome, analysis::chromeTraceJson(series));

    const auto attr = analysis::attributeTail(series);
    std::printf("\ntrace: spans=%llu dropped=%llu wake_episodes=%llu\n",
                ull(attr.spans), ull(attr.dropped),
                ull(series.wakesEmitted));
    analysis::TableWriter at(
        {"cohort", "count", "wake share", "queue share",
         "service share", "mean wake (us)"});
    const std::pair<const char *, const analysis::CohortStats &>
        cohorts[] = {{"all", attr.all},
                     {"p99", attr.p99},
                     {"p99.9", attr.p999}};
    for (const auto &[name, st] : cohorts) {
        at.addRow({name,
                   analysis::cell("%llu", ull(st.count)),
                   analysis::cell("%.1f%%", 100 * st.wakeShare),
                   analysis::cell("%.1f%%", 100 * st.queueShare),
                   analysis::cell("%.1f%%", 100 * st.serviceShare),
                   analysis::cell("%.2f", st.meanWakeUs)});
    }
    at.print();
}

/** Write the requested aw-timeline/3 artifacts for one series. */
void
writeTimeline(const analysis::TimelineSeries &series,
              const std::string &label, const Artifacts &out)
{
    if (!out.timelineCsv.empty())
        exp::writeFile(out.timelineCsv, analysis::timelineCsv(series));
    if (!out.timelineJson.empty())
        exp::writeFile(out.timelineJson,
                       analysis::timelineJson(series, label));
    std::printf("\ntimeline: intervals=%llu dropped=%llu%s%s%s%s\n",
                ull(series.emitted), ull(series.dropped),
                out.timelineCsv.empty() ? "" : " csv=",
                out.timelineCsv.c_str(),
                out.timelineJson.empty() ? "" : " json=",
                out.timelineJson.c_str());
}

/** " freq=... slo=...us cap=...W thermal": the run header's DVFS
 *  and capping knobs. */
std::string
dvfsNote(const server::ServerConfig &cfg)
{
    std::string note;
    if (!cfg.freqPolicy.empty())
        note += " freq=" + cfg.freqPolicy;
    if (cfg.sloUs > 0.0)
        note += sim::strprintf(" slo=%gus", cfg.sloUs);
    if (cfg.cap.capWatts > 0.0)
        note += sim::strprintf(" cap=%gW", cfg.cap.capWatts);
    if (cfg.cap.thermalEnabled)
        note += " thermal";
    return note;
}

/** Add a (metric, value) row, the value printf-formatted. */
template <typename... V>
void
metric(analysis::TableWriter &t, const char *name, const char *fmt,
       V... v)
{
    t.addRow({name, analysis::cell(fmt, v...)});
}

/** The cap rows of a result table (@p r a RunResult or FleetResult),
 *  when the cap or the thermal model is on. */
template <typename Result>
void
addCapRows(analysis::TableWriter &t, const Result &r,
           const server::ServerConfig &cfg)
{
    if (!cfg.cap.enabled())
        return;
    metric(t, "cap throttled", "%.1f%%", 100 * r.capThrottleShare);
    metric(t, "forced-idle naps", "%llu", ull(r.forcedIdleNaps));
    if (cfg.cap.thermalEnabled)
        metric(t, "max temp (C)", "%.1f", r.maxTempC);
}

/** Print a fleet run's result record; returns its artifact label. */
std::string
printFleet(const cluster::FleetResult &r,
           const cluster::FleetConfig &fleet_cfg)
{
    std::printf("fleet=%u route=%s workload=%s config=%s "
                "governor=%s qps=%.0f seed=%llu%s%s\n\n",
                r.servers, r.routingName.c_str(),
                r.workloadName.c_str(), r.configName.c_str(),
                fleet_cfg.server.governor.c_str(), r.offeredQps,
                ull(fleet_cfg.seed),
                fleet_cfg.schedule.isFlat() ? "" : " diurnal",
                dvfsNote(fleet_cfg.server).c_str());

    analysis::TableWriter t({"metric", "value"});
    metric(t, "window (s)", "%.3f", sim::toSec(r.window));
    metric(t, "requests", "%llu", ull(r.requests));
    metric(t, "achieved qps", "%.0f", r.achievedQps);
    metric(t, "fleet power (W)", "%.2f", r.fleetPower);
    metric(t, "fleet energy (J)", "%.2f", r.fleetEnergy);
    metric(t, "energy/request (mJ)", "%.3f", r.energyPerRequestMj);
    metric(t, "avg latency (us)", "%.2f", r.avgLatencyUs);
    metric(t, "p99 latency (us)", "%.2f", r.p99LatencyUs);
    metric(t, "p99.9 latency (us)", "%.2f", r.p999LatencyUs);
    metric(t, "deep idle (C6 family)", "%.1f%%", 100 * r.deepIdleShare);
    metric(t, "deep idle spread", "%.1f%% .. %.1f%%",
           100 * r.minServerDeepShare, 100 * r.maxServerDeepShare);
    metric(t, "busiest server load share", "%.1f%%",
           100 * r.busiestShareOfLoad);
    addCapRows(t, r, fleet_cfg.server);
    t.print();

    std::printf("\nper-server:\n");
    analysis::TableWriter ps({"server", "routed", "completed",
                              "pkg W", "deep idle", "p99 (us)"});
    for (unsigned i = 0; i < r.servers; ++i) {
        const auto &s = r.perServer[i];
        ps.addRow({analysis::cell("%u", i),
                   analysis::cell("%llu", ull(r.routedPerServer[i])),
                   analysis::cell("%llu", ull(s.requests)),
                   analysis::cell("%.2f", s.packagePower),
                   analysis::cell(
                       "%.1f%%",
                       100 * cluster::deepIdleShare(s.residency)),
                   analysis::cell("%.1f", s.p99LatencyUs)});
    }
    ps.print();

    return sim::strprintf("fleet%u/%s/%s/%.0fqps", r.servers,
                          r.workloadName.c_str(), r.configName.c_str(),
                          r.offeredQps);
}

/** Print a single-server run's result record; returns its
 *  artifact label. */
std::string
printServer(const server::RunResult &r, const server::ServerConfig &cfg)
{
    std::printf("workload=%s config=%s governor=%s dispatch=%s "
                "qps=%.0f cores=%u seed=%llu%s%s%s\n\n",
                r.workloadName.c_str(), r.configName.c_str(),
                cfg.governor.c_str(), server::name(cfg.dispatch),
                r.offeredQps, cfg.cores, ull(cfg.seed),
                cfg.packageCStatesEnabled ? " package" : "",
                cfg.runAtPn ? " pn" : "", dvfsNote(cfg).c_str());

    analysis::TableWriter t({"metric", "value"});
    metric(t, "window (s)", "%.3f", sim::toSec(r.window));
    metric(t, "requests", "%llu", ull(r.requests));
    metric(t, "achieved qps", "%.0f", r.achievedQps);
    metric(t, "avg core power (W)", "%.4f", r.avgCorePower);
    metric(t, "package power (W)", "%.2f", r.packagePower);
    metric(t, "core energy (J)", "%.2f", r.coreEnergy);
    metric(t, "avg latency (us)", "%.2f", r.avgLatencyUs);
    metric(t, "p99 latency (us)", "%.2f", r.p99LatencyUs);
    metric(t, "p99.9 latency (us)", "%.2f", r.p999LatencyUs);
    metric(t, "avg latency e2e (us)", "%.2f", r.avgLatencyE2eUs);
    metric(t, "transitions/request", "%.3f", r.transitionsPerRequest);
    metric(t, "mispredicted entries", "%llu", ull(r.mispredictedEntries));
    if (!cfg.freqPolicy.empty()) {
        metric(t, "P-state ramps", "%llu", ull(r.freqTransitions));
        metric(t, "ramp energy (J)", "%.4f", r.freqTransitionEnergyJ);
    }
    addCapRows(t, r, cfg);
    t.print();

    std::printf("\nresidency: ");
    for (std::size_t i = 0; i < cstate::kNumCStates; ++i) {
        const auto id = static_cast<cstate::CStateId>(i);
        const double share = r.residency.shareOf(id);
        if (share > 0.0005)
            std::printf("%s=%.1f%% ", cstate::name(id),
                        100.0 * share);
    }
    std::printf("\n");
    if (cfg.packageCStatesEnabled) {
        std::printf("package:   PC0=%.1f%% PC2=%.1f%% PC6=%.1f%% "
                    "uncore=%.2fW\n",
                    100 * r.pkgResidency[0], 100 * r.pkgResidency[1],
                    100 * r.pkgResidency[2], r.avgUncorePower);
    }

    return sim::strprintf("%s/%s/%.0fqps", r.workloadName.c_str(),
                          r.configName.c_str(), r.offeredQps);
}

} // namespace

int
main(int argc, char **argv)
{
    exp::ExperimentSpec spec;
    spec.name = "awsim";
    Artifacts out;
    double slo = 0.0;
    double snoops = 0.0;
    bool package = false;
    bool pn = false;
    bool estimate_aw = false;
    std::string trace_path;
    unsigned pack_cap = 0;
    double diurnal = 0.0;
    double diurnal_period = 1.0;
    double flash = 0.0;

    std::vector<Flag> flags{
        {"--workload", "NAME",
         "workload profile (default memcached): " +
             join(exp::workloadNames()),
         store(spec.workloads)},
        {"--config", "NAME",
         "server configuration (default baseline): " +
             join(exp::configNames()),
         store(spec.configs)},
        {"--governor", "SPEC",
         "idle governor (default menu; oracle is single-server static "
         "dispatch only):" +
             kindLines<cstate::GovernorRegistry>(cstate::governorKinds()),
         store(spec.governors)},
        {"--freq-governor", "SPEC",
         "DVFS governor (default: the static operating point):" +
             kindLines<freq::FreqRegistry>(freq::freqPolicyKinds()),
         store(spec.freqPolicies)},
        {"--slo", "US",
         "per-request latency SLO in us (PM-QoS): disables idle states "
         "too slow to wake within it and floors the DVFS ladder",
         checked(slo, parseDouble, positive,
                 "latency SLO must be a positive number of microseconds")},
        {"--cap", "WATTS",
         "RAPL-style package power cap (0 = uncapped): clamps the DVFS "
         "ladder, then injects forced idle (docs/POWERCAP.md)",
         store(spec.capWatts, parseDouble)},
        {"--qps", "N", "offered load, requests/s (default 100000)",
         store(spec.qps, parseDouble)},
        {"--snoops", "N", "snoop probes/s/core (default 0)",
         checked(snoops, parseDouble, nonNegative, "rate must be >= 0")},
        {"--package", "", "enable PC2/PC6 package states", store(package)},
        {"--pn", "", "run the active state at Pn (0.8 GHz)", store(pn)},
        {"--estimate-aw", "", "also print the Eq. 4 AW estimate",
         store(estimate_aw)},
        {"--trace", "FILE",
         "replay inter-arrival gaps from FILE (CSV, one gap in us per "
         "value; loops)",
         store(trace_path)},
        {"--trace-chrome", "FILE",
         "write the request trace as Chrome trace_event JSON, loadable "
         "in Perfetto / chrome://tracing",
         store(out.traceChrome)},
        {"", "", "fleet mode (--fleet)", {}},
        {"--fleet", "N", "simulate N servers behind a balancer",
         store(spec.fleetSizes, parseUnsigned<unsigned>)},
        {"--route", "NAME",
         "routing policy (default round-robin; route-to-headroom favors "
         "the server with the most watt headroom): " +
             join(cluster::routingPolicyNames()),
         store(spec.policies)},
        {"--pack-cap", "N", "pack-first spill threshold (default cores/2)",
         store(pack_cap, parseUnsigned<unsigned>)},
        {"--diurnal", "A", "sinusoidal diurnal load, amplitude A in [0,1]",
         store(diurnal, parseDouble)},
        {"--diurnal-period", "S",
         "length of one simulated \"day\" (default 1 s)",
         store(diurnal_period, parseDouble)},
        {"--flash", "SPIKE",
         "flash-crowd load: SPIKE x the base rate for the middle quarter "
         "of each --diurnal-period (extra traffic, not renormalized; "
         "excludes --diurnal)",
         checked(flash, parseDouble, positive,
                 "spike multiplier must be positive")},
    };
    const auto given =
        parse(argc, argv, "awsim -- AgileWatts C-state server simulator",
              std::move(flags), spec, out);
    if (slo > 0.0)
        spec.sloUs = {slo};
    if (spec.gridSize() != 1)
        sim::fatal("awsim runs one point: give each flag one value");

    const std::vector<std::string> fleet_only{
        "--route", "--pack-cap", "--diurnal", "--diurnal-period",
        "--flash", "--fleet-threads", "--epoch"};
    const auto last = std::find_first_of(given.rbegin(), given.rend(),
                                         fleet_only.begin(),
                                         fleet_only.end());
    if (spec.fleetSizes.empty() && last != given.rend())
        sim::fatal("%s requires --fleet N", last->c_str());
    if (diurnal < 0.0 || diurnal > 1.0)
        sim::fatal("--diurnal: amplitude must be in [0, 1]");
    if ((diurnal > 0.0 || flash > 0.0) && diurnal_period <= 0.0)
        sim::fatal("--diurnal-period: must be positive");
    if (diurnal > 0.0 && flash > 0.0)
        sim::fatal("--flash conflicts with --diurnal (pick one "
                   "load shape)");

    // The spec's one point, seeded with --seed itself; awsim's own
    // knobs go on top of the sweep's setup.
    auto pt = spec.expand().front();
    pt.seed = spec.seed;
    auto setup = exp::SweepRunner::setupPoint(spec, pt);
    server::ServerConfig &cfg = setup.fleet.server;
    cfg.snoopRatePerSec = snoops;
    cfg.runAtPn = pn;
    cfg.packageCStatesEnabled = package;
    // A replayed trace defines the offered rate.
    std::optional<workload::ArrivalTrace> trace;
    double qps = pt.qps;
    if (!trace_path.empty()) {
        trace = workload::ArrivalTrace::loadCsv(trace_path);
        qps = trace->meanRatePerSec();
    }

    cluster::FleetConfig &fc = setup.fleet;
    fc.packCapacity = pack_cap;
    if (diurnal > 0.0)
        fc.schedule = cluster::RateSchedule::sinusoidal(
            sim::fromSec(diurnal_period), diurnal);
    else if (flash > 0.0)
        fc.schedule = cluster::RateSchedule::flashCrowd(
            sim::fromSec(diurnal_period), flash);
    auto run = exp::SweepRunner::simulate(
        spec, setup, exp::profileByName(pt.workload), qps,
        std::move(trace));
    const std::string label =
        run.fleet ? printFleet(*run.fleet, fc) : printServer(*run.server, cfg);
    if (run.timeline)
        writeTimeline(*run.timeline, label, out);
    if (run.trace)
        writeRequestTrace(*run.trace, label, out);
    if (estimate_aw && run.server) {
        core::AwCoreModel aw_model;
        const analysis::CStatePowerModel model(
            server::StatePowers::fromModels(aw_model.ppa()));
        std::printf("\nEq. 4 AW savings estimate from this run's "
                    "residencies: %.1f%%\n",
                    100.0 * model.awSavingsVsMeasured(
                                run.server->residency,
                                run.server->avgCorePower));
    }
    return 0;
}
