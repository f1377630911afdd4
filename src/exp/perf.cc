#include "exp/perf.hh"

#include <chrono>

#include "cluster/fleet.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "server/server_sim.hh"
#include "sim/logging.hh"

namespace aw::exp {

namespace {

/** Horizon of a spec-driven run: measured window plus warmup. */
double
horizonSeconds(const ExperimentSpec &spec)
{
    const double warmup = spec.warmupSeconds >= 0.0
                              ? spec.warmupSeconds
                              : spec.seconds / 10.0;
    return spec.seconds + warmup;
}

/** Execute a sweep single-threaded and fold its totals. */
PerfTotals
sweepTotals(const ExperimentSpec &spec)
{
    const SweepRunner runner(1);
    const auto result = runner.run(spec);
    PerfTotals t;
    for (const auto &p : result.points) {
        const unsigned instances =
            p.point.servers > 0 ? p.point.servers : 1;
        t.simSeconds += horizonSeconds(spec) * instances;
        t.events += p.events;
        t.requests += p.requests;
    }
    return t;
}

std::vector<PerfScenario>
makeScenarios()
{
    std::vector<PerfScenario> s;

    // One loaded server: the single-point building block every
    // sweep scales from (memcached on the AW config at mid load).
    s.push_back(PerfScenario{
        "single_memcached",
        "1 server x memcached x aw config @ 200 KQPS, 1.0 s",
        []() {
            server::ServerSim srv(configByName("aw"),
                                  profileByName("memcached"),
                                  200e3);
            const auto r =
                srv.run(sim::fromSec(1.0), sim::fromSec(0.1));
            PerfTotals t;
            t.simSeconds = 1.1;
            t.events = r.events;
            t.requests = r.requests;
            return t;
        }});

    // The pinned fleet sweep: the PR-2/PR-3 headline grid, single
    // thread -- the scenario the >= 2x kernel-overhaul claim and
    // the CI regression gate are anchored on.
    s.push_back(PerfScenario{
        "fleet_sweep",
        "8-server fleet x {aw,c1c6} x {round-robin,pack-first} "
        "@ 400 KQPS, 0.3 s, 1 thread",
        []() {
            ExperimentSpec spec;
            spec.name = "awperf-fleet";
            spec.workloads = {"memcached"};
            spec.configs = {"aw", "c1c6"};
            spec.policies = {"round-robin", "pack-first"};
            spec.fleetSizes = {8};
            spec.qps = {400e3};
            spec.seconds = 0.3;
            spec.seed = 42;
            return sweepTotals(spec);
        }});

    // The governors axis: exercises every history-driven policy's
    // per-idle-period hot path (select/observe/promotion).
    s.push_back(PerfScenario{
        "governors_axis",
        "1 server x {c1c6,aw} x {menu,teo,ladder} x {50,200} KQPS, "
        "0.3 s, 1 thread",
        []() {
            ExperimentSpec spec;
            spec.name = "awperf-governors";
            spec.workloads = {"memcached"};
            spec.configs = {"c1c6", "aw"};
            spec.governors = {"menu", "teo", "ladder"};
            spec.qps = {50e3, 200e3};
            spec.seconds = 0.3;
            spec.seed = 42;
            return sweepTotals(spec);
        }});

    // The same pinned fleet sweep with the streaming sampler on:
    // gates the observer's overhead. Its event count must equal
    // fleet_sweep's exactly (the sampler observes, never perturbs,
    // the event stream) and its events/s ratio bounds the telemetry
    // tax.
    s.push_back(PerfScenario{
        "fleet_sweep_timeline",
        "fleet_sweep with --timeline (10 ms sampler) enabled, "
        "1 thread",
        []() {
            ExperimentSpec spec;
            spec.name = "awperf-fleet-timeline";
            spec.workloads = {"memcached"};
            spec.configs = {"aw", "c1c6"};
            spec.policies = {"round-robin", "pack-first"};
            spec.fleetSizes = {8};
            spec.qps = {400e3};
            spec.seconds = 0.3;
            spec.seed = 42;
            spec.timelineIntervalSeconds = 0.01;
            return sweepTotals(spec);
        }});

    // The same pinned fleet sweep with the request tracer on: gates
    // the tracer's overhead the same way. Its event and request
    // counts must equal fleet_sweep's exactly (the tracer is
    // passive) -- a CI-enforced proof that tracing never perturbs
    // the simulation.
    s.push_back(PerfScenario{
        "fleet_sweep_trace",
        "fleet_sweep with --trace-requests (span tracer) enabled, "
        "1 thread",
        []() {
            ExperimentSpec spec;
            spec.name = "awperf-fleet-trace";
            spec.workloads = {"memcached"};
            spec.configs = {"aw", "c1c6"};
            spec.policies = {"round-robin", "pack-first"};
            spec.fleetSizes = {8};
            spec.qps = {400e3};
            spec.seconds = 0.3;
            spec.seed = 42;
            spec.traceRequests = true;
            return sweepTotals(spec);
        }});

    // The DVFS governance axes: the joint freq x idle grid behind
    // the race-to-halt headline. Gates the dynamic-frequency hot
    // path -- per-level table swaps, ramp events, the ondemand/
    // conservative sampling ticks and racetohalt's edge observes --
    // against the pinned operating point's throughput.
    s.push_back(PerfScenario{
        "fleet_sweep_dvfs",
        "1 server x {c1c6,aw} x {racetohalt,ondemand,powersave} x "
        "slo {0,8 us} @ 200 KQPS, 0.3 s, 1 thread",
        []() {
            ExperimentSpec spec;
            spec.name = "awperf-dvfs";
            spec.workloads = {"memcached"};
            spec.configs = {"c1c6", "aw"};
            spec.freqPolicies = {"racetohalt", "ondemand",
                                 "powersave"};
            spec.sloUs = {0.0, 8.0};
            spec.qps = {200e3};
            spec.seconds = 0.3;
            spec.seed = 42;
            return sweepTotals(spec);
        }});

    // The power-capping axis (ROADMAP item 3): a capped flash
    // crowd through the headroom-routed fleet. Gates the cap
    // control loop's hot path -- per-interval controller steps,
    // forced-idle nap injection, the closed-form RC thermal
    // integration and the epoch budget redistribution -- under the
    // load shape capping exists for: a surge the provisioned
    // budget cannot absorb at full speed.
    s.push_back(PerfScenario{
        "fleet_sweep_cap",
        "4-server capped flash crowd (3x spike) x {aw_c6a,c1c6} @ "
        "18 W cap, thermal, route-to-headroom, 0.4 s, 1 thread",
        []() {
            PerfTotals t;
            for (const char *config : {"aw_c6a", "c1c6"}) {
                cluster::FleetConfig fc;
                fc.servers = 4;
                fc.server = configByName(config);
                fc.server.idlePromotion = true;
                fc.server.cap.capWatts = 18.0;
                fc.server.cap.thermalEnabled = true;
                fc.routing = "route-to-headroom";
                fc.seed = 42;
                fc.schedule = cluster::RateSchedule::flashCrowd(
                    sim::fromSec(0.4), 3.0);
                fc.epochSeconds = 0.05;
                cluster::FleetSim fleet(
                    fc, profileByName("memcached"), 200e3);
                const auto r = fleet.run(sim::fromSec(0.4),
                                         sim::fromSec(0.04));
                t.simSeconds += 0.44 * fc.servers;
                t.events += r.events;
                t.requests += r.requests;
            }
            return t;
        }});

    // Warehouse scale (ROADMAP item 1): a 10,000-server diurnal
    // memcached "day" through the epoch-parallel fleet kernel, as
    // the two paired headline points -- the AW config consolidated
    // by pack-first (mostly-idle fleet: the homogeneous-idle fast
    // path carries almost every server) and the tuned-C6 baseline
    // spread by round-robin (10k individually simulated servers).
    // Hardware fleet threads, 0.25 s routing epochs; results are
    // bit-identical to the serial reference either way.
    s.push_back(PerfScenario{
        "fleet_10k",
        "10,000-server diurnal memcached day: {aw x pack-first, "
        "c1c6 x round-robin} @ 3 MQPS, 2 s day, hardware fleet "
        "threads",
        []() {
            struct FleetPoint
            {
                const char *config;
                const char *routing;
            };
            PerfTotals t;
            for (const FleetPoint &p :
                 {FleetPoint{"aw", "pack-first"},
                  FleetPoint{"c1c6", "round-robin"}}) {
                cluster::FleetConfig fc;
                fc.servers = 10000;
                fc.server = configByName(p.config);
                fc.server.idlePromotion = true;
                fc.routing = p.routing;
                fc.seed = 42;
                fc.schedule = cluster::RateSchedule::sinusoidal(
                    sim::fromSec(2.0), 0.6);
                fc.fleetThreads = 0; // hardware concurrency
                fc.epochSeconds = 0.25;
                cluster::FleetSim fleet(
                    fc, profileByName("memcached"), 3e6);
                const auto r = fleet.run(sim::fromSec(2.0),
                                         sim::fromSec(0.2));
                t.simSeconds += 2.2 * fc.servers;
                t.events += r.events;
                t.requests += r.requests;
            }
            return t;
        }});

    return s;
}

} // namespace

const std::vector<PerfScenario> &
perfScenarios()
{
    static const auto scenarios = makeScenarios();
    return scenarios;
}

const PerfScenario *
findPerfScenario(const std::string &name)
{
    for (const auto &s : perfScenarios())
        if (s.name == name)
            return &s;
    return nullptr;
}

PerfMeasurement
measurePerfScenario(const PerfScenario &scenario, unsigned repeat)
{
    if (repeat == 0)
        sim::fatal("measurePerfScenario: repeat must be >= 1");
    PerfMeasurement m;
    m.name = scenario.name;
    m.repeat = repeat;
    for (unsigned i = 0; i < repeat; ++i) {
        const auto start = std::chrono::steady_clock::now();
        m.totals = scenario.run();
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (i == 0 || wall < m.wallSeconds)
            m.wallSeconds = wall;
    }
    return m;
}

std::string
perfToJson(const std::vector<PerfMeasurement> &runs)
{
    std::string out = "{\n";
    out += sim::strprintf("  \"schema\": \"%s\",\n", kPerfSchema);
    out += "  \"generator\": \"awperf\",\n";
    out += "  \"scenarios\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto &m = runs[i];
        out += i ? ",\n    {" : "\n    {";
        out += sim::strprintf(
            "\"name\": \"%s\", \"repeat\": %u, "
            "\"wall_s\": %.6g, \"sim_s\": %.10g, "
            "\"events\": %llu, \"requests\": %llu, "
            "\"sim_per_wall\": %.6g, \"events_per_s\": %.6g, "
            "\"requests_per_s\": %.6g}",
            m.name.c_str(), m.repeat, m.wallSeconds,
            m.totals.simSeconds,
            static_cast<unsigned long long>(m.totals.events),
            static_cast<unsigned long long>(m.totals.requests),
            m.simPerWall(), m.eventsPerSec(), m.requestsPerSec());
    }
    out += "\n  ]\n}\n";
    return out;
}

} // namespace aw::exp
