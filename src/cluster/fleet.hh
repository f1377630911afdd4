/**
 * @file
 * Fleet simulation: many ServerSim instances behind a load
 * balancer.
 *
 * One offered arrival stream (synthetic, diurnal-shaped or a
 * captured trace) is split across K servers by a RoutingPolicy; the
 * per-server splits then drive independent ServerSim runs whose
 * RunResults are aggregated into fleet-level power, energy per
 * request, exact pooled latency percentiles and the per-server
 * residency spread. This is the layer where the paper's datacenter
 * argument (Sec 2: fleets provisioned for peak, idle in the trough)
 * meets its architecture: routing policy decides how much deep-idle
 * residency a fleet can harvest, and the C-state configuration
 * decides what that residency is worth.
 *
 * For policies that read occupancy (RoutingPolicy::readsOccupancy():
 * least-outstanding, pack-first, route-to-headroom) the load
 * balancer tracks per-server outstanding work with an LB-side
 * estimate (each routed request occupies its server for one drawn
 * service time), mirroring the connection-count estimates real L7
 * balancers route on. Occupancy-blind policies (round-robin,
 * random) route without one, and the balancer keeps none for them:
 * the estimate draws from a stream of its own, so skipping it moves
 * no routing decision. Because that stream's sequence depends on the
 * seed alone, a run allowed more than one fleet thread draws it
 * ahead on a producer thread (sim::DrawAhead) while the balancer
 * routes; pack-first finds its spill target in an
 * UnderCapacityIndex instead of scanning the packed prefix.
 *
 * The balancer never reads server state, so a server's input up to
 * its last routed arrival is final the moment it is routed. With
 * epochs on and more than one fleet thread, the first servers routed
 * to (at most 64) are streamed: at every epoch hand-over the
 * balancer gives each its newly routed gaps (a workload::GapStream)
 * and budget spans, and the pool advances it to one tick before its
 * last known arrival, while the balancer routes on. The rest run
 * after the pass, as every server does at one fleet thread.
 */

#ifndef AW_CLUSTER_FLEET_HH
#define AW_CLUSTER_FLEET_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/sampler.hh"
#include "analysis/trace.hh"
#include "cluster/diurnal.hh"
#include "cluster/routing.hh"
#include "server/server_sim.hh"
#include "workload/trace.hh"

namespace aw::cluster {

/**
 * Everything needed to instantiate a FleetSim.
 */
struct FleetConfig
{
    /** Number of servers behind the balancer. */
    unsigned servers = 8;

    /** Per-server configuration template. Each server gets an
     *  independently derived seed (sim::deriveSeed(seed, i)).
     *  Consider setting server.idlePromotion: without cpuidle-style
     *  tick re-selection a server that never sees traffic camps in
     *  the shallowest state its history-less governor picked, which
     *  is neither what real machines do nor a fair baseline for
     *  consolidation policies whose point is spare-server deep
     *  idle. awsim's fleet mode and the fleet bench/example enable
     *  it. */
    server::ServerConfig server = server::ServerConfig::baseline();

    /** Routing policy name (see cluster/routing.hh). */
    std::string routing = "round-robin";

    /** Pack-first spill threshold: outstanding requests one server
     *  absorbs before traffic overflows to the next. 0 = auto
     *  (half the server's cores, targeting ~50% utilization on the
     *  packed servers). */
    unsigned packCapacity = 0;

    /** Top-level seed; the balancer and every server derive
     *  decorrelated streams from it. */
    std::uint64_t seed = 42;

    /** Offered-load shaping (flat by default). */
    RateSchedule schedule = RateSchedule::flat();

    /** Worker threads for the per-server runs. The K per-server
     *  event streams are fully independent (the balancer routes on
     *  its own a priori occupancy estimate, never on live server
     *  state), so they partition across threads, and with epochs
     *  on the first servers routed to run while the balancer still
     *  routes; each run writes into a pre-assigned result slot and
     *  aggregation walks the slots in index order, making every
     *  result and artifact bit-identical to the serial reference at
     *  any thread count. 0 = hardware concurrency; 1 (the default)
     *  = the serial reference path: balancer pass first, then every
     *  server in one run() call. */
    unsigned fleetThreads = 1;

    /** Routing-decision epoch length in seconds. The balancer
     *  publishes its completion estimates (drains the in-flight
     *  heap) at every epoch boundary in addition to the per-decision
     *  drain. The boundary drain pops exactly the entries the next
     *  per-decision drain would pop anyway, in the same heap order,
     *  so results are byte-identical for ANY epoch length (pinned
     *  by tests, including a boundary landing exactly on a routing
     *  decision). Epochs are also the hand-over cadence: beyond one
     *  fleet thread, streamed servers get their newly routed gaps
     *  at each boundary and advance behind the balancer, so a
     *  shorter epoch keeps them closer behind it. 0 (the default) =
     *  one epoch spanning the run, nothing streamed. */
    double epochSeconds = 0.0;

    /** Fleet power-budget redistribution (active only when
     *  server.cap.capWatts > 0 and epochSeconds > 0): at every epoch
     *  boundary the balancer re-deals the fleet's total budget
     *  (servers * capWatts) from its own previous-epoch routing
     *  counts -- a kBaseShare floor per server plus a
     *  demand-proportional share of the pooled remainder (see
     *  cap::FleetBudgetPlanner). The schedules are a pure function
     *  of the serial balancer pass, so results stay bit-identical
     *  at any fleetThreads. Disable to hold every server at its
     *  nominal static cap. */
    bool capRedistribution = true;

    /** Homogeneous-idle fast path: servers the balancer never
     *  routed to are advanced by simulating ONE idle reference
     *  server and reusing its slot for every other never-routed
     *  server. Bit-identical to simulating each one, because an
     *  idle server's evolution is seed-independent: its arrival
     *  stream is a single never-firing gap and no per-server RNG is
     *  ever drawn (tests pin the identity). Fleets with snoop
     *  traffic (server.snoopRatePerSec > 0) never take it: each
     *  server's snoop stream is seeded from its own seed. Disable
     *  to force event-by-event simulation of every server. */
    bool idleFastPath = true;
};

/**
 * Results of one fleet run.
 */
struct FleetResult
{
    std::string routingName;
    std::string configName;
    std::string workloadName;
    unsigned servers = 0;
    double offeredQps = 0.0;
    sim::Tick window = 0;

    /** Completed requests in the measured window, fleet-wide. */
    std::uint64_t requests = 0;
    double achievedQps = 0.0;

    /** Kernel events executed across all servers (warmup included;
     *  perf telemetry only, never emitted into artifacts). */
    std::uint64_t events = 0;

    /** Arrivals the balancer routed over the whole run (including
     *  warmup), total and per server. */
    std::uint64_t routed = 0;
    std::vector<std::uint64_t> routedPerServer;

    /** @{ Fleet power/energy over the measured window. */
    power::Watts fleetPower = 0.0;   //!< sum of package powers
    power::Joules fleetEnergy = 0.0; //!< fleetPower x window
    double energyPerRequestMj = 0.0; //!< millijoules per request
    /** @} */

    /** @{ Pooled per-request latency (exact, not per-server means). */
    double avgLatencyUs = 0.0;
    double p99LatencyUs = 0.0;
    double p999LatencyUs = 0.0;
    /** @} */

    /** Core-time-weighted fleet C-state residency. */
    cstate::ResidencySnapshot residency;

    /** Fleet share of time in the C6 family (C6, C6A, C6AE). */
    double deepIdleShare = 0.0;

    /** @{ Per-server deep-idle spread: packing shows up as a wide
     *  [min, max] band (loaded servers shallow, spares deep). */
    double minServerDeepShare = 0.0;
    double maxServerDeepShare = 0.0;
    /** @} */

    /** Largest per-server share of routed arrivals (1/K = even). */
    double busiestShareOfLoad = 0.0;

    /** @{ Power-cap / thermal aggregates over the measured window
     *  (all zero while the cap subsystem is disabled): server-mean
     *  share of the window throttled, forced-idle naps fleet-wide,
     *  and the hottest junction temperature any server reached. */
    double capThrottleShare = 0.0;
    std::uint64_t forcedIdleNaps = 0;
    double maxTempC = 0.0;
    /** @} */

    /** Servers the balancer never routed to (candidates for the
     *  homogeneous-idle fast path; diagnostics only, never part of
     *  artifact schemas). */
    unsigned neverRouted = 0;

    /** Servers advanced behind the balancer during its pass (0 at
     *  one fleet thread or without epochs; diagnostics only, never
     *  part of artifact schemas). */
    unsigned streamed = 0;

    std::vector<server::RunResult> perServer;

    /** Fleet-folded interval timeline (requests/power summed,
     *  residency core-weighted, p99 pooled exactly); present only
     *  when FleetSim::enableTimeline() was called before run(). */
    std::optional<analysis::TimelineSeries> timeline;

    /** Fleet-merged request trace (per-server spans interleaved by
     *  completion, balancer routing decisions attached); present
     *  only when FleetSim::enableRequestTrace() was called before
     *  run(). */
    std::optional<analysis::TraceSeries> trace;
};

/** Share of @p r spent in the C6 family (C6 + C6A + C6AE). */
double deepIdleShare(const cstate::ResidencySnapshot &r);

/**
 * Driver: split the offered stream, run the servers, aggregate.
 */
class FleetSim
{
  public:
    /**
     * @param cfg        fleet configuration
     * @param profile    workload every server runs
     * @param total_qps  offered load across the whole fleet
     */
    FleetSim(FleetConfig cfg, workload::WorkloadProfile profile,
             double total_qps);

    /**
     * Replay @p trace as the fleet's offered stream (looped) instead
     * of the profile's synthetic arrivals. The schedule still
     * applies on top.
     */
    void setArrivalTrace(workload::ArrivalTrace trace);

    /**
     * Run @p warmup of unmeasured time followed by @p duration of
     * measured time on every server.
     */
    FleetResult run(sim::Tick duration, sim::Tick warmup);

    /** Convenience: run with defaults sized to the offered rate. */
    FleetResult run();

    const FleetConfig &config() const { return _cfg; }

    /** Effective pack-first capacity after the auto default. */
    unsigned packCapacity() const;

    /**
     * Record a per-server timeline during run() and fold it into
     * FleetResult::timeline. Latency retention is forced on (the
     * fold needs the raw samples for exact pooled percentiles).
     * The sampler is passive, so enabling it leaves every other
     * result field byte-identical.
     */
    void enableTimeline(const analysis::TimelineConfig &cfg);

    /**
     * Record a per-server request trace during run() and merge it
     * into FleetResult::trace, with the balancer's measured-window
     * routing decisions attached. The tracer is passive, so
     * enabling it leaves every other result field byte-identical.
     * Composes with enableTimeline() (both observers fan out).
     */
    void enableRequestTrace(const analysis::TraceConfig &cfg);

  private:
    std::unique_ptr<workload::ArrivalProcess> makeOfferedStream() const;

    FleetConfig _cfg;
    workload::WorkloadProfile _profile;
    double _totalQps;
    std::optional<workload::ArrivalTrace> _trace;
    std::optional<analysis::TimelineConfig> _timeline;
    std::optional<analysis::TraceConfig> _requestTrace;
};

} // namespace aw::cluster

#endif // AW_CLUSTER_FLEET_HH
