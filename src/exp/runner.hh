/**
 * @file
 * Parallel sweep execution.
 *
 * SweepRunner expands an ExperimentSpec and executes the grid
 * points on a work-stealing sim::ThreadPool; every point's RNG
 * stream is derived from (spec seed, grid index) and each result is
 * written into its pre-assigned slot, so the folded SweepResult is
 * bit-identical regardless of thread count or completion order.
 */

#ifndef AW_EXP_RUNNER_HH
#define AW_EXP_RUNNER_HH

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/sampler.hh"
#include "analysis/trace.hh"
#include "cluster/fleet.hh"
#include "cstate/cstate.hh"
#include "exp/spec.hh"
#include "server/server_sim.hh"
#include "sim/thread_pool.hh"
#include "workload/trace.hh"

namespace aw::exp {

/** The pool moved to the base layer (sim/thread_pool.hh) so the
 *  cluster layer can parallelize within a fleet point; the exp-side
 *  name stays valid for existing users. */
using ThreadPool = sim::ThreadPool;

/**
 * Metrics of one executed grid point. The simulation fields are
 * filled by the default point function (single-server and fleet
 * runs alike; for a single server, power is the package power and
 * the per-server spread collapses to the deep-idle share). Custom
 * point functions may instead (or additionally) report named
 * extras, which the emitters append as CSV/JSON columns; every
 * point of a sweep must report the same extras keys in the same
 * order.
 */
struct PointResult
{
    GridPoint point;

    /** Kernel events executed by this point's simulation (work
     *  counter for perfbench's server.events; never part of the
     *  CSV/JSON schema). */
    std::uint64_t events = 0;

    std::uint64_t requests = 0;
    double achievedQps = 0.0;
    double windowSeconds = 0.0;
    double powerW = 0.0; //!< package power (fleet: summed)
    double energyPerRequestMj = 0.0;
    double avgLatencyUs = 0.0;
    double p99LatencyUs = 0.0;
    /** p99.9 of the same pooled samples; filled only when the spec
     *  set traceRequests (kept out of the pinned CSV schema). */
    double p999LatencyUs = 0.0;
    double deepIdleShare = 0.0;
    double minServerDeepShare = 0.0;
    double maxServerDeepShare = 0.0;
    double busiestShareOfLoad = 0.0; //!< 1/K even .. 1.0 (single srv)
    std::array<double, cstate::kNumCStates> residency{};

    std::vector<std::pair<std::string, double>> extras;

    /** Streaming interval telemetry; present only when the spec set
     *  timelineIntervalSeconds > 0 (fleet points carry the folded
     *  per-server series). Emitted by toTimelineCsv/Json, never by
     *  the regular artifact emitters. Held out of line and
     *  immutable (copies share it): a series is ~19.5 KB, which
     *  every slot of a sweep would carry even with telemetry off. */
    std::shared_ptr<const analysis::TimelineSeries> timeline;

    /** Tail-latency attribution of this point's request trace;
     *  present only when the spec set traceRequests. The raw spans
     *  are attributed and discarded point-by-point to bound sweep
     *  memory -- per-span artifacts come from awsim, not sweeps.
     *  Emitted by toTraceCsv/Json, never by the regular artifact
     *  emitters. */
    std::optional<analysis::TailAttribution> trace;
};

/** What one grid point runs. */
struct PointSetup
{
    /** fleet.server is the point's server config, seeded with the
     *  point's seed; a single-server point (fleet.servers == 0)
     *  runs it alone, a fleet point runs the whole FleetConfig. */
    cluster::FleetConfig fleet;
    sim::Tick duration = 0; //!< 0 = the simulators' auto-sized window
    sim::Tick warmup = 0;
};

/** What a point's simulation produced: the result of its ServerSim
 *  or FleetSim, and the timeline and request trace the spec asked
 *  for. */
struct PointRun
{
    std::optional<server::RunResult> server; //!< single-server point
    std::optional<cluster::FleetResult> fleet; //!< fleet point
    std::optional<analysis::TimelineSeries> timeline;
    std::optional<analysis::TraceSeries> trace;
};

/** Execute one grid point; must be pure in the point (same point,
 *  same result) for the determinism guarantee to hold. */
using PointFn = std::function<PointResult(const GridPoint &)>;

/**
 * An ordered sweep: one PointResult per grid cell, in expansion
 * order.
 */
struct SweepResult
{
    ExperimentSpec spec;
    std::vector<PointResult> points;

    /** Wall-clock of the run (diagnostics only; never emitted into
     *  artifacts, which must be schedule-independent). */
    double wallSeconds = 0.0;

    /** Coordinate filter for lookups; unset fields match any. The
     *  default member initializers let a designated initializer
     *  name only the axes it filters on without tripping
     *  -Wmissing-field-initializers. */
    struct Query
    {
        std::optional<std::string> workload{};
        std::optional<std::string> config{};
        std::optional<std::string> governor{};
        std::optional<std::string> freqPolicy{};
        std::optional<double> sloUs{};
        std::optional<double> capWatts{};
        std::optional<std::string> policy{};
        std::optional<std::string> variant{};
        std::optional<unsigned> servers{};
        std::optional<double> qps{};
        std::optional<unsigned> replica{};

        bool matches(const GridPoint &pt) const;
    };

    /** All points matching @p q, in grid order. */
    std::vector<const PointResult *> select(const Query &q) const;

    /** Exactly one match or fatal(). */
    const PointResult &at(const Query &q) const;
};

/**
 * Expand a spec and execute it on a ThreadPool.
 */
class SweepRunner
{
  public:
    /** @param threads  0 = hardware concurrency. */
    explicit SweepRunner(unsigned threads = 0) : _threads(threads) {}

    /** Run with the default simulation point function. */
    SweepResult run(const ExperimentSpec &spec) const;

    /** Run with a custom point function. */
    SweepResult run(const ExperimentSpec &spec,
                    const PointFn &fn) const;

    /**
     * The default point function: a FleetSim run for fleet points
     * (idle promotion on, like awsim's fleet mode), a ServerSim run
     * for single-server points. Exposed so custom functions can
     * wrap it.
     */
    static PointResult runPoint(const ExperimentSpec &spec,
                                const GridPoint &pt);

    /** The default point function's simulator inputs: the point's
     *  config with the spec's and the point's overrides, the fleet
     *  around it and the window. awsim builds its run from it. */
    static PointSetup setupPoint(const ExperimentSpec &spec,
                                 const GridPoint &pt);

    /** Run @p setup at @p qps, or replaying @p arrivals (looped),
     *  with the observers @p spec asks for; the default point
     *  function's simulation, shared with awsim. */
    static PointRun
    simulate(const ExperimentSpec &spec, const PointSetup &setup,
             const workload::WorkloadProfile &profile, double qps,
             std::optional<workload::ArrivalTrace> arrivals = {});

    unsigned threads() const
    {
        return ThreadPool::resolveThreads(_threads);
    }

  private:
    unsigned _threads;
};

} // namespace aw::exp

#endif // AW_EXP_RUNNER_HH
