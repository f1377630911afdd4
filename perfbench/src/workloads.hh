/**
 * @file
 * The benchmark's three workloads. Each is a closed-loop batch job:
 * setup() builds what a run needs, run() executes one checked
 * operation with no instrumentation, and runTraced() executes the
 * untraced operation, an instrumented copy of it and the probes that
 * yield the per-layer metrics (see perfbench/README.md).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.hh"

namespace perfbench {

struct RunOptions
{
    std::uint64_t seed = 42;
    unsigned threads = 1;      //!< worker threads (sweep pool, fleet)
    std::string outDir = "."; //!< where artifacts are written
};

/** One untraced operation. */
struct OpOutcome
{
    double wallS = 0.0; //!< first run call .. results checked + written
    std::string digest;
    Errors errors;
};

using Metrics = std::vector<std::pair<std::string, double>>;

/** One traced run: per-layer metrics plus every operation it made. */
struct TracedOutcome
{
    /** The layers this workload exercises; run.py reports 0 for every
     *  per-layer metric left out. */
    Metrics metrics;
    std::vector<double> pointMs; //!< per grid point wall (sweep only)
    std::vector<std::pair<std::string, Errors>> ops;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Registries, AwCoreModel::canonical(), spec validation and
     *  expansion, simulator construction. */
    virtual void setup() = 0;

    virtual OpOutcome run() = 0;

    virtual TracedOutcome runTraced() = 0;
};

/** nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const RunOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
