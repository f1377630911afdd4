/**
 * @file
 * Output checks of the benchmark: digests of the simulated outputs,
 * conservation invariants, and the executed-vs-accounted view of a
 * fleet result. A non-empty error list marks the operation failed.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/fleet.hh"
#include "exp/runner.hh"

namespace perfbench {

using Errors = std::vector<std::string>;

/** Digest of every fleet-level result field plus the per-server
 *  routed and request vectors. */
std::string fleetDigest(const aw::cluster::FleetResult &r);

/** Conservation checks of one fleet result: one entry per server,
 *  sum of per-server requests == requests, sum of routed ==
 *  routed, and neverRouted == servers with nothing routed. */
Errors fleetInvariants(const aw::cluster::FleetResult &r);

/** Every grid point present, in its slot, with the coordinates of
 *  @p grid, and with completed requests. */
Errors sweepInvariants(const aw::exp::SweepResult &r,
                       const std::vector<aw::exp::GridPoint> &grid);

/** Digest of an artifact's bytes. */
std::string bytesDigest(const std::string &bytes);

/**
 * What a fleet run really executed. FleetSim simulates every routed
 * server plus one idle reference and copies that reference onto the
 * other never-routed servers, so FleetResult::events counts the
 * copies' events although they never ran.
 */
struct FleetAccounting
{
    unsigned serversSimulated = 0;
    unsigned serversIdleCopied = 0;
    std::uint64_t eventsExecuted = 0;
    std::uint64_t eventsAccounted = 0;
    std::uint64_t criticalServerEvents = 0; //!< busiest server's events
    std::vector<unsigned> simulated;         //!< their indices
    /** The never-routed server that ran for the copies, if any. */
    std::optional<unsigned> idleReference;
};

/** Derive the accounting from the public result, given whether the
 *  run used FleetConfig::idleFastPath. */
FleetAccounting fleetAccounting(const aw::cluster::FleetResult &r,
                                bool idle_fast_path);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
