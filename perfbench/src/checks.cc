#include "checks.hh"

#include <algorithm>

#include "measure.hh"
#include "sim/logging.hh"

namespace perfbench {

using aw::sim::strprintf;

std::string
fleetDigest(const aw::cluster::FleetResult &r)
{
    Digest d;
    d.add(r.routingName);
    d.add(r.configName);
    d.add(r.workloadName);
    d.addU64(r.servers);
    d.addF64(r.offeredQps);
    d.addU64(r.window);
    d.addU64(r.requests);
    d.addF64(r.achievedQps);
    d.addU64(r.events);
    d.addU64(r.routed);
    d.addF64(r.fleetPower);
    d.addF64(r.fleetEnergy);
    d.addF64(r.energyPerRequestMj);
    d.addF64(r.avgLatencyUs);
    d.addF64(r.p99LatencyUs);
    d.addF64(r.p999LatencyUs);
    for (std::size_t s = 0; s < aw::cstate::kNumCStates; ++s) {
        d.addF64(r.residency.share[s]);
        d.addU64(r.residency.entries[s]);
    }
    d.addF64(r.deepIdleShare);
    d.addF64(r.minServerDeepShare);
    d.addF64(r.maxServerDeepShare);
    d.addF64(r.busiestShareOfLoad);
    d.addF64(r.capThrottleShare);
    d.addU64(r.forcedIdleNaps);
    d.addF64(r.maxTempC);
    d.addU64(r.neverRouted);
    for (const auto routed : r.routedPerServer)
        d.addU64(routed);
    for (const auto &s : r.perServer)
        d.addU64(s.requests);
    return d.hex();
}

Errors
fleetInvariants(const aw::cluster::FleetResult &r)
{
    Errors e;
    if (r.perServer.size() != r.servers ||
        r.routedPerServer.size() != r.servers) {
        e.push_back(strprintf("fleet: %u servers but %zu results and "
                              "%zu routed counts",
                              r.servers, r.perServer.size(),
                              r.routedPerServer.size()));
        return e;
    }
    std::uint64_t requests = 0;
    for (const auto &s : r.perServer)
        requests += s.requests;
    if (requests != r.requests)
        e.push_back(strprintf("fleet: per-server requests sum to %llu, "
                              "fleet reports %llu",
                              static_cast<unsigned long long>(requests),
                              static_cast<unsigned long long>(r.requests)));
    std::uint64_t routed = 0;
    unsigned never = 0;
    for (const auto n : r.routedPerServer) {
        routed += n;
        never += n == 0;
    }
    if (routed != r.routed)
        e.push_back(strprintf("fleet: per-server routed sum to %llu, "
                              "fleet reports %llu",
                              static_cast<unsigned long long>(routed),
                              static_cast<unsigned long long>(r.routed)));
    if (never != r.neverRouted)
        e.push_back(strprintf("fleet: %u servers saw no traffic, "
                              "fleet reports %u",
                              never, r.neverRouted));
    if (r.requests == 0)
        e.push_back("fleet: no request completed");
    return e;
}

Errors
sweepInvariants(const aw::exp::SweepResult &r,
                const std::vector<aw::exp::GridPoint> &grid)
{
    Errors e;
    if (r.points.size() != grid.size()) {
        e.push_back(strprintf("sweep: %zu points, grid has %zu",
                              r.points.size(), grid.size()));
        return e;
    }
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto &got = r.points[i].point;
        const auto &want = grid[i];
        if (got.index != i || got.label() != want.label() ||
            got.governor != want.governor ||
            got.freqPolicy != want.freqPolicy ||
            got.capWatts != want.capWatts || got.seed != want.seed)
            e.push_back(strprintf("sweep: slot %zu holds '%s', want "
                                  "'%s'",
                                  i, got.label().c_str(),
                                  want.label().c_str()));
        else if (r.points[i].requests == 0)
            e.push_back(strprintf("sweep: point '%s' completed no "
                                  "request",
                                  want.label().c_str()));
    }
    return e;
}

std::string
bytesDigest(const std::string &bytes)
{
    Digest d;
    d.add(bytes);
    return d.hex();
}

FleetAccounting
fleetAccounting(const aw::cluster::FleetResult &r, bool idle_fast_path)
{
    FleetAccounting a;
    a.eventsAccounted = r.events;
    for (unsigned i = 0; i < r.perServer.size(); ++i) {
        const std::uint64_t events = r.perServer[i].events;
        a.criticalServerEvents = std::max(a.criticalServerEvents, events);
        const bool idle = i < r.routedPerServer.size() &&
                          r.routedPerServer[i] == 0;
        if (idle_fast_path && idle) {
            if (a.idleReference) {
                ++a.serversIdleCopied;
                continue;
            }
            a.idleReference = i;
        }
        ++a.serversSimulated;
        a.eventsExecuted += events;
        a.simulated.push_back(i);
    }
    return a;
}

} // namespace perfbench
