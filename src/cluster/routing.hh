/**
 * @file
 * Fleet request routing: the load balancer's per-arrival decision
 * of which server takes the next request.
 *
 * Routing policy is the fleet-level analogue of the per-server
 * dispatch policy (server::DispatchPolicy): spread policies
 * (round-robin, random, least-outstanding) equalize load and leave
 * every server at the shallow-idle utilization the paper's Sec 2
 * measures, while pack-first consolidates traffic onto the fewest
 * servers so the remainder sink into deep idle -- the knob that
 * determines how much C-state residency a fleet can actually
 * harvest from a given offered load.
 */

#ifndef AW_CLUSTER_ROUTING_HH
#define AW_CLUSTER_ROUTING_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/random.hh"

namespace aw::cluster {

/**
 * The load balancer's view of the fleet at one routing decision:
 * how many requests it believes are outstanding at each server.
 */
class FleetView
{
  public:
    virtual ~FleetView() = default;

    virtual std::size_t servers() const = 0;

    /** Requests in flight at server @p i (LB-side estimate). */
    virtual unsigned outstanding(std::size_t i) const = 0;

    /**
     * The lowest-indexed server with outstanding work below
     * @p capacity, or servers() when every server is at or above
     * it. The default is the linear scan pack-first has always
     * routed with; views that keep an UnderCapacityIndex (the fleet
     * balancer's does) override it to answer from ceil(K/4096)
     * summary words instead of an O(K) scan -- the answer must be
     * identical.
     */
    virtual std::size_t firstUnderCapacity(unsigned capacity) const;

    /**
     * Estimated watts of power-cap headroom at server @p i: the
     * server's current budget minus the balancer's estimate of its
     * draw. Views without budget information (no cap configured)
     * return -outstanding(i), which makes headroom routing degrade
     * to exactly least-outstanding.
     */
    virtual double headroomWatts(std::size_t i) const
    {
        return -static_cast<double>(outstanding(i));
    }
};

/**
 * The servers whose outstanding count is below a fixed pack-first
 * capacity, kept so that "the lowest-indexed server below capacity"
 * need not scan the packed prefix: at K=10k nearly every pack-first
 * probe would otherwise walk hundreds of at-capacity servers.
 *
 * A two-level word bitset over a count column the caller owns and
 * changes one step at a time: bit i of the first level is set while
 * counts[i] < capacity, and bit w of the second level while
 * first-level word w is non-zero. first() scans ceil(K/4096)
 * summary words and then one first-level word; an update touches at
 * most one word of each level and never allocates. first() is
 * exactly FleetView::firstUnderCapacity()'s linear scan over the
 * same counts.
 */
class UnderCapacityIndex
{
  public:
    /** Index @p counts, which must outlive the index, against
     *  @p capacity (> 0). */
    UnderCapacityIndex(const std::vector<unsigned> &counts,
                       unsigned capacity);

    unsigned capacity() const { return _capacity; }

    /** Bookkeeping after counts[i] went up by one. */
    void
    onRouted(std::size_t i)
    {
        if (_counts[i] == _capacity)
            clear(i);
    }

    /** Bookkeeping after counts[i] went down by one. */
    void
    onCompleted(std::size_t i)
    {
        if (_counts[i] + 1 == _capacity)
            set(i);
    }

    /** The lowest-indexed server below capacity, or counts.size()
     *  when every server is at or above it. */
    std::size_t
    first() const
    {
        for (std::size_t s = 0; s < _summary.size(); ++s) {
            if (_summary[s] == 0)
                continue;
            const std::size_t w =
                s * 64 + std::countr_zero(_summary[s]);
            return w * 64 + std::countr_zero(_words[w]);
        }
        return _counts.size();
    }

  private:
    void
    set(std::size_t i)
    {
        const std::size_t w = i / 64;
        _words[w] |= std::uint64_t{1} << (i % 64);
        _summary[w / 64] |= std::uint64_t{1} << (w % 64);
    }

    void
    clear(std::size_t i)
    {
        const std::size_t w = i / 64;
        _words[w] &= ~(std::uint64_t{1} << (i % 64));
        if (_words[w] == 0)
            _summary[w / 64] &= ~(std::uint64_t{1} << (w % 64));
    }

    const std::vector<unsigned> &_counts;
    const unsigned _capacity;
    std::vector<std::uint64_t> _words;   //!< bit i: counts[i] < cap
    std::vector<std::uint64_t> _summary; //!< bit w: _words[w] != 0
};

/**
 * Interface: pick a server for the next arrival.
 */
class RoutingPolicy
{
  public:
    virtual ~RoutingPolicy() = default;

    virtual const char *name() const = 0;

    /** Choose a server index in [0, view.servers()). */
    virtual std::size_t route(const FleetView &view,
                              sim::Rng &rng) = 0;

    /**
     * Whether route() reads the view's occupancy estimate
     * (outstanding(), firstUnderCapacity(), headroomWatts()). The
     * fleet balancer keeps that estimate -- one service-time draw
     * and one in-flight heap entry per routed request -- only for
     * policies that read it. A policy that reports false may call
     * nothing on the view but servers().
     */
    virtual bool readsOccupancy() const { return true; }
};

/** Cycle through the servers in index order. */
class RoundRobinRouting : public RoutingPolicy
{
  public:
    const char *name() const override { return "round-robin"; }
    std::size_t route(const FleetView &view, sim::Rng &rng) override;
    bool readsOccupancy() const override { return false; }

  private:
    std::size_t _next = 0;
};

/** Uniform random server choice. */
class RandomRouting : public RoutingPolicy
{
  public:
    const char *name() const override { return "random"; }
    std::size_t route(const FleetView &view, sim::Rng &rng) override;
    bool readsOccupancy() const override { return false; }
};

/** Fewest outstanding requests; ties break to the lowest index. */
class LeastOutstandingRouting : public RoutingPolicy
{
  public:
    const char *name() const override { return "least-outstanding"; }
    std::size_t route(const FleetView &view, sim::Rng &rng) override;
};

/**
 * Consolidation: the lowest-indexed server with outstanding work
 * below @p capacity takes the request; only when every server is at
 * capacity does the policy fall back to least-outstanding. High-
 * numbered servers therefore see traffic only at peak and spend the
 * rest of the time in uninterrupted deep idle.
 */
class PackFirstRouting : public RoutingPolicy
{
  public:
    explicit PackFirstRouting(unsigned capacity);

    const char *name() const override { return "pack-first"; }
    std::size_t route(const FleetView &view, sim::Rng &rng) override;

    unsigned capacity() const { return _capacity; }

  private:
    unsigned _capacity;
};

/**
 * Power-cap awareness: route to the server with the most watts of
 * cap headroom (budget minus estimated draw); ties break to the
 * lowest index. With fleet budget redistribution this steers
 * traffic away from servers the planner squeezed (whose caps would
 * otherwise throttle the new arrival), and without any cap
 * information it reduces exactly to least-outstanding -- see
 * FleetView::headroomWatts().
 */
class RouteToHeadroomRouting : public RoutingPolicy
{
  public:
    const char *name() const override { return "route-to-headroom"; }
    std::size_t route(const FleetView &view, sim::Rng &rng) override;
};

/**
 * Build a policy by name: "round-robin", "random",
 * "least-outstanding", "pack-first" or "route-to-headroom".
 * @p pack_capacity is the PackFirstRouting spill threshold (ignored
 * by the others). Unknown names are fatal().
 */
std::unique_ptr<RoutingPolicy>
makeRoutingPolicy(const std::string &name, unsigned pack_capacity);

/** All routing policy names, for CLIs and sweeps. */
const std::vector<std::string> &routingPolicyNames();

} // namespace aw::cluster

#endif // AW_CLUSTER_ROUTING_HH
