#include "cluster/routing.hh"

#include "sim/logging.hh"

namespace aw::cluster {

std::size_t
FleetView::firstUnderCapacity(unsigned capacity) const
{
    const std::size_t n = servers();
    for (std::size_t i = 0; i < n; ++i)
        if (outstanding(i) < capacity)
            return i;
    return n;
}

UnderCapacityIndex::UnderCapacityIndex(
    const std::vector<unsigned> &counts, unsigned capacity)
    : _counts(counts), _capacity(capacity),
      _words((counts.size() + 63) / 64, 0),
      _summary((_words.size() + 63) / 64, 0)
{
    if (capacity == 0)
        sim::panic("UnderCapacityIndex: capacity must be positive");
    for (std::size_t i = 0; i < counts.size(); ++i)
        if (counts[i] < capacity)
            set(i);
}

std::size_t
RoundRobinRouting::route(const FleetView &view, sim::Rng &)
{
    return _next++ % view.servers();
}

std::size_t
RandomRouting::route(const FleetView &view, sim::Rng &rng)
{
    return static_cast<std::size_t>(
        rng.uniformInt(0, view.servers() - 1));
}

std::size_t
LeastOutstandingRouting::route(const FleetView &view, sim::Rng &)
{
    const std::size_t n = view.servers();
    if (n == 0)
        return 0;
    std::size_t best = 0;
    unsigned best_out = view.outstanding(0);
    for (std::size_t i = 1; i < n; ++i) {
        const unsigned out = view.outstanding(i);
        if (out < best_out) {
            best = i;
            best_out = out;
        }
    }
    return best;
}

PackFirstRouting::PackFirstRouting(unsigned capacity)
    : _capacity(capacity)
{
    if (capacity == 0)
        sim::fatal("PackFirstRouting: capacity must be positive");
}

std::size_t
PackFirstRouting::route(const FleetView &view, sim::Rng &)
{
    const std::size_t n = view.servers();
    if (n == 0)
        return 0;
    const std::size_t first = view.firstUnderCapacity(_capacity);
    if (first < n)
        return first;
    // Everyone at capacity: spill to the least loaded.
    std::size_t best = 0;
    unsigned best_out = view.outstanding(0);
    for (std::size_t i = 1; i < n; ++i) {
        const unsigned out = view.outstanding(i);
        if (out < best_out) {
            best = i;
            best_out = out;
        }
    }
    return best;
}

std::size_t
RouteToHeadroomRouting::route(const FleetView &view, sim::Rng &)
{
    const std::size_t n = view.servers();
    if (n == 0)
        return 0;
    std::size_t best = 0;
    double best_headroom = view.headroomWatts(0);
    for (std::size_t i = 1; i < n; ++i) {
        const double headroom = view.headroomWatts(i);
        if (headroom > best_headroom) {
            best = i;
            best_headroom = headroom;
        }
    }
    return best;
}

std::unique_ptr<RoutingPolicy>
makeRoutingPolicy(const std::string &name, unsigned pack_capacity)
{
    if (name == "round-robin")
        return std::make_unique<RoundRobinRouting>();
    if (name == "random")
        return std::make_unique<RandomRouting>();
    if (name == "least-outstanding")
        return std::make_unique<LeastOutstandingRouting>();
    if (name == "pack-first")
        return std::make_unique<PackFirstRouting>(pack_capacity);
    if (name == "route-to-headroom")
        return std::make_unique<RouteToHeadroomRouting>();
    sim::fatal("unknown routing policy '%s' (round-robin|random|"
               "least-outstanding|pack-first|route-to-headroom)",
               name.c_str());
}

const std::vector<std::string> &
routingPolicyNames()
{
    static const std::vector<std::string> names{
        "round-robin", "random", "least-outstanding", "pack-first",
        "route-to-headroom"};
    return names;
}

} // namespace aw::cluster
