#include "exp/spec.hh"

#include <cmath>
#include <tuple>

#include "cluster/routing.hh"
#include "cstate/governors.hh"
#include "freq/policies.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace aw::exp {

namespace {

/** One registry table per axis: the lookup functions and the
 *  advertised name lists both derive from it, so a new entry can
 *  never be half-registered. */
template <typename T> struct RegistryEntry
{
    const char *name;
    T (*make)();
};

const std::vector<RegistryEntry<workload::WorkloadProfile>> &
workloadRegistry()
{
    using workload::WorkloadProfile;
    static const std::vector<RegistryEntry<WorkloadProfile>> reg{
        {"memcached", &WorkloadProfile::memcached},
        {"mysql", &WorkloadProfile::mysql},
        {"kafka", &WorkloadProfile::kafka},
        {"specpower", &WorkloadProfile::specpower},
        {"nginx", &WorkloadProfile::nginx},
        {"spark", &WorkloadProfile::spark},
        {"hive", &WorkloadProfile::hive},
    };
    return reg;
}

const std::vector<RegistryEntry<server::ServerConfig>> &
configRegistry()
{
    using server::ServerConfig;
    static const std::vector<RegistryEntry<ServerConfig>> reg{
        {"baseline", &ServerConfig::baseline},
        {"aw", &ServerConfig::awBaseline},
        {"nt_baseline", &ServerConfig::ntBaseline},
        {"nt_no_c6", &ServerConfig::ntNoC6},
        {"nt_no_c6_no_c1e", &ServerConfig::ntNoC6NoC1e},
        {"nt_aw", &ServerConfig::ntAwNoC6NoC1e},
        {"t_no_c6", &ServerConfig::tNoC6},
        {"t_no_c6_no_c1e", &ServerConfig::tNoC6NoC1e},
        {"t_aw", &ServerConfig::tAwNoC6NoC1e},
        {"c1c6", &ServerConfig::legacyC1C6},
        {"c1only", &ServerConfig::legacyC1Only},
        {"aw_c6a", &ServerConfig::awC6aOnly},
    };
    return reg;
}

template <typename T>
T
byName(const std::vector<RegistryEntry<T>> &reg,
       const std::string &name, const char *what)
{
    for (const auto &entry : reg)
        if (name == entry.name)
            return entry.make();
    std::string known;
    for (const auto &entry : reg) {
        if (!known.empty())
            known += '|';
        known += entry.name;
    }
    sim::fatal("unknown %s '%s' (%s)", what, name.c_str(),
               known.c_str());
}

template <typename T>
std::vector<std::string>
registryNames(const std::vector<RegistryEntry<T>> &reg)
{
    std::vector<std::string> names;
    names.reserve(reg.size());
    for (const auto &entry : reg)
        names.emplace_back(entry.name);
    return names;
}

/** An empty axis expands as its one default value. */
template <typename T>
std::vector<T>
orDefault(const std::vector<T> &axis, T value)
{
    return axis.empty() ? std::vector<T>{std::move(value)} : axis;
}

/** The optional axes as the grid walks them, in expansion order:
 *  governors, freq policies, SLOs, caps, policies, fleet sizes,
 *  variants. */
auto
optionalAxes(const ExperimentSpec &s)
{
    return std::tuple(
        orDefault(s.governors, std::string()),
        orDefault(s.freqPolicies, std::string()),
        orDefault(s.sloUs, 0.0), orDefault(s.capWatts, 0.0),
        s.fleetSizes.empty()
            ? std::vector<std::string>{""}
            : orDefault(s.policies, std::string("round-robin")),
        orDefault(s.fleetSizes, 0u),
        orDefault(s.variants, std::string()));
}

/** (name, length) of every axis, in expansion order. */
std::vector<std::pair<const char *, std::size_t>>
axisSizes(const ExperimentSpec &s)
{
    const auto [govs, freqs, slos, caps, pols, fleets, vars] =
        optionalAxes(s);
    return {{"workloads", s.workloads.size()}, {"configs", s.configs.size()},
            {"governors", govs.size()}, {"freq policies", freqs.size()},
            {"SLOs", slos.size()}, {"caps", caps.size()},
            {"policies", pols.size()}, {"fleet sizes", fleets.size()},
            {"qps", s.qps.size()}, {"variants", vars.size()},
            {"replicas", s.replicas}};
}

} // namespace

workload::WorkloadProfile
profileByName(const std::string &name)
{
    return byName(workloadRegistry(), name, "workload");
}

server::ServerConfig
configByName(const std::string &name)
{
    return byName(configRegistry(), name, "config");
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names =
        registryNames(workloadRegistry());
    return names;
}

const std::vector<std::string> &
configNames()
{
    static const std::vector<std::string> names =
        registryNames(configRegistry());
    return names;
}

std::string
GridPoint::label() const
{
    std::string l = workload + "/" + config;
    if (!governor.empty())
        l += "/" + governor;
    if (!freqPolicy.empty())
        l += "/" + freqPolicy;
    if (sloUs > 0.0)
        l += sim::strprintf("/slo%gus", sloUs);
    if (capWatts > 0.0)
        l += sim::strprintf("/cap%gW", capWatts);
    if (!policy.empty())
        l += "/" + policy;
    if (servers > 0)
        l += sim::strprintf("/K%u", servers);
    l += sim::strprintf("/%.0fqps", qps);
    if (!variant.empty())
        l += "/" + variant;
    l += sim::strprintf("/r%u", replica);
    return l;
}

void
ExperimentSpec::validate() const
{
    if (workloads.empty())
        sim::fatal("ExperimentSpec '%s': empty workload axis",
                   name.c_str());
    if (configs.empty())
        sim::fatal("ExperimentSpec '%s': empty config axis",
                   name.c_str());
    if (qps.empty())
        sim::fatal("ExperimentSpec '%s': empty qps axis",
                   name.c_str());
    if (replicas == 0)
        sim::fatal("ExperimentSpec '%s': need at least 1 replica",
                   name.c_str());
    if (fleetSizes.empty() && !policies.empty())
        sim::fatal("ExperimentSpec '%s': routing policies require a "
                   "fleet-size axis",
                   name.c_str());
    if (qpsPerServer && fleetSizes.empty())
        sim::fatal("ExperimentSpec '%s': qpsPerServer requires a "
                   "fleet-size axis",
                   name.c_str());
    if (warmupSeconds >= 0.0 && seconds <= 0.0)
        sim::fatal("ExperimentSpec '%s': warmupSeconds requires an "
                   "explicit seconds (the auto-sized window picks "
                   "its own warmup)",
                   name.c_str());
    if (timelineIntervalSeconds < 0.0 ||
        !std::isfinite(timelineIntervalSeconds))
        sim::fatal("ExperimentSpec '%s': timelineIntervalSeconds "
                   "must be >= 0 (0 disables the sampler; got %f)",
                   name.c_str(), timelineIntervalSeconds);
    if (epochSeconds < 0.0 || !std::isfinite(epochSeconds))
        sim::fatal("ExperimentSpec '%s': epochSeconds must be a "
                   "finite non-negative number (0 = one epoch "
                   "spanning the run; got %f)",
                   name.c_str(), epochSeconds);
    if (const std::size_t n = gridSize(); n > kMaxGridPoints) {
        std::string sizes;
        for (const auto &[axis, size] : axisSizes(*this))
            sizes += sim::strprintf("%s%zu %s", sizes.empty() ? "" : " x ",
                                    size, axis);
        sim::fatal("ExperimentSpec '%s': %zu grid points (%s) exceed "
                   "the ceiling of %zu",
                   name.c_str(), n, sizes.c_str(), kMaxGridPoints);
    }

    // Resolve every axis value now so a bad name dies here, on the
    // caller's thread, not inside a worker mid-sweep.
    for (const auto &w : workloads)
        profileByName(w);
    for (const auto &c : configs)
        configByName(c);
    for (const auto &g : governors) {
        // Resolve every (config, governor) pairing the grid will
        // actually run, so a static:<state> spec naming a state
        // some config disables dies here -- before the sweep
        // launches -- instead of killing a worker mid-run with all
        // completed points lost.
        for (const auto &c : configs) {
            const auto policy =
                cstate::makeGovernor(g, configByName(c).cstates);
            if (policy->needsOracle() && !fleetSizes.empty())
                sim::fatal("ExperimentSpec '%s': governor '%s' is "
                           "single-server only (fleet dispatch has "
                           "no per-core arrival foreknowledge)",
                           name.c_str(), g.c_str());
            if (policy->needsOracle() && dispatch == "packing")
                sim::fatal("ExperimentSpec '%s': governor '%s' "
                           "needs static dispatch",
                           name.c_str(), g.c_str());
        }
    }
    for (const auto &f : freqPolicies) {
        // Resolve every (config, freq policy) pairing against the
        // config's own P-state table, mirroring the governor check:
        // a bad spec dies here, not inside a sweep worker.
        for (const auto &c : configs)
            freq::makeFreqPolicy(
                f, freq::PStateLadder(configByName(c).pstates));
    }
    for (const double s : sloUs)
        if (s < 0.0 || !std::isfinite(s))
            sim::fatal("ExperimentSpec '%s': sloUs values must be "
                       "finite and non-negative (0 = unconstrained; "
                       "got %f)",
                       name.c_str(), s);
    for (const double w : capWatts)
        if (w < 0.0 || !std::isfinite(w))
            sim::fatal("ExperimentSpec '%s': capWatts values must "
                       "be finite and non-negative (0 = uncapped; "
                       "got %f)",
                       name.c_str(), w);
    if (!dispatch.empty())
        server::dispatchPolicyByName(dispatch);
    for (const auto &p : policies)
        cluster::makeRoutingPolicy(p, 1);
    for (const unsigned k : fleetSizes)
        if (k == 0)
            sim::fatal("ExperimentSpec '%s': fleet size 0 (need at "
                       "least 1 server; leave the fleet-size axis "
                       "empty for single-server sweeps)",
                       name.c_str());
    for (const double q : qps)
        if (!(q > 0.0) || !std::isfinite(q))
            sim::fatal("ExperimentSpec '%s': qps values must be "
                       "positive (got %f)",
                       name.c_str(), q);
}

std::size_t
ExperimentSpec::gridSize() const
{
    // Saturates instead of wrapping, so the ceiling in validate()
    // catches any product too large to count.
    std::size_t n = 1;
    for (const auto &axis : axisSizes(*this))
        if (__builtin_mul_overflow(n, axis.second, &n))
            return SIZE_MAX;
    return n;
}

std::vector<GridPoint>
ExperimentSpec::expand() const
{
    validate();

    const auto [govs, freqs, slos, caps, pols, fleets, vars] =
        optionalAxes(*this);
    std::vector<GridPoint> grid;
    grid.reserve(gridSize());
    for (const auto &w : workloads)
      for (const auto &c : configs)
        for (const auto &g : govs)
          for (const auto &f : freqs)
            for (const double s : slos)
             for (const double cw : caps)
              for (const auto &p : pols)
                for (const unsigned k : fleets)
                    for (const double q : qps)
                        for (const auto &v : vars)
                            for (unsigned r = 0; r < replicas; ++r) {
                                GridPoint pt;
                                pt.index = grid.size();
                                pt.workload = w;
                                pt.config = c;
                                pt.governor = g;
                                pt.freqPolicy = f;
                                pt.sloUs = s;
                                pt.capWatts = cw;
                                pt.policy = p;
                                pt.servers = k;
                                pt.qps = qpsPerServer ? q * k : q;
                                pt.variant = v;
                                pt.replica = r;
                                pt.seed =
                                    sim::deriveSeed(seed, pt.index);
                                grid.push_back(std::move(pt));
                            }
    return grid;
}

} // namespace aw::exp
