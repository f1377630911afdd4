/**
 * @file
 * Server configuration: the BIOS/OS knob combinations the paper's
 * evaluation sweeps (Turbo on/off x C-state sets x AW), plus the
 * physical constants of the modeled machine.
 */

#ifndef AW_SERVER_CONFIG_HH
#define AW_SERVER_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cap/powercap.hh"
#include "cstate/config.hh"
#include "power/units.hh"
#include "server/package.hh"
#include "server/pstate.hh"
#include "server/turbo.hh"
#include "sim/types.hh"

namespace aw::server {

/** How arriving requests are mapped to cores. */
enum class DispatchPolicy
{
    /** Static partitioning: each core owns an equal slice of the
     *  offered load (pinned worker threads, the paper's setup). */
    Static,

    /** CARB-style packing: requests go to the lowest-numbered
     *  already-awake core with queue headroom, so the remaining
     *  cores see long idle periods (Sec 8's workload-aware idle
     *  management comparison point). */
    Packing,
};

/** @{ Name <-> value registry for DispatchPolicy, the same naming
 *  convention as the routing-policy and governor registries, so
 *  every policy axis parses and prints identically across awsim,
 *  awsweep and ExperimentSpec. Unknown names are fatal() with the
 *  known list. */
const char *name(DispatchPolicy policy);
DispatchPolicy dispatchPolicyByName(const std::string &name);
const std::vector<std::string> &dispatchPolicyNames();
/** @} */

/**
 * Everything needed to instantiate a ServerSim.
 */
struct ServerConfig
{
    std::string name = "baseline";

    /** Cores participating in request service. */
    unsigned cores = 10;

    /** Enabled idle states. */
    cstate::CStateConfig cstates = cstate::CStateConfig::legacyBaseline();

    /** Idle-governance policy spec (cstate::GovernorRegistry):
     *  "menu" (the behavior-preserving default), "teo", "ladder",
     *  "static:<state>" or "oracle". Each core clones its own
     *  instance from one prototype, so no prediction state is
     *  shared between cores. */
    std::string governor = "menu";

    /** Turbo Boost. P-states are disabled throughout the paper's
     *  evaluation, so there is no pstatesEnabled knob; C1E/C6AE
     *  still drop to Pn internally as part of their definition. */
    bool turboEnabled = true;

    /** Run the active state at the Pn (minimum) frequency point:
     *  the "pace" side of the race-to-halt analysis (Sec 8). */
    bool runAtPn = false;

    /** Request-to-core mapping. */
    DispatchPolicy dispatch = DispatchPolicy::Static;

    /** Max queued requests per core before packing spills over. */
    unsigned packingQueueLimit = 4;

    /** OS-tick idle-state promotion: a core still idle when the
     *  next tick fires re-runs state selection with the observed
     *  idle length and sinks into a deeper enabled state (cpuidle's
     *  tick re-selection). Off by default to keep the paper's
     *  expected-case single-server calibration; the fleet layer
     *  enables it so spare servers do not camp in C1 forever. */
    bool idlePromotion = false;
    sim::Tick idlePromotionTick = sim::fromMs(4.0);

    /** Optional package C-state hierarchy (PC2/PC6). Off by
     *  default, matching the paper's evaluation. */
    bool packageCStatesEnabled = false;
    PackageCStateModel::Params packageParams{};

    TurboModel::Params turboParams{};
    PStateTable pstates = PStateTable::xeonSilver4114();

    /** Frequency-governance policy spec (freq::FreqRegistry):
     *  "performance", "powersave", "ondemand", "conservative" or
     *  "racetohalt". Empty (the default) pins one ladder level (P1,
     *  or Pn under runAtPn): no re-evaluation events and no ramps
     *  on the hot path. Like `governor`, each core clones
     *  its own instance from one validated prototype. */
    std::string freqPolicy;

    /** PM-QoS-style per-request latency SLO in microseconds
     *  (freq::LatencyQoS). 0 (the default) = unconstrained; > 0
     *  filters the enabled idle states down to wakes the SLO can
     *  absorb and floors the DVFS ladder at build time. */
    double sloUs = 0.0;

    /** RAPL-style package power cap + RC thermal coupling
     *  (cap::CapConfig). Disabled by default: no control events,
     *  no enforcement machinery, artifacts byte-identical to a
     *  build without the subsystem. Enforcement precedence is
     *  cap -> QoS -> governor (docs/POWERCAP.md). */
    cap::CapConfig cap;

    /** Uncore (LLC, mesh, memory controllers) power, charged at
     *  package level regardless of core states. */
    power::Watts uncorePower = 18.0;

    /** Per-core snoop probe rate and private-cache hit fraction. */
    double snoopRatePerSec = 0.0;
    double snoopHitFraction = 0.3;

    /** Client-observed network round trip added to server latency
     *  for end-to-end numbers (paper: measured at 117 us). */
    sim::Tick networkLatency = sim::fromUs(117.0);

    /** RNG seed base; core i uses seed + i. */
    std::uint64_t seed = 42;

    /** @{ Named configurations from the evaluation (Secs 7.1-7.3).
     *  NT_* = no turbo; T_* = turbo enabled. */
    static ServerConfig baseline();          //!< P-off, Turbo+C on
    static ServerConfig awBaseline();        //!< baseline w/ C6A/C6AE
    static ServerConfig ntBaseline();        //!< Turbo off
    static ServerConfig ntNoC6();            //!< Turbo, C6 off
    static ServerConfig ntNoC6NoC1e();       //!< Turbo, C6, C1E off
    static ServerConfig ntAwNoC6NoC1e();     //!< NT + C6A only
    static ServerConfig tNoC6();             //!< Turbo on, C6 off
    static ServerConfig tNoC6NoC1e();        //!< Turbo on, C6+C1E off
    static ServerConfig tAwNoC6NoC1e();      //!< Turbo on + C6A only
    static ServerConfig legacyC1C6();        //!< MySQL/Kafka baseline
    static ServerConfig legacyC1Only();      //!< ... with C6 disabled
    static ServerConfig awC6aOnly();         //!< ... C1 -> C6A
    /** @} */
};

} // namespace aw::server

#endif // AW_SERVER_CONFIG_HH
