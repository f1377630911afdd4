#include "cluster/fleet.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <mutex>
#include <queue>
#include <span>
#include <utility>

#include "cap/powercap.hh"
#include "cstate/governors.hh"
#include "freq/policies.hh"
#include "sim/draw_ahead.hh"
#include "sim/logging.hh"
#include "sim/thread_pool.hh"

namespace aw::cluster {

namespace {

/**
 * Structure-of-arrays snapshot of the balancer's per-server state.
 * Keeping the hot columns (outstanding counts, last-arrival ticks,
 * routed totals) in flat parallel vectors keeps the per-decision
 * loop cache-friendly at O(10k) servers, where most entries belong
 * to idle servers the routing policy skips over.
 */
struct LbState
{
    explicit LbState(unsigned k)
        : outstanding(k, 0), lastArrival(k, 0), routed(k, 0), gaps(k)
    {}

    std::vector<unsigned> outstanding;
    std::vector<sim::Tick> lastArrival;
    std::vector<std::uint64_t> routed;

    /** Per-server inter-arrival splits of the offered stream. */
    std::vector<std::vector<sim::Tick>> gaps;
};

/**
 * Concrete FleetView over the SoA outstanding column. When built
 * with a non-zero pack capacity it keeps an UnderCapacityIndex, so
 * pack-first's "lowest-indexed server below capacity" probe reads a
 * few bitset words instead of scanning the packed prefix.
 */
class IndexedView : public FleetView
{
  public:
    /**
     * @param budgets current per-server cap budgets, updated in
     *                place by the balancer at epoch boundaries;
     *                nullptr when no power cap is configured (the
     *                headroom default then makes route-to-headroom
     *                degrade to least-outstanding).
     * @param watts_per_request estimated draw one outstanding
     *                request adds (the ladder-top per-core active
     *                power: each request occupies one core).
     */
    IndexedView(const std::vector<unsigned> &counts,
                unsigned pack_capacity,
                const std::vector<power::Watts> *budgets = nullptr,
                double watts_per_request = 0.0)
        : _counts(counts), _budgets(budgets),
          _wattsPerRequest(watts_per_request)
    {
        if (pack_capacity > 0)
            _under.emplace(counts, pack_capacity);
    }

    std::size_t servers() const override { return _counts.size(); }
    unsigned outstanding(std::size_t i) const override
    {
        return _counts[i]; // route() is bounded by servers()
    }

    std::size_t firstUnderCapacity(unsigned capacity) const override
    {
        if (!_under || capacity != _under->capacity())
            return FleetView::firstUnderCapacity(capacity);
        return _under->first();
    }

    double headroomWatts(std::size_t i) const override
    {
        if (!_budgets)
            return FleetView::headroomWatts(i);
        return (*_budgets)[i] - _wattsPerRequest * _counts[i];
    }

    /** Balancer bookkeeping after routing to @p i. */
    void onRouted(std::size_t i)
    {
        if (_under)
            _under->onRouted(i);
    }

    /** Balancer bookkeeping after a completion at @p i. */
    void onCompleted(std::size_t i)
    {
        if (_under)
            _under->onCompleted(i);
    }

  private:
    const std::vector<unsigned> &_counts;
    const std::vector<power::Watts> *_budgets;
    const double _wattsPerRequest;
    std::optional<UnderCapacityIndex> _under;
};

/** One request in flight in the balancer's occupancy estimate. */
struct InFlight
{
    sim::Tick done;
    std::size_t server;

    bool operator>(const InFlight &o) const { return done > o.done; }
};

using InFlightHeap =
    std::priority_queue<InFlight, std::vector<InFlight>,
                        std::greater<InFlight>>;

/** Results of one per-server run, written into its pre-assigned
 *  slot by whichever worker executed it. Telemetry series live in
 *  side vectors sized only when telemetry is on: a TimelineSeries
 *  is ~19.5 KB, which K slots would pay even with it off. */
struct ServerSlot
{
    server::RunResult result;
    std::vector<double> latency; //!< sorted ascending
};

/** Servers a run advances behind the balancer at most: the first
 *  ones routed to. A constructed ServerSim holds ~70 KB, so the
 *  bound keeps a spread day's live servers to a few MB; the rest
 *  run after the pass. */
constexpr std::size_t kMaxLiveServers = 64;

/** One server's run: the simulator, the gap stream that feeds it
 *  and its telemetry observers. Heap-held, because the fan-out
 *  points into it. */
struct ServerRun
{
    std::optional<server::ServerSim> srv;
    workload::GapStream *gaps = nullptr; //!< owned by srv
    std::optional<analysis::TimelineRecorder> recorder;
    std::optional<analysis::RequestTracer> tracer;
    server::TelemetryFanout fanout;
    bool begun = false;
};

/**
 * Hand-over box of one server streamed behind the balancer. The
 * balancer posts gaps, budget spans and finally the close under the
 * lock, and submits a task only while none is queued; the task
 * empties the box until it finds it empty. So one server's pieces
 * never overlap, and they run in hand-over order.
 */
struct Inbox
{
    explicit Inbox(unsigned s) : server(s) {}

    const unsigned server;
    std::mutex mtx;
    std::vector<sim::Tick> gaps;
    std::vector<cap::BudgetSpan> spans;
    bool close = false;
    bool queued = false;
    std::unique_ptr<ServerRun> run; //!< touched by the task only
};

/** Move @p from onto the end of @p to, leaving @p from empty. */
template <typename T>
void
moveAppend(std::vector<T> &to, std::vector<T> &from)
{
    if (to.empty()) {
        to.swap(from);
        return;
    }
    to.insert(to.end(), from.begin(), from.end());
    from.clear();
}

} // namespace

double
deepIdleShare(const cstate::ResidencySnapshot &r)
{
    return r.shareOf(cstate::CStateId::C6) +
           r.shareOf(cstate::CStateId::C6A) +
           r.shareOf(cstate::CStateId::C6AE);
}

FleetSim::FleetSim(FleetConfig cfg, workload::WorkloadProfile profile,
                   double total_qps)
    : _cfg(std::move(cfg)), _profile(std::move(profile)),
      _totalQps(total_qps)
{
    if (_cfg.servers == 0)
        sim::fatal("FleetSim: need at least one server");
    if (total_qps <= 0.0)
        sim::fatal("FleetSim: offered load must be positive");
    if (!std::isfinite(_cfg.epochSeconds) || _cfg.epochSeconds < 0.0)
        sim::fatal("FleetSim: epoch length must be a finite "
                   "non-negative number of seconds (got %g)",
                   _cfg.epochSeconds);
    // Validate the policy and governor names up front, not at
    // run() time. Fleet servers are driven by centrally dispatched
    // per-server splits, so clairvoyant governors have no per-core
    // foreknowledge to draw on.
    makeRoutingPolicy(_cfg.routing, packCapacity());
    if (cstate::makeGovernor(_cfg.server.governor,
                             _cfg.server.cstates)
            ->needsOracle()) {
        sim::fatal("FleetSim: governor '%s' is single-server only "
                   "(fleet dispatch has no per-core arrival "
                   "foreknowledge)",
                   _cfg.server.governor.c_str());
    }
    _cfg.server.pstates.validate();
    if (!_cfg.server.freqPolicy.empty())
        freq::makeFreqPolicy(_cfg.server.freqPolicy,
                             freq::PStateLadder(_cfg.server.pstates));
    _cfg.server.cap.validate();
}

void
FleetSim::setArrivalTrace(workload::ArrivalTrace trace)
{
    if (trace.empty())
        sim::fatal("FleetSim: empty arrival trace");
    _trace = std::move(trace);
}

void
FleetSim::enableTimeline(const analysis::TimelineConfig &cfg)
{
    _timeline = cfg;
    _timeline->retainLatencies = true; // pooled per-interval p99
}

void
FleetSim::enableRequestTrace(const analysis::TraceConfig &cfg)
{
    if (cfg.capacity == 0)
        sim::fatal("FleetSim: trace ring capacity must be > 0");
    _requestTrace = cfg;
}

unsigned
FleetSim::packCapacity() const
{
    if (_cfg.packCapacity > 0)
        return _cfg.packCapacity;
    return std::max(1u, _cfg.server.cores / 2);
}

std::unique_ptr<workload::ArrivalProcess>
FleetSim::makeOfferedStream() const
{
    std::unique_ptr<workload::ArrivalProcess> base;
    if (_trace) {
        base = std::make_unique<workload::TraceArrivals>(
            *_trace, /*loop=*/true);
    } else {
        base = _profile.makeArrivals(_totalQps);
    }
    if (_cfg.schedule.isFlat())
        return base;
    return std::make_unique<DiurnalArrivals>(std::move(base),
                                             _cfg.schedule);
}

FleetResult
FleetSim::run(sim::Tick duration, sim::Tick warmup)
{
    const sim::Tick horizon = duration + warmup;
    const unsigned K = _cfg.servers;

    // ------------------------------------------------- balancer pass
    // Split the offered stream into per-server gap sequences. For
    // policies that read occupancy, the balancer keeps an estimate
    // per server: each routed request holds its server for one drawn
    // service time, the same outstanding-work signal real L7
    // balancers route on. The estimate lives entirely on the
    // balancer side (it never reads live server state), which is
    // what makes the per-server phase below embarrassingly parallel.
    auto offered = makeOfferedStream();
    auto policy = makeRoutingPolicy(_cfg.routing, packCapacity());
    const bool keep_estimate = policy->readsOccupancy();
    sim::Rng lb_rng(sim::deriveSeed(_cfg.seed, K));
    sim::Rng est_rng(sim::deriveSeed(_cfg.seed, K + 1));
    const auto drawEstimate = [this, &est_rng] {
        workload::ServiceModel &service = _profile.service();
        return service.draw(est_rng).duration(
            service.referenceFrequency());
    };
    // The balancer consumes est_rng strictly in order, one draw per
    // routed request, so its sequence depends on the seed alone and
    // can be drawn ahead on a producer thread when the run may use
    // more than one. Draws left in the ring at the end are dropped
    // with it: est_rng is private to this pass.
    std::optional<sim::DrawAhead<sim::Tick>> estimates;
    if (keep_estimate &&
        sim::ThreadPool::resolveThreads(_cfg.fleetThreads) > 1)
        estimates.emplace([&drawEstimate](std::span<sim::Tick> out) {
            for (sim::Tick &t : out)
                t = drawEstimate();
        });

    LbState lb(K);

    const sim::Tick epoch = _cfg.epochSeconds > 0.0
                                ? sim::fromSec(_cfg.epochSeconds)
                                : 0;

    // Power-budget redistribution state. Every server starts the
    // run at its nominal cap; at each epoch boundary the planner
    // re-deals the fleet total from the balancer's own routing
    // counts of the epoch just ended (one-epoch lag), and only
    // budget *changes* append a schedule span. All of this is a
    // pure function of the serial balancer pass, so schedules --
    // and therefore every per-server run -- are bit-identical at
    // any fleetThreads.
    const bool cap_on = _cfg.server.cap.capWatts > 0.0;
    const bool redistribute =
        cap_on && _cfg.capRedistribution && epoch > 0;
    std::vector<power::Watts> cur_budget;
    if (cap_on)
        cur_budget.assign(K, _cfg.server.cap.capWatts);
    std::optional<cap::FleetBudgetPlanner> planner;
    std::vector<std::vector<cap::BudgetSpan>> cap_spans;
    std::vector<std::uint64_t> epoch_routed;
    if (redistribute) {
        planner.emplace(_cfg.server.cap.capWatts, K);
        cap_spans.resize(K);
        epoch_routed.assign(K, 0);
    }

    // The under-capacity index only pays for itself when someone
    // asks the question it answers. Headroom routing estimates one
    // busy core's draw at P1 per outstanding request.
    IndexedView view(lb.outstanding,
                     _cfg.routing == "pack-first" ? packCapacity()
                                                  : 0,
                     cap_on ? &cur_budget : nullptr,
                     cstate::kC0PowerP1);
    InFlightHeap in_flight;

    // Completion estimates are published by draining the heap up to
    // a time bound. The pop order for a given bound sequence is the
    // heap's, so draining to an epoch boundary first and to the
    // decision time after pops the exact entries, in the exact
    // order, that draining straight to the decision time would --
    // epoch length cannot change any routing decision (byte
    // identity at any epoch; pinned by tests).
    const auto drainCompletions = [&](sim::Tick upto) {
        while (!in_flight.empty() && in_flight.top().done <= upto) {
            const std::size_t s = in_flight.top().server;
            --lb.outstanding[s];
            view.onCompleted(s);
            in_flight.pop();
        }
    };
    sim::Tick next_epoch = epoch > 0 ? epoch : sim::kMaxTick;

    // Routing decisions of the measured window, for the trace
    // artifact: keep-newest ring like the tracer's spans.
    std::vector<analysis::RoutingDecision> decisions;
    std::uint64_t decisions_emitted = 0;
    if (_requestTrace)
        decisions.resize(_requestTrace->capacity);

    // ------------------------------------------- per-server pieces
    std::vector<ServerSlot> slots(K);
    std::vector<analysis::TimelineSeries> timelines;
    if (_timeline)
        timelines.resize(K);
    std::vector<analysis::TraceSeries> traces;
    if (_requestTrace)
        traces.resize(K);
    const auto startServer = [&](unsigned i) {
        server::ServerConfig scfg = _cfg.server;
        scfg.seed = sim::deriveSeed(_cfg.seed, i);
        auto run = std::make_unique<ServerRun>();
        auto gaps = std::make_unique<workload::GapStream>();
        run->gaps = gaps.get();
        run->srv.emplace(scfg, _profile, std::move(gaps));
        if (_timeline)
            run->recorder.emplace(*_timeline, scfg.cores);
        if (_requestTrace)
            run->tracer.emplace(*_requestTrace, scfg.cores);
        run->fanout.add(run->recorder ? &*run->recorder : nullptr);
        run->fanout.add(run->tracer ? &*run->tracer : nullptr);
        run->srv->setObserver(run->fanout.target());
        return run;
    };
    // Hand a server its newly routed gaps and budget spans. The
    // first hand-over begins the run, since begin() draws the first
    // gap.
    const auto feed = [&](ServerRun &run, std::vector<sim::Tick> gaps,
                          std::span<const cap::BudgetSpan> spans) {
        run.gaps->append(std::move(gaps));
        if (!spans.empty())
            run.srv->appendCapSpans(spans);
        if (!run.begun) {
            run.srv->begin(duration, warmup);
            run.begun = true;
        }
    };
    const auto finishServer = [&](ServerRun &run, unsigned i) {
        run.gaps->close();
        ServerSlot &slot = slots[i];
        slot.result = run.srv->finish();
        if (run.recorder)
            timelines[i] = std::move(*run.recorder).series();
        if (run.tracer)
            traces[i] = std::move(*run.tracer).series();
        slot.latency = run.srv->latencySamples().sortedSamples();
    };

    const auto runServer = [&](unsigned i) {
        // A server that received no traffic still burns idle power:
        // drive it with a single never-arriving gap.
        std::vector<sim::Tick> g = std::move(lb.gaps[i]);
        if (g.empty())
            g.push_back(sim::kMaxTick);
        const auto run = startServer(i);
        // Never-routed servers all carry the identical base-budget
        // schedule (zero demand every epoch), which is what keeps
        // the idle-reference slot reuse below bit-identical.
        feed(*run, std::move(g),
             redistribute ? std::span<const cap::BudgetSpan>(
                                cap_spans[i])
                          : std::span<const cap::BudgetSpan>());
        finishServer(*run, i);
    };

    // Streaming (epochs on, more than one fleet thread): the first
    // kMaxLiveServers servers routed to run behind the balancer. At
    // every epoch hand-over each gets the gaps and budget spans
    // routed to it since the last one, and the pool advances it to
    // one tick before its last known arrival. The dispatch at that
    // arrival draws the next gap, which is not routed yet; every
    // event before it depends on known inputs only (conservative
    // lookahead). Stopping and resuming a server's simulator fires
    // the events one call would, in the same order, so streaming
    // moves no result. At one fleet thread every server runs after
    // the pass: the serial run stays the one-call reference.
    const unsigned threads =
        sim::ThreadPool::resolveThreads(_cfg.fleetThreads);
    const bool streaming = epoch > 0 && threads > 1;
    std::deque<Inbox> live;
    std::vector<bool> is_live(K, false);
    const auto drain = [&](Inbox &box) {
        while (true) {
            std::vector<sim::Tick> gaps;
            std::vector<cap::BudgetSpan> spans;
            bool close = false;
            {
                const std::lock_guard lock(box.mtx);
                if (box.gaps.empty() && box.spans.empty() &&
                    !box.close) {
                    box.queued = false;
                    return;
                }
                gaps.swap(box.gaps);
                spans.swap(box.spans);
                close = std::exchange(box.close, false);
            }
            if (!box.run)
                box.run = startServer(box.server);
            ServerRun &run = *box.run;
            feed(run, std::move(gaps), spans);
            if (close) {
                finishServer(run, box.server);
                box.run.reset();
            } else if (run.gaps->lastArrival() > 0) {
                run.srv->advanceTo(run.gaps->lastArrival() - 1);
            }
        }
    };
    // Declared after everything its tasks touch: destroying the pool
    // waits for them, on every way out of this function.
    std::optional<sim::ThreadPool> pool;
    if (streaming)
        pool.emplace(std::min(threads, K));
    // The balancer never waits on a server: it holds the box's lock
    // only to move vectors, as the task does.
    const auto post = [&](Inbox &box, bool close) {
        bool submit = false;
        {
            const std::lock_guard lock(box.mtx);
            moveAppend(box.gaps, lb.gaps[box.server]);
            if (redistribute)
                moveAppend(box.spans, cap_spans[box.server]);
            box.close = close;
            submit = !box.queued;
            box.queued = true;
        }
        if (submit)
            pool->submit([&drain, &box] { drain(box); });
    };

    sim::Tick now = 0;
    std::uint64_t total_routed = 0;
    while (true) {
        const sim::Tick gap = offered->nextGap(lb_rng);
        if (gap >= sim::kMaxTick - now)
            break; // finite stream ended
        now += gap;
        if (now >= horizon)
            break;

        bool crossed = false;
        while (epoch > 0 && now >= next_epoch) {
            crossed = true;
            drainCompletions(next_epoch);
            if (redistribute) {
                const auto budgets =
                    planner->epochBudgets(epoch_routed);
                for (unsigned s = 0; s < K; ++s) {
                    if (budgets[s] != cur_budget[s]) {
                        cap_spans[s].push_back(
                            cap::BudgetSpan{next_epoch, budgets[s]});
                        cur_budget[s] = budgets[s];
                    }
                }
                std::fill(epoch_routed.begin(), epoch_routed.end(),
                          0);
            }
            if (next_epoch >= sim::kMaxTick - epoch)
                next_epoch = sim::kMaxTick;
            else
                next_epoch += epoch;
        }
        if (crossed) {
            for (Inbox &box : live) {
                if (!lb.gaps[box.server].empty() ||
                    (redistribute && !cap_spans[box.server].empty()))
                    post(box, /*close=*/false);
            }
        }
        drainCompletions(now);

        const std::size_t target = policy->route(view, lb_rng);
        if (target >= K)
            sim::panic("FleetSim: policy '%s' routed to server %zu "
                       "of %u",
                       policy->name(), target, K);
        lb.gaps[target].push_back(now - lb.lastArrival[target]);
        lb.lastArrival[target] = now;
        if (++lb.routed[target] == 1 && streaming &&
            live.size() < kMaxLiveServers) {
            live.emplace_back(static_cast<unsigned>(target));
            is_live[target] = true;
        }
        ++total_routed;
        if (redistribute)
            ++epoch_routed[target];
        if (_requestTrace && now >= warmup) {
            auto &slot =
                decisions[decisions_emitted % decisions.size()];
            slot.at = now;
            slot.server = static_cast<std::uint32_t>(target);
            ++decisions_emitted;
        }

        // Occupancy-blind policies never read the estimate, so it is
        // not kept for them. est_rng is a stream of its own: skipping
        // its draws moves no routing decision.
        if (!keep_estimate)
            continue;
        const sim::Tick estimate =
            estimates ? estimates->next() : drawEstimate();
        in_flight.push(InFlight{now + estimate, target});
        ++lb.outstanding[target];
        view.onRouted(target);
    }
    estimates.reset(); // join the producer
    for (Inbox &box : live)
        post(box, /*close=*/true);

    // ---------------------------------------------- per-server runs
    FleetResult fr;
    fr.routingName = policy->name();
    fr.configName = _cfg.server.name;
    fr.workloadName = _profile.name();
    fr.servers = K;
    fr.offeredQps = _totalQps;
    fr.routed = total_routed;
    fr.routedPerServer = lb.routed;
    fr.streamed = static_cast<unsigned>(live.size());

    // Homogeneous-idle fast path: every server the balancer never
    // routed to sees the same input (one never-firing gap) and, as
    // no per-server RNG is ever drawn on that path, evolves
    // identically regardless of its derived seed -- so one idle
    // reference run stands in for all of them. At warehouse scale
    // under pack-first almost the whole fleet is never-routed, and
    // the K-server point costs O(busy servers), not O(K). Snoop
    // traffic breaks the premise: each core's snoop stream is
    // seeded from its server's seed, so idle servers differ.
    const bool reuse_idle =
        _cfg.idleFastPath && _cfg.server.snoopRatePerSec <= 0.0;
    std::size_t idle_ref = K; // index of the reference, if any
    std::vector<bool> reuse_ref(K, false);
    std::vector<unsigned> to_run;
    to_run.reserve(K);
    for (unsigned i = 0; i < K; ++i) {
        const bool never_routed = lb.routed[i] == 0;
        if (never_routed)
            ++fr.neverRouted;
        if (is_live[i])
            continue; // finishing behind the pass already
        if (reuse_idle && never_routed && idle_ref < K) {
            reuse_ref[i] = true;
            continue;
        }
        if (reuse_idle && never_routed)
            idle_ref = i;
        to_run.push_back(i);
    }

    const auto workers = static_cast<unsigned>(
        std::min<std::size_t>(threads, to_run.size()));
    if (!pool && workers > 1)
        pool.emplace(workers);
    if (!pool) {
        for (const unsigned i : to_run)
            runServer(i);
    } else {
        // Each run writes only its pre-assigned slot, so the
        // partition needs no locks and no ordering; determinism
        // comes from the in-order aggregation below.
        for (const unsigned i : to_run)
            pool->submit([&runServer, i] { runServer(i); });
        pool->wait();
    }
    for (unsigned i = 0; i < K; ++i) {
        if (!reuse_ref[i])
            continue;
        slots[i] = slots[idle_ref];
        if (_timeline)
            timelines[i] = timelines[idle_ref];
        if (_requestTrace)
            traces[i] = traces[idle_ref];
    }

    // Aggregate in strict server-index order: the floating-point op
    // sequence (and thus every emitted byte) is independent of how
    // the runs were scheduled.
    std::vector<std::span<const double>> latency_runs;
    latency_runs.reserve(K);
    fr.perServer.reserve(K);
    for (unsigned i = 0; i < K; ++i) {
        server::RunResult &r = slots[i].result;
        latency_runs.emplace_back(slots[i].latency);

        fr.window = r.window;
        fr.requests += r.requests;
        fr.events += r.events;
        fr.fleetPower += r.packagePower;
        fr.capThrottleShare += r.capThrottleShare / K;
        fr.forcedIdleNaps += r.forcedIdleNaps;
        fr.maxTempC = std::max(fr.maxTempC, r.maxTempC);
        const double deep = deepIdleShare(r.residency);
        if (i == 0) {
            fr.minServerDeepShare = fr.maxServerDeepShare = deep;
        } else {
            fr.minServerDeepShare =
                std::min(fr.minServerDeepShare, deep);
            fr.maxServerDeepShare =
                std::max(fr.maxServerDeepShare, deep);
        }
        for (std::size_t s = 0; s < cstate::kNumCStates; ++s) {
            fr.residency.share[s] += r.residency.share[s] / K;
            fr.residency.entries[s] += r.residency.entries[s];
        }
        fr.perServer.push_back(std::move(r));
    }
    fr.residency.window = fr.window;
    if (_timeline)
        fr.timeline = analysis::foldTimelines(timelines);
    if (_requestTrace) {
        fr.trace = analysis::mergeTraces(traces);
        // Attach the balancer's measured-window decisions, oldest
        // retained first (the ring may have wrapped).
        const std::uint64_t kept = std::min<std::uint64_t>(
            decisions_emitted, decisions.size());
        fr.trace->routingEmitted = decisions_emitted;
        fr.trace->routingDropped = decisions_emitted - kept;
        fr.trace->routing.reserve(kept);
        for (std::uint64_t k = 0; k < kept; ++k) {
            const std::uint64_t first = decisions_emitted - kept;
            fr.trace->routing.push_back(
                decisions[(first + k) % decisions.size()]);
        }
    }

    // ------------------------------------------------- aggregation
    fr.achievedQps = fr.window > 0
                         ? fr.requests / sim::toSec(fr.window)
                         : 0.0;
    fr.fleetEnergy = fr.fleetPower * sim::toSec(fr.window);
    fr.energyPerRequestMj =
        fr.requests > 0 ? 1e3 * fr.fleetEnergy / fr.requests : 0.0;
    fr.deepIdleShare = deepIdleShare(fr.residency);
    // Pooled latency without a pooled copy: the mean sums each
    // server's sorted samples in server-index order (the operation
    // sequence the bits were pinned with), and the tail percentiles
    // are rank selections over the K sorted runs.
    fr.avgLatencyUs = sim::meanOfRuns(latency_runs);
    const double tail_ps[] = {99.0, 99.9};
    const auto tail =
        sim::percentilesOfSortedRuns(latency_runs, tail_ps);
    fr.p99LatencyUs = tail[0];
    fr.p999LatencyUs = tail[1];
    if (total_routed > 0) {
        const auto busiest = *std::max_element(lb.routed.begin(),
                                               lb.routed.end());
        fr.busiestShareOfLoad =
            static_cast<double>(busiest) / total_routed;
    }
    return fr;
}

FleetResult
FleetSim::run()
{
    // Same sizing rule as ServerSim::run(), but for the fleet-wide
    // request target; stretch to cover at least one schedule period
    // so diurnal runs average a whole cycle.
    const double target_requests = 60e3;
    double sec = std::max(1.0, target_requests / _totalQps);
    if (!_cfg.schedule.isFlat())
        sec = std::max(sec, sim::toSec(_cfg.schedule.period()));
    const sim::Tick duration = sim::fromSec(sec);
    return run(duration, duration / 10);
}

} // namespace aw::cluster
