#include "server/core_sim.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace aw::server {

using cstate::CStateId;

StatePowers
StatePowers::fromModels(const core::AwPpaModel &ppa)
{
    StatePowers p;
    for (std::size_t i = 0; i < cstate::kNumCStates; ++i) {
        p.idle[i] =
            cstate::descriptor(static_cast<CStateId>(i)).corePower;
    }
    // AW states come from the live PPA rollup (midpoints).
    p.idle[cstate::index(CStateId::C6A)] = ppa.c6aPowerMid();
    p.idle[cstate::index(CStateId::C6AE)] = ppa.c6aePowerMid();
    p.activeP1 = cstate::kC0PowerP1;
    return p;
}

CoreSim::CoreSim(sim::Simulator &simr, const ServerConfig &cfg,
                 const OperatingPoints &points,
                 const cstate::GovernorPolicy &governor,
                 const freq::FreqPolicy *freq_proto,
                 const core::AwCoreModel &aw,
                 const workload::WorkloadProfile &profile,
                 double per_core_rate, unsigned id,
                 CompletionHook on_complete)
    : _sim(simr), _cfg(cfg), _points(points), _aw(aw),
      _profile(profile), _onComplete(std::move(on_complete)),
      _caches(uarch::PrivateCaches::skylakeServer()),
      _governor(governor.clone()),
      _residency(simr.now()),
      _turbo(cfg.turboParams, cfg.turboEnabled),
      _snoops(cfg.snoopRatePerSec, cfg.snoopHitFraction,
              cfg.seed + 7919 * (id + 1)),
      _powers(StatePowers::fromModels(aw.ppa())),
      _arrivals(per_core_rate > 0.0
                    ? profile.makeArrivals(per_core_rate)
                    : nullptr),
      _rng(cfg.seed + id), _id(id)
{
    for (std::size_t i = 0; i < cstate::kNumCStates; ++i) {
        const auto &desc = cstate::descriptor(static_cast<CStateId>(i));
        _isAw[i] = desc.isAgileWatts;
        _depth[i] = desc.depth;
    }
    _boostPower = _powers.activeBoost * _profile.activePowerScale();
    _deepestEnabled = _cfg.cstates.deepestEnabled();

    // The starting level: the policy's pick, or with no policy P1
    // (Pn under runAtPn), raised to the QoS floor.
    if (freq_proto)
        _freqPolicy = freq_proto->clone();
    const std::size_t level = std::clamp(
        _freqPolicy ? _freqPolicy->select(0, 0.0)
                    : (_cfg.runAtPn ? 0 : _points.top()),
        _points.floor, _points.top());
    _curLevel = _pendingLevel = _wantLevel = level;
    _op = &_points.levels[level];
    _turbo.setSustainedPower(_sim.now(), _op->activeUnscaled);

    if (_governor->needsOracle()) {
        // Clairvoyance only exists where this core generates its
        // own arrivals: there is always exactly one future arrival
        // event scheduled, at a known time. Centrally dispatched
        // streams (packing, traces, fleet splits) decide targets at
        // arrival time, so no per-core foreknowledge exists.
        if (!_arrivals)
            sim::fatal(
                "governor '%s' needs per-core arrival "
                "foreknowledge; it only works with static dispatch "
                "over synthetic per-core arrivals (not packing, "
                "trace replay or fleet mode)",
                _governor->spec().c_str());
        _governor->setOracle([this](sim::Tick now) {
            return _nextArrivalAt > now ? _nextArrivalAt - now
                                        : sim::Tick(0);
        });
        // Energy of one idle period in a given state, from the live
        // transition and power models: entry+exit flows run at
        // active power, the remainder of the interval at the
        // state's resident power. This is what the simulator itself
        // will charge, so the oracle's choice is truly the cheapest.
        _governor->setCostModel([this](CStateId s, sim::Tick idle) {
            const double active = _op->activePower;
            if (s == CStateId::C0) // polling: active power throughout
                return active * sim::toSec(idle);
            const auto lat = latencyOf(s);
            const sim::Tick resident =
                idle > lat.entry ? idle - lat.entry : 0;
            return active * sim::toSec(lat.entry + lat.exit) +
                   _powers.idle[cstate::index(s)] *
                       sim::toSec(resident);
        });
    }
    // A moderately warm cache going into the first idle period.
    _caches.setDirtyFraction(0.3);
    updatePower();
}

void
CoreSim::start()
{
    if (_arrivals)
        scheduleNextArrival();
    if (_snoops.enabled())
        scheduleNextSnoop();
    if (_freqPolicy && _freqPolicy->evalInterval() > 0) {
        _loadLast = _sim.now();
        scheduleFreqEval();
    }
    // The core starts with an empty queue: go idle.
    beginIdle();
}

void
CoreSim::noteBusy(bool busy)
{
    if (!_freqPolicy || busy == _busyNow)
        return;
    const sim::Tick now = _sim.now();
    accrueLoad(now);
    _busyNow = busy;
    requestLevel(_freqPolicy->observe(now, busy, targetLevel()));
}

void
CoreSim::scheduleFreqEval()
{
    _sim.scheduleIn(_freqPolicy->evalInterval(),
                    [this]() { onFreqEval(); });
}

void
CoreSim::onFreqEval()
{
    const sim::Tick now = _sim.now();
    accrueLoad(now);
    const sim::Tick window = _freqPolicy->evalInterval();
    double load = static_cast<double>(_busyAccum) /
                  static_cast<double>(window);
    if (load > 1.0)
        load = 1.0;
    _busyAccum = 0;
    requestLevel(_freqPolicy->select(now, load));
    scheduleFreqEval();
}

void
CoreSim::requestLevel(std::size_t level)
{
    // Precedence cap -> QoS -> governor: remember the unclamped
    // request (re-issued when the cap ceiling moves), raise it to
    // the QoS floor, then let the cap ceiling override both.
    _wantLevel = level;
    if (level < _points.floor)
        level = _points.floor;
    std::size_t top = _points.top();
    if (_capLevel < top)
        top = _capLevel;
    if (level > top)
        level = top;
    if (_rampInFlight) {
        // Coalesce: the in-flight ramp lands on the newest target.
        _pendingLevel = level;
        return;
    }
    if (level == _curLevel)
        return;
    _pendingLevel = level;
    _rampInFlight = true;
    _sim.scheduleIn(freq::kRampLatency, [this]() { onRampDone(); });
}

void
CoreSim::onRampDone()
{
    _rampInFlight = false;
    if (_pendingLevel == _curLevel)
        return; // retargeted back mid-ramp: nothing changed
    applyLevel(_pendingLevel);
}

void
CoreSim::applyLevel(std::size_t level)
{
    _curLevel = level;
    _op = &_points.levels[level];
    ++_freqTransitions;
    _freqRampEnergy += freq::kRampEnergy;
    // In-flight service keeps the rate it started at; the power
    // level and the turbo sustain anchor move with the new point.
    _turbo.setSustainedPower(_sim.now(), _op->activeUnscaled);
    if (_observer)
        _observer->onFreqChange(_id, _sim.now(), _op->effFreq.hz());
    updatePower();
}

void
CoreSim::setCapState(std::size_t level_cap, sim::Tick nap_len,
                     sim::Tick nap_period)
{
    _capLevel = level_cap;
    _napLen = nap_len;
    _napPeriod = nap_period;
    // Re-clamp the operating point against the new ceiling (or let
    // it recover toward the last unclamped request). An in-flight
    // nap completes on its own schedule.
    requestLevel(_wantLevel);
}

std::uint64_t
CoreSim::inject(workload::Request req)
{
    const std::uint64_t id = _nextReqId++;
    req.id = id;
    onArrival(std::move(req));
    return id;
}

void
CoreSim::scheduleNextArrival()
{
    const sim::Tick gap = _arrivals->nextGap(_rng);
    _nextArrivalAt = _sim.now() + gap;
    _sim.scheduleIn(gap, [this]() {
        workload::Request req;
        req.id = _nextReqId++;
        req.arrival = _sim.now();
        req.demand = _profile.service().draw(_rng);
        onArrival(std::move(req));
        scheduleNextArrival();
    });
}

void
CoreSim::onArrival(workload::Request req)
{
    if (_observer)
        _observer->onRequestArrival(_id, req.id, _sim.now());
    _queue.push_back(std::move(req));
    switch (_mode) {
      case Mode::Active:
      case Mode::ExitingIdle:
        // Will be drained when the current activity finishes.
        break;
      case Mode::EnteringIdle:
        // A forced nap must run its course: arrivals queue behind
        // it (that queueing -- plus the wake at nap end -- is the
        // throttle's latency cost).
        if (_napping)
            break;
        // Hardware must complete the entry flow first; wake right
        // after. This is the misprediction penalty.
        if (!_wakePending) {
            _wakePending = true;
            ++_mispredictedEntries;
            noteIdleObserved(_sim.now() - _idleStart);
            // The wake stall starts now: the entry-flow remainder
            // (C6's cache flush included) plus the exit flow all
            // stand between this arrival and service.
            if (_observer)
                _observer->onWakeStart(_id, _sim.now(), _idleState);
        }
        break;
      case Mode::Idle:
        if (_napping)
            break; // see above: the nap end wakes the core
        noteIdleObserved(_sim.now() - _idleStart);
        // C0 polling wakes instantly: no episode to publish.
        if (_observer && _idleState != CStateId::C0)
            _observer->onWakeStart(_id, _sim.now(), _idleState);
        beginWake();
        break;
    }
}

void
CoreSim::beginService()
{
    if (_queue.empty()) {
        beginIdle();
        return;
    }
    // Cap enforcement beyond the ladder floor: a due forced nap
    // preempts the queue at the service boundary (one predictable
    // never-taken test while uncapped).
    if (_napLen > 0 && _sim.now() >= _nextNapAt) {
        beginForcedNap();
        return;
    }
    _mode = Mode::Active;
    noteBusy(true);
    workload::Request req = std::move(_queue.front());
    _queue.pop_front();
    req.serviceStart = _sim.now();
    if (_observer)
        _observer->onServiceStart(_id, req.id, _sim.now());

    // Frequency decision: boost if the thermal credit covers the
    // whole request, else the applied level. Boost requires
    // targeting the top ladder level (intel_pstate-style: turbo only
    // engages above a max-performance request), so a Pn pin or a cap
    // clamp also suppresses it; the sustain anchor tracks the
    // applied level.
    sim::Frequency freq = _op->effFreq;
    const sim::Tick dur_boost = req.demand.duration(
        _cfg.pstates.turbo);
    _boosting = false;
    const bool boost_ok = targetLevel() == _points.top();
    if (_turbo.enabled() && boost_ok &&
        _turbo.canBoost(_sim.now(), dur_boost)) {
        _turbo.commitBoost(_sim.now(), dur_boost);
        _boosting = true;
        freq = _cfg.pstates.turbo;
    }
    updatePower();

    const sim::Tick dur = req.demand.duration(freq);
    _caches.touch(_profile.writeFraction());
    _sim.scheduleIn(dur, [this, req = std::move(req)]() mutable {
        onServiceDone(std::move(req));
    });
}

void
CoreSim::onServiceDone(workload::Request req)
{
    req.completion = _sim.now();
    ++_completed;
    _boosting = false;
    if (_onComplete)
        _onComplete(req);
    beginService(); // drains the queue or goes idle
}

void
CoreSim::beginIdle()
{
    noteBusy(false);
    _idleStart = _sim.now();
    _idleState = _governor->select(_sim.now());
    if (_observer)
        _observer->onIdleStart(_id, _sim.now());
    if (_idleState == CStateId::C0) {
        // No idle state enabled: poll in C0. Stay "Idle" at active
        // power with zero-latency wake.
        _mode = Mode::Idle;
        noteStateEnter(CStateId::C0);
        updatePower();
        return;
    }
    _mode = Mode::EnteringIdle;
    _wakePending = false;
    updatePower();
    const sim::Tick entry = latencyOf(_idleState).entry;
    if (_idleState == CStateId::C6) {
        // Entering C6 flushes the private caches.
        _caches.flush();
    }
    _sim.scheduleIn(entry, [this]() { onIdleEntered(); });
}

void
CoreSim::onIdleEntered()
{
    _mode = Mode::Idle;
    noteStateEnter(_idleState);
    updatePower();
    if (_wakePending) {
        _wakePending = false;
        beginWake();
        return;
    }
    maybeSchedulePromotion();
}

void
CoreSim::maybeSchedulePromotion()
{
    if (!_cfg.idlePromotion)
        return;
    // A pinned or clairvoyant policy never changes its pick: don't
    // tick an idle core's event queue for nothing.
    if (!_governor->canPromote())
        return;
    // Already as deep as the platform allows: nothing to promote to.
    if (_idleState == _deepestEnabled)
        return;
    // Batched check: the first tick multiple (measured from now,
    // like the per-tick chain this replaces) at which the elapsed
    // idle reaches the governor's promotion horizon. Intermediate
    // ticks could only re-confirm the current state, so they are
    // never scheduled.
    const sim::Tick horizon =
        _governor->promotionHorizon(_idleState);
    if (horizon == sim::kMaxTick)
        return;
    const sim::Tick tick = _cfg.idlePromotionTick;
    const sim::Tick elapsed = _sim.now() - _idleStart;
    sim::Tick wait = tick;
    if (horizon > elapsed) {
        const sim::Tick need = horizon - elapsed;
        wait = ((need + tick - 1) / tick) * tick;
    }
    // Stale-check by idle-period start time in addition to event
    // cancellation: a wake in the meantime starts a new period.
    _promotionEvent =
        _sim.scheduleIn(wait, [this, stamp = _idleStart]() {
            _promotionEvent = sim::kInvalidEventId;
            onPromotionTick(stamp);
        });
}

void
CoreSim::onPromotionTick(sim::Tick idle_start)
{
    if (_mode != Mode::Idle || _idleStart != idle_start)
        return; // the core woke since; this tick is stale
    const sim::Tick elapsed = _sim.now() - _idleStart;
    const CStateId target = _governor->reselect(_sim.now(), elapsed);
    if (_depth[cstate::index(target)] <=
        _depth[cstate::index(_idleState)]) {
        // Not yet past the next state's target residency; keep
        // ticking (the observed idle only grows).
        maybeSchedulePromotion();
        return;
    }
    // Promote: run the deeper state's entry flow from here. The
    // idle period continues -- _idleStart is preserved so the
    // governor's eventual observation covers the whole gap. Like
    // the other transition windows, the entry flow is accounted as
    // C0 residency at active power.
    _mode = Mode::EnteringIdle;
    _wakePending = false;
    _idleState = target;
    noteStateEnter(CStateId::C0);
    updatePower();
    if (_idleState == CStateId::C6)
        _caches.flush();
    const sim::Tick entry = latencyOf(_idleState).entry;
    _sim.scheduleIn(entry, [this]() { onIdleEntered(); });
}

void
CoreSim::beginWake()
{
    if (_mode != Mode::Idle)
        sim::panic("CoreSim::beginWake in mode %d",
                   static_cast<int>(_mode));
    // A batched promotion check may still be armed for this idle
    // period; it would be a stale no-op, but cancelling it now frees
    // its slot without waiting for the pop.
    if (_promotionEvent != sim::kInvalidEventId) {
        _sim.cancel(_promotionEvent);
        _promotionEvent = sim::kInvalidEventId;
    }
    if (_idleState == CStateId::C0) {
        // Polling: instant.
        _mode = Mode::Active;
        beginService();
        return;
    }
    _mode = Mode::ExitingIdle;
    // A package sleeping in PC6 pays its wake cost before the core
    // exit flow can start (read before the state-change hook runs,
    // so it reflects the package state at the wake instant).
    const sim::Tick pkg_extra =
        _package ? _package->exitLatency() : 0;
    noteStateEnter(CStateId::C0);
    updatePower();
    const sim::Tick exit =
        pkg_extra + latencyOf(_idleState).exit;
    _sim.scheduleIn(exit, [this]() { onWakeDone(); });
}

void
CoreSim::onWakeDone()
{
    if (_observer)
        _observer->onWakeEnd(_id, _sim.now());
    _mode = Mode::Active;
    updatePower();
    beginService();
}

void
CoreSim::beginForcedNap()
{
    // intel_powerclamp semantics: the nap targets the deepest
    // enabled state directly (no governor selection -- this is an
    // enforcement action, not a prediction), runs the normal entry
    // flow, and holds the core down for _napLen measured from the
    // nap start. The governor still observes the resulting idle
    // period at the end, like any other.
    noteBusy(false);
    _idleStart = _sim.now();
    _idleState = _deepestEnabled;
    _napping = true;
    ++_forcedNaps;
    if (_observer)
        _observer->onIdleStart(_id, _sim.now());
    _sim.scheduleIn(_napLen, [this, stamp = _idleStart]() {
        onNapEnd(stamp);
    });
    if (_idleState == CStateId::C0) {
        // No idle state enabled: the nap stalls service while
        // polling at active power (all cost, no savings -- exactly
        // what forcing idle on such a config deserves).
        _mode = Mode::Idle;
        noteStateEnter(CStateId::C0);
        updatePower();
        return;
    }
    _mode = Mode::EnteringIdle;
    _wakePending = false;
    updatePower();
    const sim::Tick entry = latencyOf(_idleState).entry;
    if (_idleState == CStateId::C6)
        _caches.flush();
    _sim.scheduleIn(entry, [this]() { onIdleEntered(); });
}

void
CoreSim::onNapEnd(sim::Tick stamp)
{
    if (!_napping || _idleStart != stamp)
        return; // stale (the nap this event belonged to is over)
    _napping = false;
    // Space naps by the window's non-nap remainder measured from
    // the nap *end*, so the wake cost cannot starve service: the
    // core gets (period - nap) of nap-free time per window no
    // matter how expensive its deepest state's exit is.
    _nextNapAt = _sim.now() + (_napPeriod > _napLen
                                   ? _napPeriod - _napLen
                                   : _napPeriod);
    if (_mode == Mode::EnteringIdle) {
        // Nap shorter than the entry flow: fall back to the
        // misprediction path -- finish entering, wake right after.
        if (!_queue.empty() && !_wakePending) {
            _wakePending = true;
            noteIdleObserved(_sim.now() - _idleStart);
            if (_observer)
                _observer->onWakeStart(_id, _sim.now(), _idleState);
        }
        return;
    }
    if (_mode != Mode::Idle)
        return;
    if (_queue.empty()) {
        // Nothing queued up behind the nap: the period simply
        // continues as a normal governor-owned idle period.
        maybeSchedulePromotion();
        return;
    }
    noteIdleObserved(_sim.now() - _idleStart);
    if (_observer && _idleState != CStateId::C0)
        _observer->onWakeStart(_id, _sim.now(), _idleState);
    beginWake();
}

void
CoreSim::scheduleNextSnoop()
{
    const sim::Tick next = _snoops.nextArrival(_sim.now());
    if (next == sim::kMaxTick)
        return;
    _sim.schedule(next, [this]() {
        onSnoop();
        scheduleNextSnoop();
    });
}

void
CoreSim::onSnoop()
{
    // Snoops only cost extra power while the core idles with valid
    // private caches; a flushed (C6) core is filtered out at the
    // LLC snoop filter, and an active core absorbs the probe.
    if (_mode != Mode::Idle && _mode != Mode::EnteringIdle)
        return;
    if (_idleState == CStateId::C6 || _idleState == CStateId::C0)
        return;

    const bool hit = _snoops.drawHit();
    sim::Tick window = _caches.snoopServiceTime(_op->effFreq, hit);
    if (_isAw[cstate::index(_idleState)]) {
        window += _aw.controller().snoopWakeLatency() +
                  _aw.controller().snoopResleepLatency();
    }
    const sim::Tick until = _sim.now() + window;
    if (until > _snoopBusyUntil) {
        _snoopBusyUntil = until;
        updatePower();
        _sim.schedule(until, [this]() { updatePower(); });
    }
}

power::Watts
CoreSim::currentPower() const
{
    // Workload-specific dynamic power skew is folded into the
    // precomputed level and boost powers: the analytical model only
    // knows the nominal Table 1 constant (Sec 6.3).
    const power::Watts active = _op->activePower;
    switch (_mode) {
      case Mode::Active:
        return _boosting ? _boostPower : active;
      case Mode::EnteringIdle:
      case Mode::ExitingIdle:
        // Transition flows run parts of the core at active power.
        return active;
      case Mode::Idle: {
        power::Watts p = _powers.idle[cstate::index(_idleState)];
        if (_idleState == CStateId::C0)
            p = active; // polling
        if (_sim.now() < _snoopBusyUntil) {
            p += _isAw[cstate::index(_idleState)]
                     ? core::Ccsm::kSnoopServiceDeltaC6a
                     : core::Ccsm::kSnoopServiceDeltaC1;
        }
        return p;
      }
    }
    return active;
}

void
CoreSim::updatePower()
{
    const power::Watts p = currentPower();
    _meter.setPower(_sim.now(), p);
    _turbo.setPower(_sim.now(), p);
    if (_observer)
        _observer->onCorePower(_id, _sim.now(), p);
    if (_onStateChange)
        _onStateChange();
}

cstate::ResidencySnapshot
CoreSim::residency() const
{
    return _residency.snapshot(_sim.now());
}

power::Joules
CoreSim::energy()
{
    // The fixed PLL/VR relock energy of each completed P-state ramp
    // rides on top of the piecewise-constant power integral.
    return _meter.energy(_sim.now()) + freqTransitionEnergy();
}

power::Watts
CoreSim::averagePower()
{
    const sim::Tick now = _sim.now();
    if (now <= _statsStart)
        return 0.0;
    return energy() / sim::toSec(now - _statsStart);
}

void
CoreSim::resetStats()
{
    _statsStart = _sim.now();
    _meter.reset(_sim.now());
    // Restart residency in the state we are currently in, and
    // re-announce it so an observer's accumulators restart too.
    const CStateId cur =
        _mode == Mode::Idle ? _idleState : CStateId::C0;
    _residency.reset(_sim.now(), cur);
    if (_observer)
        _observer->onCStateEnter(_id, _sim.now(), cur);
    _completed = 0;
    _mispredictedEntries = 0;
    _forcedNapsAtReset = _forcedNaps;
    _freqTransitionsAtReset = _freqTransitions;
    _rampEnergyAtReset = _freqRampEnergy;
    // Re-announce the operating point so interval samplers can
    // integrate mean frequency from the window's start without
    // waiting for the first ramp.
    if (_observer)
        _observer->onFreqChange(_id, _sim.now(), _op->effFreq.hz());
}

} // namespace aw::server
