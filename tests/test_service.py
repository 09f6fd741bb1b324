"""Tests for the live service tier: gateway, placement queue, worker
pool, traffic generator, and the serve campaign/CLI.

The backpressure-correctness pins from the service design:

* the bounded queue never exceeds its cap (hypothesis property);
* shed/rejected requests are *counted, not lost* — ``status`` answers
  for them forever and every submit lands in exactly one terminal or
  live state;
* a saturated→drained campaign cycle serializes byte-identically
  across reruns of the same seed.
"""

import io
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import standard_world
from repro.errors import AdmissionRejected, LegionError, RequestStateError
from repro.recovery import RecoveryConfig
from repro.service import (
    PLACED,
    PlacementQueue,
    ServiceConfig,
    TrafficModel,
    run_service,
    run_service_comparison,
)
from repro.service.gateway import ServiceAdmission
from repro.service.request import ServiceRequest, TERMINAL_STATES
from repro.service.traffic import PRIORITY_WEIGHTS, TrafficGenerator
from repro.sim import RngRegistry, Simulator
from repro.tools import main
from repro.workload.testbed import TestbedSpec, build_testbed


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def make_request(i, priority=0):
    return ServiceRequest(f"r{i:04d}", user="u", priority=priority)


def build_service(seed=0, **cfg):
    """A small testbed with the service tier started."""
    meta = build_testbed(TestbedSpec(
        seed=seed, n_domains=1, hosts_per_domain=3, platform_mix=2,
        background_load_mean=0.2))
    suite = meta.start_service(ServiceConfig(**cfg))
    return meta, suite


class TestServiceConfig:
    def test_defaults_valid(self):
        config = ServiceConfig()
        assert config.shedding_enabled
        assert config.backpressure == "shed"

    def test_unbounded_disables_shedding(self):
        assert not ServiceConfig(queue_cap=0).shedding_enabled

    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"queue_cap": -1},
        {"backpressure": "drop"},
        {"defer_delay": 0.0},
        {"max_attempts": 0},
        {"work": -1.0},
        {"load_limit": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


class TestPlacementQueue:
    def test_priority_then_fifo_order(self):
        q = PlacementQueue(cap=0)
        a, b, c, d = (make_request(0, 0), make_request(1, 2),
                      make_request(2, 2), make_request(3, 1))
        for r in (a, b, c, d):
            assert q.offer(r) == "enqueued"
        assert [q.pop() for _ in range(4)] == [b, c, d, a]

    def test_shed_at_cap(self):
        q = PlacementQueue(cap=2, backpressure="shed")
        assert q.offer(make_request(0)) == "enqueued"
        assert q.offer(make_request(1)) == "enqueued"
        assert q.offer(make_request(2)) == "shed"
        assert q.depth == 2 and q.shed == 1

    def test_reject_at_cap(self):
        q = PlacementQueue(cap=1, backpressure="reject")
        q.offer(make_request(0))
        assert q.offer(make_request(1)) == "rejected"

    def test_defer_downgrades_to_shed_when_final(self):
        q = PlacementQueue(cap=1, backpressure="defer")
        q.offer(make_request(0))
        assert q.offer(make_request(1)) == "deferred"
        assert q.offer(make_request(2), final=True) == "shed"

    def test_cancel_is_lazy_and_skipped_by_pop(self):
        q = PlacementQueue(cap=0)
        a, b = make_request(0), make_request(1)
        q.offer(a)
        q.offer(b)
        assert q.cancel(a.request_id)
        assert not q.cancel(a.request_id)  # only once
        assert q.depth == 1
        assert q.pop() is b
        assert q.pop() is None

    def test_pop_frees_a_slot(self):
        q = PlacementQueue(cap=1)
        q.offer(make_request(0))
        assert q.full
        q.pop()
        assert q.offer(make_request(1)) == "enqueued"

    @given(cap=st.integers(min_value=1, max_value=6),
           mode=st.sampled_from(["shed", "reject", "defer"]),
           ops=st.lists(st.tuples(
               st.sampled_from(["offer", "pop", "cancel"]),
               st.integers(min_value=0, max_value=3)), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_invariants_under_random_ops(self, cap, mode, ops):
        """depth <= cap always; every offer accounted for exactly once."""
        q = PlacementQueue(cap=cap, backpressure=mode)
        n = 0
        live = []  # enqueued, not yet popped or cancelled
        for op, x in ops:
            if op == "offer":
                r = make_request(n, priority=x)
                n += 1
                if q.offer(r) == "enqueued":
                    live.append(r.request_id)
            elif op == "pop":
                r = q.pop()
                if r is None:
                    assert not live
                else:
                    live.remove(r.request_id)
            elif live:
                target = live[x % len(live)]
                assert q.cancel(target)
                live.remove(target)
            else:
                assert not q.cancel(f"junk-{x}")
            assert q.depth <= cap
            assert q.depth == len(live)
            assert q.peak_depth <= cap
            assert q.enqueued == q.popped + q.cancelled + q.depth
            assert q.offered == (q.enqueued + q.shed + q.rejected
                                 + q.deferred)


class TestGatewayBackpressure:
    def test_shed_requests_are_counted_not_lost(self):
        meta, suite = build_service(queue_cap=2, backpressure="shed")
        suite.pool.stop()  # keep the backlog saturated
        results = [suite.gateway.submit(user=f"u{i}") for i in range(5)]
        assert [r.state for r in results] == ["queued", "queued",
                                              "shed", "shed", "shed"]
        # every submission still answers on the status route
        for r in results:
            status = suite.gateway.status(r.request_id)
            assert status.ok
            assert status.snapshot["request_id"] == r.request_id
        shed = suite.gateway.status(results[-1].request_id)
        assert shed.state == "shed"
        health = suite.gateway.health()
        assert health["submitted"] == 5
        assert health["requests_by_state"] == {"queued": 2, "shed": 3}
        assert health["queue"]["shed"] == 3

    def test_reject_mode(self):
        meta, suite = build_service(queue_cap=1, backpressure="reject")
        suite.pool.stop()
        suite.gateway.submit(user="a")
        result = suite.gateway.submit(user="b")
        assert not result.ok and result.state == "rejected"

    def test_defer_reoffers_then_sheds_after_max_defers(self):
        meta, suite = build_service(queue_cap=1, backpressure="defer",
                                    defer_delay=5.0, max_defers=2)
        suite.pool.stop()
        suite.gateway.submit(user="a")  # fills the backlog
        result = suite.gateway.submit(user="b")
        assert result.ok and result.state == "deferred"
        request = suite.gateway.requests[result.request_id]
        meta.advance(4.0)  # before the first re-offer
        assert request.state == "deferred" and request.defers == 1
        meta.advance(20.0)  # re-offer twice against a still-full backlog
        assert request.state == "shed"
        assert "after 2 defers" in request.detail

    def test_deferred_request_enqueues_when_space_frees(self):
        meta, suite = build_service(queue_cap=1, backpressure="defer",
                                    defer_delay=5.0, max_defers=3)
        suite.pool.stop()
        first = suite.gateway.submit(user="a")
        second = suite.gateway.submit(user="b")
        assert second.state == "deferred"
        suite.gateway.cancel(first.request_id)  # frees the only slot
        meta.advance(6.0)
        assert suite.gateway.requests[second.request_id].state == "queued"

    def test_cancel_semantics(self):
        meta, suite = build_service(queue_cap=4)
        suite.pool.stop()
        r = suite.gateway.submit(user="a")
        cancelled = suite.gateway.cancel(r.request_id)
        assert cancelled.ok and cancelled.state == "cancelled"
        again = suite.gateway.cancel(r.request_id)
        assert not again.ok and "not cancellable" in again.detail
        unknown = suite.gateway.cancel("req-999999")
        assert not unknown.ok and unknown.detail == "unknown request"
        assert suite.queue.pop() is None  # cancelled entry skipped

    def test_status_unknown_request(self):
        meta, suite = build_service()
        result = suite.gateway.status("nope")
        assert not result.ok and result.detail == "unknown request"

    def test_front_door_admission_rejects_on_load(self):
        meta, suite = build_service(load_limit=0.001)
        result = suite.gateway.submit(user="a")
        assert not result.ok and result.state == "rejected"
        assert suite.gateway.admission.rejections == 1
        assert "exceeds limit" in result.detail

    def test_admission_raises_like_guardrails(self):
        admission = ServiceAdmission(load_limit=0.001)

        class FakeHost:
            class machine:
                load_average = 5.0

        with pytest.raises(AdmissionRejected):
            admission.check([FakeHost()], now=0.0)

    def test_request_ids_minted_in_submit_order(self):
        meta, suite = build_service()
        suite.pool.stop()
        ids = [suite.gateway.submit(user="u").request_id
               for _ in range(3)]
        assert ids == ["req-000000", "req-000001", "req-000002"]


class TestRequestStateMachine:
    def test_second_finish_on_a_terminal_request_raises(self):
        meta, suite = build_service()
        suite.pool.stop()
        rid = suite.gateway.submit(user="u").request_id
        assert suite.gateway.cancel(rid).state == "cancelled"
        request = suite.gateway.requests[rid]
        with pytest.raises(RequestStateError, match="already terminal"):
            suite.gateway.finish(request, "placed")
        assert request.state == "cancelled"

    def test_event_outside_its_row_raises(self):
        request = make_request(0)
        with pytest.raises(RequestStateError, match="from 'queued'"):
            request.apply("attempt", 1.0, {"attempt": 1})
        request.apply("claim", 1.0, {"worker": 2})
        assert (request.state, request.started_at, request.worker) == \
            ("placing", 1.0, 2)


class TestWorkerPool:
    def test_workers_drain_queue_into_placements(self):
        meta, suite = build_service(workers=2, queue_cap=8)
        results = [suite.gateway.submit(user=f"u{i}") for i in range(4)]
        meta.advance(60.0)
        states = [suite.gateway.requests[r.request_id].state
                  for r in results]
        assert states == ["placed"] * 4
        assert suite.pool.placed == 4
        placed = suite.gateway.requests[results[0].request_id]
        assert placed.worker in (0, 1)
        assert placed.created  # instance LOIDs recorded
        assert placed.e2e_latency > 0

    def test_request_spans_recorded(self):
        meta, suite = build_service(workers=1, queue_cap=4)
        suite.gateway.submit(user="u")
        meta.advance(30.0)
        names = [s.name for s in meta.spans.spans]
        assert "service.request" in names
        assert "service.worker" in names

    def test_metrics_registered(self):
        meta, suite = build_service()
        suite.gateway.submit(user="u")
        meta.advance(30.0)
        names = set(meta.metrics.names())
        for name in ("service_requests_total",
                     "service_request_outcomes_total",
                     "service_e2e_seconds", "service_queue_depth",
                     "service_workers_busy"):
            assert name in names, name


class InstantCheckedSimulator(Simulator):
    """A kernel that calls ``end_of_instant()`` whenever an instant is
    over — after an action, when the next one lies later or none is left
    — at whatever depth of reentrant ``run_until`` the action ran."""

    def __init__(self):
        super().__init__()
        self.end_of_instant = lambda: None

    def run_until(self, until):
        while self._heap and self._heap[0][0] <= until:
            self.step()
            if not self._heap or self._heap[0][0] > self._now:
                self.end_of_instant()
        if until > self._now:
            self._now = until


class ScriptedScheduler:
    """Stands in for every worker's Scheduler: each ``run`` takes the
    next ``(virtual seconds, ok)`` of the script (cycling), spending the
    time through a reentrant ``run_until`` as a real placement does."""

    def __init__(self, sim, script):
        self.sim = sim
        self.script = list(script)
        self.runs = 0

    def run(self, requests, reservation_duration):
        from repro.scheduler.base import SchedulingOutcome
        seconds, ok = self.script[self.runs % len(self.script)]
        self.runs += 1
        self.sim.run_until(self.sim.now + seconds)
        return SchedulingOutcome(ok=ok, detail="" if ok else "scripted miss")


def bare_pool(workers=4, script=((0.0, True),), recovery=False):
    """A worker pool over a real queue and gateway on an
    :class:`InstantCheckedSimulator`, placing through
    :class:`ScriptedScheduler` (no world: only the pool is under test)."""
    from repro.recovery import LeaseTable, RequestJournal, Supervisor
    from repro.service import RequestGateway, WorkerPool

    class App:
        name = "bare-app"
        instances = {}

    sim = InstantCheckedSimulator()
    config = ServiceConfig(workers=workers, queue_cap=6, max_attempts=2,
                           retry_backoff=1.5)
    queue = PlacementQueue(config.queue_cap, config.backpressure)
    journal = leases = None
    if recovery:
        journal = RequestJournal(sim.clock)
        leases = LeaseTable(ttl=3.0)
    gateway = RequestGateway(sim, queue, config, journal=journal)
    scheduler = ScriptedScheduler(sim, script)
    pool = WorkerPool(sim, queue, gateway, App(), config,
                      scheduler_factory=lambda i: scheduler,
                      rng_factory=lambda i: None, leases=leases,
                      heartbeat_interval=1.0)
    pool.start()
    if recovery:
        Supervisor(sim, gateway, leases, App()).start()
    return sim, queue, gateway, pool


#: gaps between scripted operations: same-instant bursts, points of the
#: idle-poll grid the pool once had (worker i of 4 on k + (i+1)/5, the
#: Supervisor on whole seconds), and anything in between
_op_gaps = st.one_of(
    st.sampled_from([0.0, 0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False))
_pool_ops = st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 2)),
    st.tuples(st.just("submit"), st.integers(0, 2)),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("kill"), st.integers(0, 3)),
    st.tuples(st.just("revive"), st.integers(0, 3)),
)
_placements = st.lists(st.tuples(
    st.sampled_from([0.0, 0.05, 0.4, 1.0, 3.0]), st.booleans()),
    min_size=1, max_size=6)


class TestWorkConserving:
    """An idle pool claims work the instant it is queued: at the end of
    every virtual instant no request waits in the queue while a live
    worker is idle, one enqueue wakes at most one worker, and a
    same-instant tie goes to the lowest-index idle worker."""

    @staticmethod
    def play(ops, placements, recovery):
        sim, queue, gateway, pool = bare_pool(script=placements,
                                              recovery=recovery)
        violations = []

        def end_of_instant():
            if queue.depth and pool._parked:
                violations.append((sim.now, queue.depth, set(pool._parked)))

        sim.end_of_instant = end_of_instant
        wake = queue.on_enqueue

        def audited_wake():
            parked = set(pool._parked)
            wake()
            woken = parked - set(pool._parked)
            assert len(woken) <= 1, woken
            assert not parked or woken == {min(parked)}, (parked, woken)

        queue.on_enqueue = audited_wake
        submitted = []

        def apply(op):
            kind, arg = op
            if kind == "submit":
                submitted.append(
                    gateway.submit(user="u", priority=arg).request_id)
            elif kind == "cancel" and submitted:
                gateway.cancel(submitted[arg % len(submitted)])
            elif kind == "kill" and not pool._dead[arg]:
                pool.kill(arg)
            elif kind == "revive" and pool._dead[arg]:
                pool.revive(arg)

        when = 0.0
        for gap, op in ops:
            when += gap
            sim.schedule_at(when, lambda o=op: apply(o))
        sim.run_until(when)
        for i in pool.dead_workers:
            pool.revive(i)
        sim.run_until(when + 120.0)
        assert not violations, violations[:5]
        return gateway, queue, pool

    @given(ops=st.lists(st.tuples(_op_gaps, _pool_ops), min_size=1,
                        max_size=40),
           placements=_placements)
    @settings(max_examples=80, deadline=None)
    def test_no_request_waits_for_an_idle_worker(self, ops, placements):
        gateway, queue, pool = self.play(ops, placements, recovery=False)
        assert queue.depth == 0 and pool.quiescent

    @given(ops=st.lists(st.tuples(_op_gaps, _pool_ops), min_size=1,
                        max_size=40),
           placements=_placements)
    @settings(max_examples=40, deadline=None)
    def test_with_recovery_every_request_ends(self, ops, placements):
        gateway, queue, pool = self.play(ops, placements, recovery=True)
        assert all(r.terminal for r in gateway.requests.values())
        assert queue.depth == 0 and pool.quiescent

    def test_burst_goes_to_the_lowest_idle_workers(self):
        sim, queue, gateway, pool = bare_pool(script=[(5.0, True)])
        sim.run_until(1.0)
        assert pool.quiescent
        pool.kill(1)
        ids = [gateway.submit(user="u").request_id for _ in range(2)]
        sim.run_until(1.0)
        assert [gateway.requests[r].worker for r in ids] == [0, 2]
        assert [gateway.requests[r].started_at for r in ids] == [1.0, 1.0]


class TestIdleWorkerLifecycle:
    """Kill, stop, shutdown and revive leave no worker parked for good."""

    def test_kill_of_an_idle_worker_does_not_swallow_the_next_enqueue(self):
        sim, queue, gateway, pool = bare_pool(workers=2)
        sim.run_until(0.5)
        victim = pool._processes[0]
        pool.kill(0)
        assert 0 not in pool._parked
        rid = gateway.submit(user="u").request_id
        sim.run_until(0.5)
        assert victim.resolved  # returned on its dead check
        assert gateway.requests[rid].worker == 1
        assert gateway.requests[rid].started_at == 0.5

    def test_kill_of_a_woken_worker_passes_its_wake_on(self):
        sim, queue, gateway, pool = bare_pool(workers=2)
        sim.run_until(0.5)
        rid = gateway.submit(user="u").request_id  # wakes worker 0 ...
        pool.kill(0)                               # ... which dies first
        sim.run_until(0.5)
        assert gateway.requests[rid].worker == 1
        assert gateway.requests[rid].started_at == 0.5

    @pytest.mark.parametrize("how", ["stop", "shutdown"])
    def test_stop_and_shutdown_wake_every_parked_worker(self, how):
        sim, queue, gateway, pool = bare_pool()
        sim.run_until(0.5)
        assert len(pool._parked) == pool.size
        getattr(pool, how)()
        assert not pool._parked
        sim.run_until(0.5)
        assert all(p.resolved for p in pool._processes)
        assert sim.queue_depth == 0

    def test_revive_with_a_backlog_claims_at_its_start_instant(self):
        sim, queue, gateway, pool = bare_pool(workers=1)
        sim.run_until(0.5)
        pool.kill(0)
        ids = [gateway.submit(user="u").request_id for _ in range(2)]
        sim.run_until(3.0)
        assert queue.depth == 2
        pool.revive(0)
        sim.run_until(3.0)
        first = gateway.requests[ids[0]]
        assert (first.worker, first.started_at) == (0, 3.0)


class TestMetasystemWiring:
    def test_start_service_idempotent(self):
        meta, suite = build_service()
        assert meta.start_service() is suite
        assert meta.service is suite

    def test_a_stopped_tier_is_never_handed_back(self):
        """A stopped suite stays readable but ``start_service`` refuses
        it; once ``stop_service`` detaches it, ``start_service`` builds a
        tier whose workers place what is submitted (given the world's
        app class, as a restore gives it)."""
        meta, suite = build_service()
        suite.stop()
        with pytest.raises(LegionError, match="was stopped"):
            meta.start_service()
        assert meta.service is suite and suite.stopped
        assert meta.stop_service() is suite and meta.service is None
        fresh = meta.start_service(app=suite.app)
        assert fresh is not suite and not fresh.stopped
        request_id = fresh.gateway.submit(user="u").request_id
        meta.advance(600.0)
        assert fresh.gateway.requests[request_id].state == PLACED
        assert meta.stop_service() is fresh and fresh.stopped

    def test_a_stopped_tier_is_replaced_without_an_app(self):
        """``start_service()`` after ``stop_service()`` reuses the world's
        ``service-app`` class instead of binding it a second time."""
        meta = standard_world(7, 3, 6, 3, 0.3)
        first = meta.start_service()
        meta.advance(30.0)
        meta.stop_service()
        fresh = meta.start_service()
        assert fresh is not first and fresh.app is first.app
        request_id = fresh.gateway.submit(user="u").request_id
        meta.advance(600.0)
        assert fresh.gateway.requests[request_id].state == PLACED

    def test_a_reused_app_class_must_match_the_config_work(self):
        meta = standard_world(7, 3, 6, 3, 0.3)
        meta.start_service()
        meta.stop_service()
        with pytest.raises(LegionError, match="work_units"):
            meta.start_service(ServiceConfig(work=20.0))

    def test_testbed_spec_service_knob(self):
        meta = build_testbed(TestbedSpec(
            n_domains=1, hosts_per_domain=2, platform_mix=1))
        meta.start_service(ServiceConfig(workers=1, queue_cap=4))
        assert meta.service is not None
        assert meta.service.config.workers == 1

    def test_testbed_spec_service_true_uses_defaults(self):
        meta = build_testbed(TestbedSpec(
            n_domains=1, hosts_per_domain=2, platform_mix=1))
        meta.start_service()
        assert meta.service.config == ServiceConfig()


class TestSettled:
    def test_without_recovery_every_request_terminal(self):
        meta = build_testbed(TestbedSpec(seed=0, n_domains=1,
                                         hosts_per_domain=3, platform_mix=2))
        suite = meta.start_service(ServiceConfig(workers=1, queue_cap=8))
        assert suite.leases is None and suite.settled
        suite.gateway.submit(user="u")
        assert not suite.settled
        meta.advance(90.0)
        assert suite.settled

    def test_a_live_or_late_effect_lease_keeps_the_tier_busy(self):
        """Every request terminal is not enough with recovery on: an
        active lease, or an expired one whose late effects the
        Supervisor has not reaped yet, keeps the tier unsettled."""
        meta = build_testbed(TestbedSpec(seed=0, n_domains=1,
                                         hosts_per_domain=3, platform_mix=2))
        suite = meta.start_service(
            ServiceConfig(workers=1, queue_cap=8),
            recovery=RecoveryConfig(lease_ttl=5.0, heartbeat_interval=2.0))
        rid = suite.gateway.submit(user="u").request_id
        meta.advance(90.0)
        assert suite.settled
        leases = suite.leases
        lease = leases.grant(rid, 0, meta.now)
        assert not suite.settled
        leases.release(lease, meta.now)
        assert suite.settled
        lease = leases.grant(rid, 0, meta.now)
        leases.expire(lease, meta.now)
        leases.deposit_effects(lease, SimpleNamespace(created=[]), meta.now)
        assert leases.late_effects and not suite.settled
        meta.advance(1.0)  # the Supervisor reaps at the deposit instant
        assert not leases.late_effects and suite.settled


class TestTrafficModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficModel(users=0)
        with pytest.raises(ValueError):
            TrafficModel(diurnal_amplitude=1.5)

    def test_peak_rate_bounds_rate(self):
        model = TrafficModel(users=1000, requests_per_user_hour=3.6,
                             surge_start=100.0, surge_length=50.0,
                             surge_multiplier=5.0)
        peak = model.peak_rate
        for t in (0.0, 60.0, 120.0, 250.0, 86000.0):
            assert model.rate(t, bursting=True) <= peak + 1e-12


def reference_arrivals(sim, rng, model, duration, out):
    """The arrival loop as it was before thinning moved inline: one
    kernel ``timeout`` per *candidate*.  Kept as the reference the
    generator's arrival list is compared against."""
    t0 = sim.now
    end = t0 + duration
    lam_max = model.peak_rate
    bursting = False
    next_toggle = t0 + float(rng.exponential(model.mean_burst_every))
    cum, acc = [], 0.0
    for w in PRIORITY_WEIGHTS:
        acc += w / sum(PRIORITY_WEIGHTS)
        cum.append(acc)
    while True:
        gap = float(rng.exponential(1.0 / lam_max))
        if sim.now + gap >= end:
            break
        yield sim.timeout(gap)
        now = sim.now
        while model.burst_multiplier > 1.0 and now >= next_toggle:
            bursting = not bursting
            next_toggle += float(rng.exponential(
                model.mean_burst_length if bursting
                else model.mean_burst_every))
        if float(rng.random()) >= model.rate(now - t0, bursting) / lam_max:
            continue
        user = f"user-{int(rng.integers(model.users)):07d}"
        u = float(rng.random())
        priority = next((p for p, c in enumerate(cum) if u < c),
                        len(cum) - 1)
        out.append((now, user, priority, bursting))


class TestTrafficGenerator:
    #: bursts every ~40 s for ~20 s and a x6 surge over [100, 200)
    BUSY = TrafficModel(users=5000, requests_per_user_hour=3.6,
                        burst_multiplier=3.0, mean_burst_every=40.0,
                        mean_burst_length=20.0, surge_start=100.0,
                        surge_length=100.0, surge_multiplier=6.0)
    #: no bursts, no surge: only the diurnal sinusoid thins
    CALM = TrafficModel(users=800, requests_per_user_hour=7.2,
                        burst_multiplier=1.0, day_length=600.0)

    @staticmethod
    def arrivals(model, seed, duration, reference=False):
        """``(arrival rows, kernel events)`` of one seeded run, from the
        generator or from the reference loop."""
        sim = Simulator()
        sim.run_until(12.5)
        rng = RngRegistry(seed).stream("service", "traffic")
        out = []
        if reference:
            sim.process(reference_arrivals(sim, rng, model, duration, out))
        else:
            gen = TrafficGenerator(
                sim, rng, model,
                lambda user, priority: out.append((sim.now, user, priority)),
                duration)
            gen.start()
        sim.run()
        return out, sim.events_processed

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_same_arrivals_as_the_per_candidate_loop(self, seed):
        got, events = self.arrivals(self.BUSY, seed, 600.0)
        want, reference_events = self.arrivals(self.BUSY, seed, 600.0,
                                               reference=True)
        assert got == [row[:3] for row in want]  # exact floats included
        assert len(got) > 200
        # both multipliers were live at some arrival, together
        assert any(bursting and 112.5 <= t < 212.5
                   for t, _u, _p, bursting in want)
        assert any(not bursting for *_rest, bursting in want)
        # ... and only accepted arrivals reached the kernel
        assert events == 2 * len(got) + 1
        assert reference_events > 5 * events

    def test_same_arrivals_without_bursts_or_surge(self):
        got, _ = self.arrivals(self.CALM, 3, 900.0)
        want, _ = self.arrivals(self.CALM, 3, 900.0, reference=True)
        assert got == [row[:3] for row in want] and len(got) > 100


CAMPAIGN_KWARGS = dict(
    seed=11, users=2000, duration=30.0, workers=2, queue_cap=8,
    requests_per_user_hour=3.6, surge_multiplier=8.0,
    n_domains=1, hosts_per_domain=4, platform_mix=2, host_slots=8,
    drain_time=300.0)


class TestServiceCampaign:
    def test_small_campaign_places_and_accounts_for_everything(self):
        report = run_service(**CAMPAIGN_KWARGS)
        assert report.placed > 0
        by_state = report.requests["by_state"]
        assert sum(by_state.values()) == report.requests["submitted"]
        assert set(by_state) <= TERMINAL_STATES  # fully drained
        assert report.pending == 0
        assert report.latency["count"] == report.placed
        assert report.slo is not None

    def test_saturated_drained_cycle_is_byte_identical(self):
        first = run_service(**CAMPAIGN_KWARGS)
        second = run_service(**CAMPAIGN_KWARGS)
        assert first.queue["peak_depth"] == CAMPAIGN_KWARGS["queue_cap"]
        assert first.shed > 0  # the surge saturated the backlog
        assert first.to_json() == second.to_json()

    def test_a_meta_with_a_service_is_refused(self):
        """A second campaign on the same world would reuse the first
        one's stopped tier: it would place nothing and count the first
        run's requests as its own."""
        meta = standard_world(7, 1, 4, 2, 0.3, host_slots=8)
        run_service(seed=7, duration=30.0, meta=meta)
        with pytest.raises(LegionError, match="already started"):
            run_service(seed=7, duration=30.0, meta=meta)

    def test_comparison_requires_bounded_cap(self):
        with pytest.raises(ValueError):
            run_service_comparison(queue_cap=0)


class TestServeCLI:
    def test_serve_smoke(self):
        code, text = run_cli(
            "serve", "--seed", "11", "--users", "2000", "--duration",
            "30", "--workers", "2", "--queue-cap", "8", "--rate", "3.6",
            "--surge", "8", "--domains", "1", "--hosts", "4",
            "--platforms", "2", "--slo-threshold", "60")
        assert code == 0
        assert "service campaign:" in text
        assert "outcomes:" in text

    def test_serve_writes_report(self, tmp_path):
        out_file = tmp_path / "service.json"
        code, text = run_cli(
            "serve", "--seed", "11", "--users", "2000", "--duration",
            "30", "--workers", "2", "--queue-cap", "8", "--rate", "3.6",
            "--surge", "8", "--domains", "1", "--hosts", "4",
            "--platforms", "2", "--slo-threshold", "60",
            "--out", str(out_file))
        assert code == 0
        assert out_file.exists()
        assert '"p99_within_slo"' in out_file.read_text()

    def test_serve_rejects_bad_backpressure(self):
        with pytest.raises(SystemExit):
            run_cli("serve", "--backpressure", "drop")
