"""Tests for the recovery layer: request journal, worker leases, the
Supervisor, checkpoint/restore, and game-day campaigns.

The correctness pins from the recovery design:

* journal replay reconstructs the gateway registry and live queue
  byte-identically to a live snapshot, mid-run and at the end;
* a request is owned by at most one lease at any virtual time
  (hypothesis audit over the full interval history), and every
  submitted request reaches exactly one terminal state with exactly
  one ``finish`` journal entry;
* a crashed worker's orphan is re-enqueued exactly once and nothing it
  half-enacted survives as a duplicate placement;
* a cancel that lands after a worker popped the request is honoured at
  claim time instead of being placed anyway (the lazy-cancel race);
* a checkpoint/teardown/restore cycle leaves a seeded game day
  byte-identical to one that never stopped.
"""

import io
import json
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting.ledger import ChargeRecord
from repro.chaos.faults import make_fault
from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import ChaosPlan
from repro.errors import ChaosError, RecoveryError
from repro.naming.loid import LOID
from repro.recovery import (
    LeaseTable,
    RecoveryConfig,
    RequestJournal,
    ServiceCheckpoint,
    capture_checkpoint,
    restore_service,
    run_gameday,
    run_gameday_comparison,
)
from repro.campaign import stable_round
from repro.recovery import gameday as gameday_module
from repro.recovery.checkpoint import quiescence_blockers
from repro.recovery.gameday import checkpoint_when_quiet
from repro.service import ServiceConfig
from repro.service.request import (
    CANCELLED,
    DEFERRED,
    PLACING,
    QUEUED,
    TERMINAL_STATES,
    ServiceRequest,
)
from repro.service.workers import DISPATCH_OVERHEAD, WorkerPool
from repro.sim.kernel import Simulator
from repro.tools import main
from repro.workload.testbed import TestbedSpec, build_testbed


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def build_recovery_service(seed=0, ttl=5.0, heartbeat=2.0, **cfg):
    """A small testbed with the service tier + recovery layer started."""
    meta = build_testbed(TestbedSpec(
        seed=seed, n_domains=1, hosts_per_domain=3, platform_mix=2,
        background_load_mean=0.2))
    cfg.setdefault("workers", 1)
    cfg.setdefault("queue_cap", 16)
    suite = meta.start_service(
        ServiceConfig(**cfg),
        recovery=RecoveryConfig(lease_ttl=ttl, heartbeat_interval=heartbeat))
    return meta, suite


def journal_events(suite, event, request_id=None):
    return [e for e in suite.journal.entries
            if e.event == event
            and (request_id is None or e.request_id == request_id)]


def reference_replay_state(entries):
    """The journal fold this repository had before
    ``ServiceRequest.apply`` became the one state machine, kept as an
    independent oracle: it assigns every field itself, so a transition
    ``apply`` gets wrong shows up as a difference here even though the
    live tier and ``RequestJournal.replay`` (which share ``apply``)
    still agree with each other."""
    requests = {}
    live = {}  # rid -> (serial, priority)
    serial = 0
    submitted = 0
    admission_rejections = 0
    for e in entries:
        if e.event == "submit":
            submitted += 1
            requests[e.request_id] = ServiceRequest(
                request_id=e.request_id, user=e.data["user"],
                count=e.data["count"], priority=e.data["priority"],
                work=e.data["work"], submitted_at=e.t)
            continue
        request = requests[e.request_id]
        if e.event == "admission_rej":
            admission_rejections += 1
        elif e.event in ("enqueue", "requeue"):
            request.state = QUEUED
            request.enqueued_at = e.t
            if e.event == "requeue":
                request.worker = None
                request.requeues = e.data["requeues"]
            live[e.request_id] = (serial, request.priority)
            serial += 1
        elif e.event == "defer":
            request.state = DEFERRED
            request.defers = e.data["defers"]
        elif e.event == "claim":
            request.state = PLACING
            request.started_at = e.t
            request.worker = e.data["worker"]
            live.pop(e.request_id, None)
        elif e.event == "attempt":
            request.attempts = e.data["attempt"]
        elif e.event == "cancel_flag":
            request.cancel_requested = True
        elif e.event == "finish":
            request.state = e.data["state"]
            request.finished_at = e.t
            request.detail = e.data["detail"]
            request.created = list(e.data["created"])
            if e.data["state"] == CANCELLED:
                live.pop(e.request_id, None)
    ordered = sorted(live.items(), key=lambda kv: (-kv[1][1], kv[1][0]))
    return {
        "requests": {rid: req.to_dict()
                     for rid, req in sorted(requests.items())},
        "queue_entries": [[prio, rid] for rid, (_s, prio) in ordered],
        "submitted": submitted,
        "admission_rejections": admission_rejections,
    }


def assert_states_match(suite):
    """The live snapshot, journal replay and the reference fold agree
    byte for byte."""
    live = RequestJournal.snapshot_state(suite.gateway, suite.queue)
    replayed = RequestJournal.replay_state(suite.journal.entries)
    reference = reference_replay_state(suite.journal.entries)
    assert json.dumps(live, sort_keys=True) == \
        json.dumps(replayed, sort_keys=True)
    assert json.dumps(reference, sort_keys=True) == \
        json.dumps(replayed, sort_keys=True)


class TestJournal:
    def test_unknown_event_rejected(self):
        journal = RequestJournal(lambda: 0.0)
        with pytest.raises(RecoveryError):
            journal.record("vanish", "req-000000")

    def test_replay_unknown_request_raises(self):
        journal = RequestJournal(lambda: 0.0)
        journal.record("enqueue", "req-000009")
        with pytest.raises(RecoveryError):
            RequestJournal.replay(journal.entries)

    def test_replay_matches_live_snapshot_at_every_stage(self):
        meta, suite = build_recovery_service(workers=2)
        for i in range(6):
            suite.gateway.submit(user=f"u{i}", priority=i % 3)
        assert_states_match(suite)  # backlog full, nothing claimed
        meta.advance(1.0)
        assert_states_match(suite)  # some claimed / placing
        meta.advance(90.0)
        assert all(r.terminal for r in suite.gateway.requests.values())
        assert_states_match(suite)  # fully drained

    def test_replay_claim_after_finish_raises(self):
        journal = RequestJournal(lambda: 0.0)
        journal.record("submit", "req-000000", user="u", count=1,
                       priority=0, work=None)
        journal.record("finish", "req-000000", state="shed",
                       detail="backlog full", created=[])
        journal.record("claim", "req-000000", worker=0)
        with pytest.raises(RecoveryError, match="#2"):
            RequestJournal.replay(journal.entries)

    def test_load_roundtrips_entries(self):
        meta, suite = build_recovery_service()
        suite.gateway.submit(user="u")
        meta.advance(30.0)
        docs = suite.journal.to_dicts()
        fresh = RequestJournal(lambda: 0.0)
        fresh.load(docs)
        assert fresh.to_dicts() == docs


class TestLeaseTable:
    def test_double_grant_raises(self):
        leases = LeaseTable(ttl=5.0)
        leases.grant("req-000000", 0, now=0.0)
        with pytest.raises(RecoveryError):
            leases.grant("req-000000", 1, now=1.0)

    def test_renew_extends_and_stale_renew_is_noop(self):
        leases = LeaseTable(ttl=5.0)
        lease = leases.grant("req-000000", 0, now=0.0)
        leases.renew(lease, now=3.0)
        assert lease.expires_at == pytest.approx(8.0)
        leases.release(lease, now=4.0)
        leases.renew(lease, now=5.0)  # released: must not resurrect
        assert leases.renewals == 1
        assert "req-000000" not in leases.active

    def test_expire_is_identity_guarded(self):
        leases = LeaseTable(ttl=5.0)
        first = leases.grant("req-000000", 0, now=0.0)
        leases.expire(first, now=6.0)
        second = leases.grant("req-000000", 1, now=6.0)
        leases.expire(first, now=7.0)  # stale handle: no-op
        assert leases.active["req-000000"] is second
        assert leases.expirations == 1

    def test_expired_sorted_by_request_id(self):
        leases = LeaseTable(ttl=1.0)
        leases.grant("req-000002", 2, now=0.0)
        leases.grant("req-000001", 1, now=0.0)
        assert [l.request_id for l in leases.expired(now=2.0)] == \
            ["req-000001", "req-000002"]

    def test_late_deposit_queues_for_the_supervisor(self):
        leases = LeaseTable(ttl=1.0)
        lease = leases.grant("req-000000", 0, now=0.0)
        leases.expire(lease, now=2.0)
        outcome = object()
        leases.deposit_effects(lease, outcome, now=3.0)
        assert lease.effects is outcome
        assert leases.late_effects == [lease]

    def test_active_deposit_stays_on_the_lease(self):
        leases = LeaseTable(ttl=10.0)
        lease = leases.grant("req-000000", 0, now=0.0)
        leases.deposit_effects(lease, object(), now=1.0)
        assert not leases.late_effects


class ChainedHeartbeatPool(WorkerPool):
    """The heartbeat this repository had before each lease owned a
    ``Ticker``, kept as the reference: a closure that reschedules itself
    while the worker lives and the lease is active."""

    def _schedule_heartbeat(self, lease, idx, generation):
        interval = self.heartbeat_interval
        if interval <= 0 or self.leases is None:
            return

        def beat():
            if (self._stopped or self._dead[idx]
                    or self._generation[idx] != generation):
                return
            if not self.leases.is_active(lease):
                return
            self.leases.renew(lease, self.sim.now)
            self.sim.schedule(interval, beat)

        self.sim.schedule(interval, beat)


class _EmptyQueue:
    """A revived worker parks waiting for work: nothing is ever queued."""

    depth = 0

    def pop(self):
        return None


class _LoggedLeases(LeaseTable):
    def __init__(self, sim, ttl):
        super().__init__(ttl)
        self.sim = sim
        self.renewed = []

    def renew(self, lease, now):
        self.renewed.append((now, lease.request_id, self.sim.events_processed))
        super().renew(lease, now)


_BEAT = 2.0


def heartbeats_on_heap(sim):
    """Pending heartbeat events: a chained ``beat`` or a lease ticker's
    firing (nothing else in a bare pool's kernel rides a ticker)."""
    return sum(1 for *_, action in sim._heap
               if getattr(action, "__name__", "") in ("beat", "_fire"))


def _play_heartbeats(pool_class, script):
    """Run ``script`` on a bare two-worker pool; return every renewal
    (instant, request, events so far), the kernel's event count and heap
    depth, and each lease's final expiry."""
    sim = Simulator()
    leases = _LoggedLeases(sim, ttl=5.0)
    pool = pool_class(sim, _EmptyQueue(), None, None,
                      ServiceConfig(workers=2),
                      scheduler_factory=lambda i: None,
                      rng_factory=lambda i: None, leases=leases,
                      heartbeat_interval=_BEAT)
    granted = []

    def apply(op):
        kind, arg = op
        if kind == "grant" and not pool._dead[arg]:
            lease = leases.grant(f"req-{len(granted):06d}", arg, sim.now)
            granted.append(lease)
            pool._schedule_heartbeat(lease, arg, pool._generation[arg])
        elif kind == "release" and arg < len(granted):
            leases.release(granted[arg], sim.now)
        elif kind == "expire" and arg < len(granted):
            leases.expire(granted[arg], sim.now)
        elif kind == "kill" and not pool._dead[arg]:
            pool.kill(arg)
        elif kind == "revive" and pool._dead[arg]:
            pool.revive(arg)
        elif kind == "shutdown":
            pool.shutdown()

    when, late = 0.0, []
    for gap, early, op in script:
        when += gap
        if early:
            sim.schedule_at(when, lambda o=op: apply(o))
        else:
            late.append((when, op))
    for at, op in late:
        sim.run_until(at)
        apply(op)
    sim.run_until(when + 3 * _BEAT)
    for lease in granted:
        leases.release(lease, sim.now)
    sim.run_until(sim.now + _BEAT)
    assert heartbeats_on_heap(sim) == 0  # every lease is inactive now
    return (leases.renewed, sim.events_processed, sim.queue_depth,
            [lease.expires_at for lease in granted])


_beat_gaps = st.one_of(
    st.sampled_from([0.0, _BEAT, 2 * _BEAT]),
    st.floats(min_value=0.0, max_value=7.0, allow_nan=False))
_workers = st.integers(0, 1)
_leases = st.integers(0, 5)
_heartbeat_ops = st.one_of(
    st.tuples(st.just("grant"), _workers),
    st.tuples(st.just("release"), _leases),
    st.tuples(st.just("expire"), _leases),
    st.tuples(st.just("kill"), _workers),
    st.tuples(st.just("revive"), _workers),
    st.tuples(st.just("shutdown"), st.none()),
)
#: (gap since the previous op, run as a kernel event — so ahead of any
#: heartbeat armed later at that instant — or from outside, the op)
_heartbeat_script = st.lists(st.tuples(_beat_gaps, st.booleans(),
                                       _heartbeat_ops),
                             min_size=1, max_size=25)


class TestHeartbeatTickerMatchesTheChain:
    def test_grant_renew_release_kill_and_shutdown(self):
        script = [
            (0.0, False, ("grant", 0)),     # renewed at 2, 4, 6
            (7.0, False, ("release", 0)),   # the beat at 8 stops
            (0.0, False, ("grant", 1)),     # renewed at 9, 11
            (5.0, True, ("kill", 1)),       # mid-lease: the beat at 13 stops
            (1.0, False, ("grant", 0)),     # renewed at 15, 17
            (4.5, False, ("shutdown", None)),  # generation bump
        ]
        ticker = _play_heartbeats(WorkerPool, script)
        assert ticker == _play_heartbeats(ChainedHeartbeatPool, script)
        renewed = [(at, rid) for at, rid, _events in ticker[0]]
        assert renewed == [(2.0, "req-000000"), (4.0, "req-000000"),
                           (6.0, "req-000000"), (9.0, "req-000001"),
                           (11.0, "req-000001"), (15.0, "req-000002"),
                           (17.0, "req-000002")]

    @given(_heartbeat_script)
    @settings(max_examples=150, deadline=None)
    def test_same_renewals_and_kernel_events(self, script):
        assert _play_heartbeats(WorkerPool, script) == \
            _play_heartbeats(ChainedHeartbeatPool, script)


class TestCancelRace:
    def test_cancel_after_pop_is_honoured_at_claim(self):
        """The lazy-cancel race: a cancel that lands between a worker's
        pop and its claim must finish the request CANCELLED instead of
        being placed anyway."""
        meta, suite = build_recovery_service(workers=1)
        result = suite.gateway.submit(user="u")
        stolen = suite.queue.pop()  # a worker has popped it...
        assert stolen.request_id == result.request_id
        out = suite.gateway.cancel(result.request_id)
        assert out.ok and "cancel pending" in out.detail
        assert stolen.cancel_requested and not stolen.terminal
        assert journal_events(suite, "cancel_flag", result.request_id)
        suite.queue.requeue(stolen)  # hand it back to the real worker
        meta.advance(5.0)
        assert stolen.state == "cancelled"
        assert "cancelled at claim" in stolen.detail

    def test_cancel_while_queued_still_cancels_eagerly(self):
        meta, suite = build_recovery_service(workers=1)
        result = suite.gateway.submit(user="u")
        out = suite.gateway.cancel(result.request_id)
        assert out.ok and out.state == "cancelled"
        assert suite.queue.pop() is None


class TestPerWorkerRetryStreams:
    def test_streams_are_distinct_and_deterministic(self):
        _, first = build_recovery_service(seed=3, workers=2)
        _, second = build_recovery_service(seed=3, workers=2)
        draws_a = [[p.backoff(1) for _ in range(4)]
                   for p in first.pool.retry_policies]
        draws_b = [[p.backoff(1) for _ in range(4)]
                   for p in second.pool.retry_policies]
        assert draws_a == draws_b            # same seed, same traces
        assert draws_a[0] != draws_a[1]      # but per-worker streams
        base = first.pool.config.retry_backoff
        for delay in draws_a[0] + draws_a[1]:
            assert 0.5 * base <= delay < 1.5 * base


class TestOrphanRecovery:
    def test_orphan_recovered_exactly_once(self):
        """Kill the only worker mid-request: the lease expires, the
        Supervisor re-enqueues the orphan exactly once, and the revived
        worker finishes it — nothing lost."""
        meta, suite = build_recovery_service(
            workers=1, ttl=5.0, heartbeat=2.0)
        # one instance more than the testbed's 3 hosts x 4 slots: nobody
        # can place it, so the request stays in flight through retries
        # and the kill is guaranteed to land mid-claim
        result = suite.gateway.submit(user="u", count=13)
        rid = result.request_id
        meta.sim.schedule_at(2.0, lambda: suite.pool.kill(0))
        meta.sim.schedule_at(12.0, lambda: suite.pool.revive(0))
        meta.advance(10.0)
        request = suite.gateway.requests[rid]
        assert request.state == QUEUED and request.worker is None
        assert_states_match(suite)  # requeued, not yet reclaimed
        meta.advance(80.0)
        assert request.terminal
        assert request.requeues == 1
        assert suite.supervisor.recovered == 1
        assert suite.leases.expirations == 1
        assert suite.pool.abandons == 1
        assert len(journal_events(suite, "expire", rid)) == 1
        assert len(journal_events(suite, "requeue", rid)) == 1
        assert len(journal_events(suite, "finish", rid)) == 1
        assert not suite.leases.active
        # requeued at the lease's expiry instant, not at a later scan
        [(_, _, _, expires_at, how)] = suite.leases.history[:1]
        assert how == "expired"
        [requeue] = journal_events(suite, "requeue", rid)
        assert requeue.t == expires_at
        assert suite.supervisor.orphan_latencies == [0.0]

    def test_each_orphan_requeued_at_its_own_expiry(self):
        """Three leases, two of whose workers die at different times: the
        timer re-arms at the earliest remaining expiry, so each orphan is
        requeued at its own lease's ``expires_at``."""
        meta, suite = build_recovery_service(
            workers=3, ttl=5.0, heartbeat=2.0)
        # one instance more than the testbed's 3 hosts x 4 slots: no
        # request places, so each worker still holds its lease when it dies
        for i in range(3):
            suite.gateway.submit(user=f"u{i}", count=13)
        meta.sim.schedule_at(2.0, lambda: suite.pool.kill(1))
        meta.sim.schedule_at(3.0, lambda: suite.pool.kill(2))
        meta.advance(7.5)  # just past the later expiry
        expired = {rid: ended for rid, _w, _g, ended, how
                   in suite.leases.history if how == "expired"}
        assert sorted(expired.values()) == [5.0, 7.0]
        for rid, expires_at in expired.items():
            [requeue] = journal_events(suite, "requeue", rid)
            assert requeue.t == expires_at, rid
        assert suite.supervisor.orphan_latencies == [0.0, 0.0]

    def test_late_effects_reaped_at_the_deposit_instant(self):
        """A placement outlives its lease: the lease expires while the
        dead worker is still inside ``Scheduler.run``, then the worker
        deposits what it enacted while no other lease is active.  The
        zombie instances are destroyed at the deposit instant."""
        meta, suite = build_recovery_service(
            workers=1, ttl=5.0, heartbeat=2.0)
        sim, pool, leases = meta.sim, suite.pool, suite.leases
        real = pool.schedulers[0]

        class SlowScheduler:
            """Places for real, then spends 20 s before returning."""

            def run(self, requests, reservation_duration):
                outcome = real.run(
                    requests, reservation_duration=reservation_duration)
                sim.run_until(sim.now + 20.0)
                return outcome

        pool.schedulers[0] = SlowScheduler()
        deposits, destroyed = [], []
        deposit, destroy = leases.deposit_effects, suite.app.destroy_instance

        def logged_deposit(lease, outcome, now):
            deposits.append((now, list(outcome.created)))
            deposit(lease, outcome, now)

        def logged_destroy(loid, now):
            destroyed.append((sim.now, loid))
            return destroy(loid, now=now)

        leases.deposit_effects = logged_deposit
        suite.app.destroy_instance = logged_destroy
        rid = suite.gateway.submit(user="u").request_id
        sim.schedule_at(1.0, lambda: pool.kill(0))
        meta.advance(40.0)
        [expire] = journal_events(suite, "expire", rid)
        [(deposited_at, created)] = deposits
        assert created and expire.t < deposited_at
        assert not leases.active and not leases.late_effects
        assert destroyed == [(deposited_at, loid) for loid in created]
        assert suite.supervisor.duplicates_averted == len(created)
        assert not suite.app.instances

    def test_cancelled_orphan_finishes_cancelled(self):
        meta, suite = build_recovery_service(
            workers=1, ttl=5.0, heartbeat=2.0)
        result = suite.gateway.submit(user="u", count=999)
        meta.sim.schedule_at(2.0, lambda: suite.pool.kill(0))
        meta.sim.schedule_at(3.0,
                             lambda: suite.gateway.cancel(result.request_id))
        meta.advance(60.0)
        request = suite.gateway.requests[result.request_id]
        assert request.state == "cancelled"
        assert suite.supervisor.cancelled_on_recovery == 1
        assert suite.supervisor.recovered == 0
        assert_states_match(suite)

    def test_reaper_destroys_deposited_placements(self):
        """Effects a dead worker deposited are destroyed on recovery —
        the zombie instances never survive as duplicates."""
        meta, suite = build_recovery_service(workers=1)
        suite.gateway.submit(user="u")
        meta.advance(30.0)  # one real placement to steal instances from
        loids = list(suite.app.instances)
        assert loids

        class FakeOutcome:
            created = loids

        lease = suite.leases.grant("req-zzz", 0, now=meta.now)
        lease.effects = FakeOutcome()
        reaped = suite.supervisor._reap(lease, meta.now)
        assert reaped == len(loids)
        assert not suite.app.instances
        assert suite.supervisor.duplicates_averted == len(loids)
        assert lease.effects is None


class TestUnackedCreateReap:
    def test_reap_reserved_resolves_token_to_instances(self):
        """The lost-ack half of the create protocol: the Class resolves
        a reservation token to whatever it started under it, so the
        Enactor can roll back an instance it never learned the name of."""
        meta = build_testbed(TestbedSpec(
            seed=0, n_domains=1, hosts_per_domain=2, platform_mix=1))
        from repro.objects.class_object import Placement
        from repro.workload.testbed import implementations_for_all_platforms
        app = meta.create_class("reap-app",
                                implementations_for_all_platforms())
        host, vault = meta.hosts[0], meta.vaults[0]
        token = host.make_reservation(vault.loid, app.loid, now=0.0)
        result = app.create_instance(
            Placement(host.loid, vault.loid, reservation_token=token))
        assert result.ok
        assert result.loid in app.instances
        reaped = app.reap_reserved(token, now=1.0)
        assert reaped == [result.loid]
        assert result.loid not in app.instances
        assert app.reap_reserved(token, now=2.0) == []  # exactly once

    def test_reap_tells_apart_equal_ids_from_two_hosts(self):
        """Each host counts its token ids from 1, so the Class keys its
        creations by host and id: reaping one host's token leaves the
        instance another host started under the same id."""
        meta = build_testbed(TestbedSpec(
            seed=0, n_domains=1, hosts_per_domain=2, platform_mix=1))
        from repro.objects.class_object import Placement
        from repro.workload.testbed import implementations_for_all_platforms
        app = meta.create_class("reap-app",
                                implementations_for_all_platforms())
        vault = meta.vaults[0]
        tokens, loids = [], []
        for host in meta.hosts:
            token = host.make_reservation(vault.loid, app.loid, now=0.0)
            result = app.create_instance(
                Placement(host.loid, vault.loid, reservation_token=token))
            assert result.ok
            tokens.append(token)
            loids.append(result.loid)
        assert tokens[0].token_id == tokens[1].token_id
        assert app.reap_reserved(tokens[0], now=1.0) == [loids[0]]
        assert list(app.instances) == [loids[1]]


class TestWorkerFaults:
    def test_crash_and_revive_via_fault_objects(self):
        meta, suite = build_recovery_service(workers=2)
        crash = make_fault("worker_crash", target="worker-1")
        crash.apply(meta)
        assert suite.pool.dead_workers == [1]
        crash.revert(meta)
        assert suite.pool.dead_workers == []
        suite.pool.kill(0)
        make_fault("worker_revive", target="worker-0").apply(meta)
        assert suite.pool.dead_workers == []

    def test_bad_targets_raise(self):
        meta, suite = build_recovery_service(workers=2)
        with pytest.raises(ChaosError):
            make_fault("worker_crash", target="worker-9").apply(meta)
        with pytest.raises(ChaosError):
            make_fault("worker_crash", target="bogus").apply(meta)
        bare = build_testbed(TestbedSpec(
            seed=0, n_domains=1, hosts_per_domain=2, platform_mix=1))
        with pytest.raises(ChaosError):
            make_fault("worker_crash", target="worker-0").apply(bare)

    def test_dead_worker_is_residual_and_force_repaired(self):
        meta, suite = build_recovery_service(workers=2)
        injector = ChaosInjector(meta, ChaosPlan(events=[],
                                                 horizon=1.0)).arm()
        suite.pool.kill(0)
        assert "service worker dead worker-0" in injector.residual_faults()
        injector.teardown()
        assert suite.pool.dead_workers == []
        assert injector.forced_repairs >= 1


class TestCheckpoint:
    def test_capture_refused_when_not_quiescent(self):
        meta, suite = build_recovery_service()
        suite.gateway.submit(user="u")
        blockers = quiescence_blockers(meta)
        assert any("non-terminal" in b for b in blockers)
        with pytest.raises(RecoveryError):
            capture_checkpoint(meta)

    def test_capture_refused_without_recovery_layer(self):
        meta = build_testbed(TestbedSpec(
            seed=0, n_domains=1, hosts_per_domain=3, platform_mix=2))
        meta.start_service(ServiceConfig())
        assert quiescence_blockers(meta) == \
            ["service tier started without the recovery layer"]

    def test_restore_requires_stopped_tier(self):
        meta, suite = build_recovery_service()
        meta.advance(3.0)  # workers reach their idle grid (quiescent)
        checkpoint = capture_checkpoint(meta)
        with pytest.raises(RecoveryError):
            restore_service(meta, checkpoint, suite.app)

    def test_restore_rejects_app_mismatch(self):
        meta, suite = build_recovery_service()
        meta.advance(3.0)
        checkpoint = capture_checkpoint(meta)
        meta.stop_service()
        from repro.workload.testbed import implementations_for_all_platforms
        other = meta.create_class("other-app",
                                  implementations_for_all_platforms())
        with pytest.raises(RecoveryError):
            restore_service(meta, checkpoint, other)

    def test_restore_then_same_instant_submit_matches_straight_run(self):
        """Restored daemons start in index order at the capture instant,
        so a burst submitted at that very instant is claimed by the same
        workers, at the same times, as in a run that never stopped."""
        def run(restore):
            meta, suite = build_recovery_service(seed=5, workers=3)
            meta.advance(2.5)
            if restore:
                checkpoint = ServiceCheckpoint.from_json(
                    capture_checkpoint(meta).to_json())
                meta.stop_service()
                suite = restore_service(meta, checkpoint, suite.app)
            for i in range(4):
                suite.gateway.submit(user=f"u{i}", priority=i % 2)
            meta.advance(60.0)
            return json.dumps(suite.journal.to_dicts(), sort_keys=True)

        straight = run(restore=False)
        assert '"worker": 2' in straight  # the burst used the whole pool
        assert run(restore=True) == straight

    def test_probe_wakes_when_the_timer_settles_the_last_lease(self):
        """The last blocker is a cancelled orphan's lease: nothing parks
        when the Supervisor's timer finishes it CANCELLED, so the timer
        firing itself wakes the probe, which captures at the expiry."""
        meta, suite = build_recovery_service(
            workers=1, ttl=5.0, heartbeat=2.0)
        rid = suite.gateway.submit(user="u", count=999).request_id
        meta.sim.schedule_at(2.0, lambda: suite.pool.kill(0))
        meta.sim.schedule_at(2.5, lambda: suite.pool.revive(0))
        meta.sim.schedule_at(3.0, lambda: suite.gateway.cancel(rid))
        info = checkpoint_when_quiet(meta, 1.0)
        meta.advance(30.0)
        [expire] = journal_events(suite, "expire", rid)
        assert suite.gateway.requests[rid].state == "cancelled"
        assert info["captured_at"] == expire.t == 5.0
        assert meta.service is not suite

    def test_roundtrip_restores_registry_and_counters(self):
        meta, suite = build_recovery_service(workers=2)
        for i in range(5):
            suite.gateway.submit(user=f"u{i}")
        meta.advance(90.0)
        before = RequestJournal.snapshot_state(suite.gateway, suite.queue)
        placed = suite.pool.placed
        grants = suite.leases.grants
        checkpoint = ServiceCheckpoint.from_json(
            capture_checkpoint(meta).to_json())
        meta.stop_service()
        assert meta.service is None
        restored = restore_service(meta, checkpoint, suite.app)
        after = RequestJournal.snapshot_state(restored.gateway,
                                              restored.queue)
        assert json.dumps(before, sort_keys=True) == \
            json.dumps(after, sort_keys=True)
        assert restored.pool.placed == placed
        assert restored.leases.grants == grants
        assert restored is meta.service and restored is not suite

    @pytest.mark.parametrize("counter", ["submitted",
                                         "admission_rejections"])
    def test_restore_refuses_gateway_counters_the_journal_disagrees_with(
            self, counter):
        """The gateway block and the journal's replay both give the
        gateway's counters; a checkpoint whose two copies disagree is
        refused before any tier starts."""
        meta, suite = build_recovery_service(workers=2)
        for i in range(3):
            suite.gateway.submit(user=f"u{i}")
        meta.advance(90.0)
        doc = json.loads(capture_checkpoint(meta).to_json())
        doc["gateway"][counter] += 1
        meta.stop_service()
        with pytest.raises(RecoveryError, match="disagree"):
            restore_service(meta, ServiceCheckpoint.from_dict(doc),
                            suite.app)
        assert meta.service is None

    def test_pool_generation_is_written_and_never_restored(self):
        """A pool restarts its daemons at generation 0; ``generation``
        stays in the snapshot only because the checkpoint format (and
        BENCH_gameday.json's pinned byte count) carries it."""
        _, suite = build_recovery_service(workers=2)
        suite.pool.kill(1)
        suite.pool.revive(1)
        doc = suite.pool.snapshot()
        assert doc["generation"] == [0, 1]
        _, fresh = build_recovery_service(workers=2)
        fresh.pool.restore(doc)
        assert fresh.pool.snapshot() == dict(doc, generation=[0, 0])

    @pytest.mark.parametrize("perturb", [
        None,
        lambda meta, app: meta.transport.breakers.breaker_for(
            meta.hosts[0].location).record_failure(meta.now),
        lambda meta, app: meta.guardrails.monitor.note_outcome(
            str(meta.hosts[0].location), False),
        lambda meta, app: meta.economy.budgets.on_charge(ChargeRecord(
            time=meta.now, host_loid=meta.hosts[0].loid,
            instance_loid=LOID(("test", "instance", "x")),
            class_loid=app.loid, cycles=10.0, price_per_cycle=0.01)),
    ], ids=["unperturbed", "breaker-failure", "health-failure",
            "budget-charge"])
    def test_restore_audits_the_world_side_state(self, perturb):
        """The audit compares real breaker, health and budget snapshots:
        one breaker failure, one failed outcome seen by the health
        monitor, or one charge between capture and restore refuses the
        restore."""
        meta = build_testbed(TestbedSpec(
            seed=0, n_domains=1, hosts_per_domain=3, platform_mix=2,
            background_load_mean=0.2))
        meta.enable_guardrails()
        economy = meta.enable_economy()
        suite = meta.start_service(
            ServiceConfig(workers=1, queue_cap=16),
            recovery=RecoveryConfig(lease_ttl=5.0, heartbeat_interval=2.0))
        economy.budgets.create_user("alice")
        economy.budgets.register_class(suite.app.loid, "alice")
        for i in range(3):
            suite.gateway.submit(user=f"u{i}")
        meta.advance(90.0)
        checkpoint = capture_checkpoint(meta)
        audit = checkpoint.audit
        assert len(audit["breakers"]) == len(audit["health"]) == 3
        assert audit["budgets"]["alice"]["charges"] == 3
        meta.stop_service()
        if perturb is None:
            assert restore_service(meta, checkpoint, suite.app) \
                is meta.service
        else:
            perturb(meta, suite.app)
            with pytest.raises(RecoveryError, match="world state diverged"):
                restore_service(meta, checkpoint, suite.app)


GAMEDAY_SMALL = dict(
    users=2000, duration=40.0, workers=2, queue_cap=8,
    requests_per_user_hour=3.6, surge_multiplier=8.0, kills=2,
    lease_ttl=6.0, heartbeat_interval=2.0,
    n_domains=1, hosts_per_domain=4, platform_mix=2, drain_time=600.0)


class TestGameday:
    def test_headline_comparison_passes(self):
        """The BENCH_gameday acceptance: >= 2 worker kills mid-run, zero
        lost, zero duplicates, at least one recovery, and the restored
        run byte-identical to the uninterrupted one."""
        cmp = run_gameday_comparison(seed=7, duration=120.0)
        assert cmp.straight.worker_kills >= 2
        assert cmp.straight.lost == 0
        assert cmp.straight.duplicates == 0
        assert cmp.straight.recovered > 0
        assert cmp.byte_identical
        assert cmp.passed
        assert cmp.restored.checkpoint is not None

    def test_checkpoint_captured_when_the_tier_goes_quiet(self,
                                                          monkeypatch):
        """At ``checkpoint_at`` requests are in flight and no worker is
        dead; the capture happens the instant the last worker parks,
        ``DISPATCH_OVERHEAD`` after the last ``finish``, not at a later
        whole second, and the restored run stays byte-identical."""
        captured = []

        def spy(meta):
            checkpoint = capture_checkpoint(meta)
            captured.append(checkpoint)
            return checkpoint

        monkeypatch.setattr(gameday_module, "capture_checkpoint", spy)
        cmp = run_gameday_comparison(seed=3, checkpoint_at=3.0,
                                     **GAMEDAY_SMALL)
        assert cmp.byte_identical and cmp.passed
        [checkpoint] = captured
        finishes = [e["t"] for e in checkpoint.journal
                    if e["event"] == "finish"]
        captured_at = cmp.restored.checkpoint["captured_at"]
        assert 3.0 < finishes[-1] < captured_at < 18.0  # before any kill
        assert captured_at == stable_round(
            finishes[-1] + DISPATCH_OVERHEAD)
        assert captured_at != int(captured_at)

    def test_report_roundtrips_to_json(self):
        report = run_gameday(seed=3, **GAMEDAY_SMALL)
        doc = json.loads(report.to_json())
        assert doc["recovery"]["lost"] == report.lost
        assert doc["passed"] == report.passed

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None)
    def test_no_request_lost_or_duplicated(self, seed):
        """Ground-truth invariants under arbitrary seeds: every request
        terminal (exactly one state), zero duplicates."""
        report = run_gameday(seed=seed, **GAMEDAY_SMALL)
        assert report.lost == 0
        assert report.duplicates == 0
        assert report.recovery["orphan_latency_max"] == 0.0
        by_state = report.requests["by_state"]
        assert set(by_state) <= TERMINAL_STATES
        assert sum(by_state.values()) == report.requests["submitted"]


def assert_leases_never_overlap(intervals):
    """Audit the full ownership history: per request, intervals are
    disjoint and at most one is still open."""
    by_rid = defaultdict(list)
    for rid, _worker, granted, ended, _how in intervals:
        by_rid[rid].append((granted, ended))
    for rid, spans in by_rid.items():
        spans.sort(key=lambda s: (s[0], s[1] is None))
        assert sum(1 for _g, e in spans if e is None) <= 1, rid
        for (g1, e1), (g2, _e2) in zip(spans, spans[1:]):
            assert e1 is not None and g2 >= e1 - 1e-9, \
                f"{rid}: overlapping leases {spans}"


class TestLeaseProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           kill_at=st.floats(min_value=0.5, max_value=10.0))
    @settings(max_examples=5, deadline=None)
    def test_at_most_one_lease_per_request_at_any_time(self, seed,
                                                       kill_at):
        """Every request is owned by <= 1 lease at any virtual time, and
        every submission reaches exactly one terminal state with exactly
        one ``finish`` journal entry — under an arbitrary mid-run crash."""
        meta, suite = build_recovery_service(
            seed=seed, workers=2, ttl=4.0, heartbeat=1.5)
        for i in range(8):
            suite.gateway.submit(user=f"u{i}", priority=i % 2)
        meta.sim.schedule_at(kill_at, lambda: suite.pool.kill(0))
        meta.sim.schedule_at(kill_at + 8.0,
                             lambda: suite.pool.revive(0))
        meta.advance(120.0)
        assert_leases_never_overlap(suite.leases.intervals())
        for rid, request in suite.gateway.requests.items():
            assert request.state in TERMINAL_STATES, rid
            assert len(journal_events(suite, "finish", rid)) == 1, rid
        assert not suite.leases.active
        assert not suite.leases.late_effects


class TestGamedayCLI:
    def test_single_run_smoke(self):
        code, text = run_cli("gameday", "--seed", "7", "--duration",
                             "120")
        assert code == 0
        assert "verdict:  PASS" in text
        assert "worker_kills=2" in text

    def test_compare_restore_writes_ledger(self, tmp_path):
        out_file = tmp_path / "gameday.json"
        code, text = run_cli("gameday", "--seed", "7", "--duration",
                             "120", "--compare-restore", "--out",
                             str(out_file))
        assert code == 0
        assert "restore byte-identical: yes" in text
        doc = json.loads(out_file.read_text())
        assert doc["passed"] and doc["byte_identical"]
        assert doc["reports"]["restored"]["checkpoint"] is not None

    def test_restore_gate_fails_without_a_capture(self):
        """A checkpoint time past the end of the run captures nothing,
        so the restored leg was never restored: the gate must fail."""
        code, text = run_cli("gameday", "--seed", "7", "--duration", "60",
                             "--compare-restore", "--checkpoint-at",
                             "5000")
        assert code == 1
        assert "ERROR: restored: no checkpoint was captured" in text

    def test_failed_gate_exits_nonzero(self):
        # kills=0 can never satisfy the >= 2 worker-kill gate
        code, text = run_cli("gameday", "--seed", "7", "--duration",
                             "40", "--kills", "0", "--users", "2000",
                             "--rate", "3.6", "--domains", "1",
                             "--hosts", "4", "--platforms", "2")
        assert code == 1
        assert "FAIL" in text
