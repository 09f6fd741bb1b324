"""Deterministic cost gate (ROADMAP item 1a).

Counts of model-free work — work the simulator does that no modelled
quantity depends on — pinned under stated ceilings.  All repeat exactly
for a given seed, so the gate cannot flake; it exists so that kernel
traffic for discarded arrival candidates, per-tick rewrites of
attributes that did not change, or constant work redone on every
placement cannot creep back unnoticed.
"""

import collections
import dataclasses
import gc
import io
import statistics
import sys
import types

import pytest

from repro.campaign import standard_world
from repro.objects import AttributeDatabase
from repro.recovery.leases import Lease
from repro.service import ServiceConfig, run_service
from repro.workload.testbed import TestbedSpec, build_testbed

#: kernel events per submitted request over a 120 s ``run_service``
#: campaign: 4.12 — two per arrival (the traffic generator's timed
#: resume), about one per placed job's machine step, two per claimed
#: request's dispatch-overhead timeout (0.97), and one per wake of a
#: parked worker (0.14).  It was 4.67 while idle workers polled a 1 s
#: grid, 5.2 with thinning inline but a load-step chain per machine,
#: and 16.8 when every thinned arrival candidate was a kernel timeout
EVENTS_PER_REQUEST_CEILING = 5.0

#: median virtual seconds from submit to placement over a 1200 s
#: ``run_service`` (seed 7): 0.248 with idle workers woken by the
#: enqueue, 0.496 while they polled a 1 s grid.  CI's perf-bench-smoke
#: job holds an untraced ``serve_surge`` rep's ``virt_p50_s`` to it.
SERVICE_VIRT_P50_CEILING = 0.35

#: kernel events / heap entries of a world nobody places anything on,
#: over 300 virtual s — whatever its size (40 / 2: one 10 s load grid
#: and one 30 s reassessment grid; it was 40 events and 2 heap entries
#: *per host*)
IDLE_WORLD_EVENTS_CEILING = 64
IDLE_WORLD_HEAP_CEILING = 8

#: attribute writes per host reassessment in a world where no descriptor
#: changes: the four dynamic attributes (``host_available_memory_mb``,
#: ``host_load``, ``host_slots_free``, ``host_up``); it was all 17
WRITES_PER_REASSESSMENT_CEILING = 4.0


class CountingDatabase(AttributeDatabase):
    """Counts every attribute written, through either write path."""

    writes = 0

    def set(self, name, value, now=0.0):
        super().set(name, value, now=now)
        self.writes += 1

    def update(self, values, now=0.0):
        super().update(values, now=now)
        self.writes += len(values)


def test_kernel_events_per_request():
    meta = standard_world(7, 3, 6, 3, 0.3, host_slots=8,
                          sampler_window=30.0)
    before = meta.sim.events_processed
    report = run_service(seed=7, duration=120.0, meta=meta)
    events = meta.sim.events_processed - before
    submitted = report.requests["submitted"]
    assert submitted > 400
    assert events / submitted <= EVENTS_PER_REQUEST_CEILING


def test_service_virtual_p50():
    report = run_service(seed=7, duration=1200.0)
    assert report.latency["p50"] <= SERVICE_VIRT_P50_CEILING, \
        f"virtual p50 {report.latency['p50']:.6f} s"


def test_idle_pool_costs_no_worker_events():
    """A started service tier with no traffic adds nothing to the
    kernel: its workers park on their wake events (about 4,800 events
    over these 600 s while its 4 workers polled a 1 s grid)."""
    events = []
    for service in (False, True):
        meta = build_testbed(TestbedSpec(seed=7, n_domains=1,
                                         hosts_per_domain=3, platform_mix=2))
        if service:
            meta.start_service()
        meta.advance(0.0)  # the workers start, find nothing, and park
        before = meta.sim.events_processed
        meta.advance(600.0)
        events.append(meta.sim.events_processed - before)
    assert meta.service.pool.quiescent
    assert events[1] == events[0], events


def test_attribute_writes_per_reassessment():
    meta = build_testbed(TestbedSpec(
        n_domains=4, hosts_per_domain=16, platform_mix=3,
        background_load_mean=0.5, seed=7))
    for host in meta.hosts:
        host.attributes = CountingDatabase(host.attributes.snapshot())
        host.attributes.writes = 0
    reassessments = sum(h.reassessments for h in meta.hosts)
    meta.advance(300.0)
    reassessments = sum(h.reassessments for h in meta.hosts) - reassessments
    writes = sum(h.attributes.writes for h in meta.hosts)
    assert reassessments == 64 * 10
    assert writes / reassessments <= WRITES_PER_REASSESSMENT_CEILING


def test_idle_world_costs_no_events_per_host():
    readings = []
    for hosts_per_domain in (16, 64):
        meta = build_testbed(TestbedSpec(
            n_domains=4, hosts_per_domain=hosts_per_domain, platform_mix=3,
            background_load_mean=0.5, seed=7))
        reassessments = sum(h.reassessments for h in meta.hosts)
        meta.advance(300.0)
        assert sum(h.reassessments for h in meta.hosts) - reassessments \
            == 10 * len(meta.hosts)
        readings.append((meta.sim.events_processed, meta.sim.queue_depth))
    assert readings[0] == readings[1]  # 64 hosts and 256: same cost
    events, heap = readings[0]
    assert events <= IDLE_WORLD_EVENTS_CEILING
    assert heap <= IDLE_WORLD_HEAP_CEILING


# -- what one placement costs (ROADMAP items 1 and 9) -----------------------
#
# Per-placement ceilings over a 200-placement IRS run on the benchmark's
# ``place_closed`` world (4 x 16 hosts, 4 instances per request, seed 7).
# The first four guard the protocol's irreducible traffic against creep
# (17.3 messages, 23.6 spans, 33.6 metric ops and 7.2 kernel events per
# placement over a full 1000-placement round; 16.9 / 23.1 / 32.5 / 6.8
# over these 200 — events were 10.9 while every machine kept its own
# load-step chain, metric ops 38.5 while every create was its own
# invoke); CI's perf-bench-smoke job imports them to gate the
# traced rep.  The last three pin constant work that used to be redone
# per placement: re-parsing the vault strings of every drawn record (16
# ``LOID.parse``, now 0.02), re-deriving reservation windows on every
# table scan (50.4 ``window()`` calls, now 8.5) and ``dataclasses.replace``
# per signed token (4.2, now none).
MESSAGES_PER_PLACEMENT_CEILING = 18.0
SPANS_PER_PLACEMENT_CEILING = 24.0
METRIC_OPS_PER_PLACEMENT_CEILING = 40.0
EVENTS_PER_PLACEMENT_CEILING = 8.0
LOID_PARSES_PER_PLACEMENT_CEILING = 0.5
WINDOW_CALLS_PER_PLACEMENT_CEILING = 16.0
REPLACE_CALLS_PER_PLACEMENT_CEILING = 0.0

#: median virtual seconds from request to enacted placement over the
#: same round: ~2.7 ms with the creates sent as one concurrent batch,
#: 5.6 ms while they went out one after another.  CI's perf-bench-smoke
#: job holds an untraced ``place_closed`` rep's ``virt_p50_s`` to it.
PLACEMENT_VIRT_P50_CEILING = 0.0035


def place_closed_world(sequential=False):
    """The benchmark's ``place_closed`` world and its 4-instance request;
    ``sequential`` switches the Enactor to one-call-after-another
    co-allocation."""
    from repro.scheduler.base import ObjectClassRequest
    from repro.workload.testbed import implementations_for_all_platforms

    meta = build_testbed(TestbedSpec(
        seed=7, n_domains=4, hosts_per_domain=16, host_slots=8,
        background_load_mean=0.3))
    meta.enactor.coallocator.sequential = sequential
    app = meta.create_class("bench-app",
                            implementations_for_all_platforms(),
                            work_units=5.0)
    return meta, [ObjectClassRequest(app, count=4)]


class _Calls:
    """Counts calls of ``owner.name`` while ``monkeypatch`` holds the
    wrapper in place (a classmethod stays one).  A module-level function
    is also replaced in every loaded ``repro`` module that imported it by
    name, so ``from dataclasses import replace`` cannot dodge the count."""

    def __init__(self, monkeypatch, owner, name):
        self.n = 0
        raw = owner.__dict__[name]
        inner = raw.__func__ if isinstance(raw, classmethod) else raw

        def counted(*args, **kwargs):
            self.n += 1
            return inner(*args, **kwargs)

        if isinstance(raw, classmethod):
            counted = classmethod(counted)
        holders = [owner]
        if isinstance(owner, types.ModuleType):
            holders += [m for n, m in list(sys.modules.items())
                        if n.startswith("repro.")
                        and m.__dict__.get(name) is raw]
        for holder in holders:
            monkeypatch.setattr(holder, name, counted)


def test_placement_path_costs(monkeypatch):
    from repro.hosts.reservations import ReservationToken
    from repro.naming.loid import LOID
    from repro.obs.registry import MetricsRegistry

    meta, request = place_closed_world()
    scheduler = meta.make_scheduler("irs")

    parses = _Calls(monkeypatch, LOID, "parse")
    windows = _Calls(monkeypatch, ReservationToken, "window")
    replaces = _Calls(monkeypatch, dataclasses, "replace")
    metric_ops = [_Calls(monkeypatch, MetricsRegistry, name)
                  for name in ("count", "observe", "set_gauge")]
    events = meta.sim.events_processed
    messages = meta.transport.messages_sent
    spans = len(meta.spans)

    placements = 200
    elapsed = []
    for _ in range(placements):
        outcome = scheduler.run(request, reservation_duration=30.0)
        assert outcome.ok
        elapsed.append(outcome.elapsed)
        meta.advance(0.5)
    p50 = statistics.median(elapsed)
    assert p50 <= PLACEMENT_VIRT_P50_CEILING, f"virtual p50 {p50:.6f} s"

    measured = {
        "messages": meta.transport.messages_sent - messages,
        "spans": len(meta.spans) - spans,
        "metric ops": sum(c.n for c in metric_ops),
        "kernel events": meta.sim.events_processed - events,
        "LOID.parse": parses.n,
        "ReservationToken.window": windows.n,
        "dataclasses.replace": replaces.n,
    }
    ceilings = {
        "messages": MESSAGES_PER_PLACEMENT_CEILING,
        "spans": SPANS_PER_PLACEMENT_CEILING,
        "metric ops": METRIC_OPS_PER_PLACEMENT_CEILING,
        "kernel events": EVENTS_PER_PLACEMENT_CEILING,
        "LOID.parse": LOID_PARSES_PER_PLACEMENT_CEILING,
        "ReservationToken.window": WINDOW_CALLS_PER_PLACEMENT_CEILING,
        "dataclasses.replace": REPLACE_CALLS_PER_PLACEMENT_CEILING,
    }
    over = {name: (n / placements, ceilings[name])
            for name, n in measured.items()
            if n / placements > ceilings[name]}
    assert not over, f"per placement (measured, ceiling): {over}"


@pytest.mark.parametrize("sequential", [False, True],
                         ids=["batch", "sequential"])
def test_enact_costs_the_slowest_create(sequential):
    """Steps 7-11 cost the slowest create round trip, not the sum of
    them — the sum only under the sequential co-allocation ablation."""
    meta, request = place_closed_world(sequential)
    outcome = meta.make_scheduler("irs").run(request,
                                             reservation_duration=30.0)
    assert outcome.ok
    enact, = meta.spans.find("enactor.enact")
    creates = [s.duration for s in meta.spans.spans
               if s.parent_id == enact.span_id
               and s.name == "rpc:create_instance"]
    assert len(creates) == 4
    expected = sum(creates) if sequential else max(creates)
    assert enact.duration == pytest.approx(expected, rel=1e-9)
    assert enact.duration > min(creates)  # the four really differ


# -- what a failed call leaves behind ---------------------------------------
#
# A denied reservation is an ordinary result, so it must be freed the
# moment nobody holds it.  A stored error that kept its traceback pinned
# the failed call's whole stack (``Scheduler.run`` down to
# ``_grant_reservation``, every local included) in a reference cycle that
# only a full GC pass frees, and a heartbeat that rescheduled itself was
# a closure naming itself.  Each scenario runs under ``DEBUG_SAVEALL``, so
# whatever the collector frees stays around to be named.

#: cycles the standard library makes on its own, by (module, qualified
#: name prefix): numpy.ma's one-off import parses builtin signatures
#: through these nested closures and the class defined among them
STDLIB_CYCLES = (("ast", "literal_eval.<locals>."),
                 ("inspect", "_signature_fromstr.<locals>."))


def cyclic_garbage(scenario):
    """Run ``scenario()``; return what it returned (the world, if it
    hands one back, stays held) and every object the GC freed meanwhile."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        world = scenario()
        gc.collect()
        return world, list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def forbidden(garbage, world_held):
    """What in ``garbage`` no scenario may leave, counted by name: frames,
    tracebacks, exceptions and leases always; with the world still held,
    also anything ``repro`` made and any function or class outside
    :data:`STDLIB_CYCLES`."""
    found = collections.Counter()
    for obj in garbage:
        if isinstance(obj, (types.FrameType, types.TracebackType,
                            BaseException, Lease)):
            found[type(obj).__name__] += 1
        elif not world_held:
            continue
        elif isinstance(obj, (types.FunctionType, type)):
            module, name = obj.__module__ or "", obj.__qualname__
            if not any(module == m and name.startswith(prefix)
                       for m, prefix in STDLIB_CYCLES):
                found[f"{module}.{name}"] += 1
        elif type(obj).__module__.startswith("repro"):
            found[type(obj).__qualname__] += 1
    return found


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("sequential", [False, True],
                             ids=["batch", "sequential"])
    def test_placements_with_denials(self, sequential):
        def placements():
            meta, request = place_closed_world(sequential)
            scheduler = meta.make_scheduler("irs")
            for _ in range(200):
                scheduler.run(request, reservation_duration=30.0)
                meta.advance(0.5)
            return meta

        meta, garbage = cyclic_garbage(placements)
        assert sum(h.reservations.denials for h in meta.hosts) > 0
        assert not forbidden(garbage, world_held=True)

    def test_service(self):
        def service():
            meta = standard_world(7, 3, 6, 3, 0.3, host_slots=8,
                                  sampler_window=30.0)
            run_service(seed=7, duration=120.0, meta=meta)
            return meta

        meta, garbage = cyclic_garbage(service)
        assert meta.service.gateway.requests
        assert not forbidden(garbage, world_held=True)

    def test_recovery_under_faults(self):
        """Leases and heartbeats through a worker kill and revive and a
        loss spike."""
        from repro.chaos.injector import ChaosInjector
        from repro.chaos.plan import ChaosPlan, FaultEvent
        from repro.recovery import RecoveryConfig
        from repro.service.report import default_model, open_loop_traffic

        def recovery():
            meta = standard_world(7, 2, 4, 3, 0.3, host_slots=4)
            suite = meta.start_service(
                ServiceConfig(workers=2, queue_cap=16),
                recovery=RecoveryConfig(lease_ttl=20.0,
                                        heartbeat_interval=5.0,
                                        scan_interval=5.0))
            injector = ChaosInjector(meta, ChaosPlan(events=[
                FaultEvent(at=40.0, kind="message_loss_spike",
                           duration=30.0, magnitude=0.3),
                FaultEvent(at=50.0, kind="worker_crash", target="worker-0",
                           duration=20.0)])).arm()
            open_loop_traffic(meta, default_model(1_000_000, 120.0), 120.0)
            meta.advance(300.0)
            injector.teardown()
            suite.stop()
            return meta

        meta, garbage = cyclic_garbage(recovery)
        suite = meta.service
        assert (suite.pool.kills, suite.pool.revivals) == (1, 1)
        assert suite.supervisor.recovered == 1
        assert suite.leases.renewals > 0
        assert not forbidden(garbage, world_held=True)

    def test_kill_while_idle(self):
        """An idle worker killed and revived, and a tier stopped, with
        every worker parked on its wake event."""
        def kill_while_idle():
            meta = standard_world(7, 2, 4, 3, 0.3, host_slots=4)
            suite = meta.start_service(ServiceConfig(workers=2),
                                       recovery=True)
            meta.advance(1.0)
            suite.pool.kill(0)
            suite.gateway.submit(user="u")
            meta.advance(30.0)
            suite.pool.revive(0)
            meta.advance(30.0)
            suite.stop()
            meta.advance(1.0)
            return meta

        meta, garbage = cyclic_garbage(kill_while_idle)
        pool = meta.service.pool
        assert (pool.kills, pool.revivals, pool.placed) == (1, 1, 1)
        assert all(p.resolved for p in pool._processes)
        assert not forbidden(garbage, world_held=True)

    def test_lossy_chaos_campaign(self):
        """The chaos ledger's campaign, shrunk from 6 waves to 3; it
        builds and drops its own worlds."""
        from repro.tools import main

        _, garbage = cyclic_garbage(lambda: main(
            ["chaos", "--profile", "lossy", "--chaos-seed", "9",
             "--waves", "3", "--count", "3", "--compare-retry"],
            out=io.StringIO()))
        assert not forbidden(garbage, world_held=False)

    def test_an_error_caught_around_invoke(self):
        """The application-layer pattern (``except LegionError: continue``
        around a reservation): once the handler drops the error, none of
        the failed call's frames survive it."""
        from repro.errors import LegionError

        def caught():
            meta = build_testbed(TestbedSpec(seed=7, n_domains=1,
                                             hosts_per_domain=2))
            for host in meta.hosts:
                try:
                    meta.transport.invoke(None, host.location, _deny,
                                          label="make_reservation")
                except LegionError:
                    continue
            return meta

        _, garbage = cyclic_garbage(caught)
        assert not forbidden(garbage, world_held=True)

    def test_a_lost_error_reply(self):
        """A captured error raised while handling another keeps neither
        traceback: the lost error-reply's ``MessageLostError`` carries the
        callee's error as its context."""
        from repro.errors import MessageLostError, ReservationDeniedError
        from repro.net.transport import Call

        class Draws:
            """Loss draws in a fixed order: the request lands, the
            error-reply is lost."""

            def __init__(self):
                self.values = [0.9, 0.1]

            def random(self):
                return self.values.pop(0)

        def lost_reply():
            meta = build_testbed(TestbedSpec(seed=7, n_domains=1,
                                             hosts_per_domain=2))
            meta.transport.loss_probability = 0.5
            meta.transport._loss_rng = Draws()
            outcome, = meta.transport.invoke_each(
                [Call(None, meta.hosts[0].location, _deny)])
            assert isinstance(outcome.error, MessageLostError)
            assert isinstance(outcome.error.__context__,
                              ReservationDeniedError)
            return meta

        _, garbage = cyclic_garbage(lost_reply)
        assert not forbidden(garbage, world_held=True)


def _deny():
    from repro.errors import ReservationDeniedError
    raise ReservationDeniedError("no slot")
