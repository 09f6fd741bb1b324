"""Deterministic cost gate (ROADMAP aim: "Performance that is measured,
end to end and layer by layer").

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
import math
import statistics
import sys
import tracemalloc
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

#: ``sim.events_per_op`` of a small traced ``world_dynamics`` rep
#: (``benchmarks/perf/run.py --workload world_dynamics --scale 0.1``):
#: 0.0005 with hosts on shared tickers, 0.133 when every machine and
#: Host Object kept a private event chain.  CI's perf-bench-smoke job
#: holds its rep to it, so host count stays free for the kernel
WORLD_EVENTS_PER_OP_CEILING = 0.001

#: attribute writes per host reassessment in a world where no descriptor
#: changes: the four dynamic attributes (``host_available_memory_mb``,
#: ``host_load``, ``host_slots_free``, ``host_up``); it was all 17
WRITES_PER_REASSESSMENT_CEILING = 4.0

#: calls to a machine's load stream per reassessment of the same world:
#: the load steps owed since the last one (three; two at the first) come
#: from one batched ``standard_normal``; it was one scalar call per step
#: (2.9)
LOAD_DRAW_CALLS_PER_REASSESSMENT_CEILING = 1.0

#: Python and builtin calls (``sys.setprofile`` "call" and "c_call"
#: events) per host reassessment over 300 s of a 256-host idle world:
#: 61.2 — it was 102.9 while every tick took its load steps one scalar
#: draw at a time and type-checked every value it wrote, and every push
#: ``isinstance``-tested all 17 snapshot values
PY_CALLS_PER_HOST_TICK_CEILING = 75

#: traced bytes one host adds to a world: the tracemalloc marginal
#: between a 256-host and a 1,024-host ``build_testbed`` (seed 7), after
#: a small build has paid the imports — 6,110 with every object a world
#: holds once per host in ``__slots__`` and its callbacks shared, 8,270
#: while each kept an instance ``__dict__`` and every host its own
#: trigger lambdas and push closure
BYTES_PER_HOST_CEILING = 6600

#: compatible-vault lists parsed by one IRS probe (4 instances x 4
#: schedules) on a 256-host world's viable-cache miss: at most one per
#: drawn record — it was every viable host's (256)
VAULT_PARSES_PER_PROBE_CEILING = 16


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
    kernel, with or without the recovery tier: its workers park on their
    wake events (about 4,800 events over these 600 s while its 4
    workers polled a 1 s grid), and with no lease the Supervisor arms
    no timer (120 events while it scanned every 5 s)."""
    events = []
    for service, recovery in ((False, None), (True, None), (True, True)):
        meta = build_testbed(TestbedSpec(seed=7, n_domains=1,
                                         hosts_per_domain=3, platform_mix=2))
        if service:
            meta.start_service(recovery=recovery)
        meta.advance(0.0)  # the workers start, find nothing, and park
        before = meta.sim.events_processed
        meta.advance(600.0)
        events.append(meta.sim.events_processed - before)
    assert meta.service.pool.quiescent
    assert meta.service.supervisor is not None
    assert events[2] == events[1] == events[0], events


class CountingRng:
    """A load stream that counts its ``standard_normal`` calls."""

    def __init__(self, rng):
        self.rng, self.normal_calls = rng, 0

    def standard_normal(self, *args):
        self.normal_calls += 1
        return self.rng.standard_normal(*args)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def idle_world(hosts_per_domain=16):
    """A world nobody places anything on: 4 domains of hosts under a
    background load walk, reassessing every 30 s."""
    return build_testbed(TestbedSpec(
        n_domains=4, hosts_per_domain=hosts_per_domain, platform_mix=3,
        background_load_mean=0.5, seed=7))


def test_attribute_writes_per_reassessment():
    meta = idle_world()
    for host in meta.hosts:
        host.attributes = CountingDatabase(host.attributes.snapshot())
        host.attributes.writes = 0
    reassessments = sum(h.reassessments for h in meta.hosts)
    meta.advance(300.0)
    reassessments = sum(h.reassessments for h in meta.hosts) - reassessments
    writes = sum(h.attributes.writes for h in meta.hosts)
    assert reassessments == 64 * 10
    assert writes / reassessments <= WRITES_PER_REASSESSMENT_CEILING


def test_load_draw_calls_per_reassessment():
    meta = idle_world()
    for host in meta.hosts:
        host.machine._rng = CountingRng(host.machine._rng)
    meta.advance(300.0)
    draws = sum(h.machine._rng.normal_calls for h in meta.hosts)
    assert draws / (64 * 10) <= LOAD_DRAW_CALLS_PER_REASSESSMENT_CEILING


def test_python_calls_per_host_tick():
    meta = idle_world(64)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    reassessments = sum(h.reassessments for h in meta.hosts)
    sys.setprofile(count)
    try:
        meta.advance(300.0)
    finally:
        sys.setprofile(None)
    reassessments = sum(h.reassessments for h in meta.hosts) - reassessments
    assert reassessments == 256 * 10
    assert calls / reassessments <= PY_CALLS_PER_HOST_TICK_CEILING, \
        f"{calls / reassessments:.1f} calls per host tick"


def test_vault_parses_per_probe(monkeypatch):
    from repro.scheduler.base import ObjectClassRequest, Scheduler
    from repro.workload.testbed import implementations_for_all_platforms

    meta = idle_world(64)
    app = meta.create_class("bench-app",
                            implementations_for_all_platforms(),
                            work_units=5.0)
    scheduler = meta.make_scheduler("irs")
    parses = _Calls(monkeypatch, Scheduler, "_vaults_of")
    outcome = scheduler.run([ObjectClassRequest(app, count=4)],
                            reservation_duration=30.0)
    assert outcome.ok and scheduler.viable_cache_misses == 1
    assert VAULT_PARSES_PER_PROBE_CEILING == 4 * scheduler.n_schedules
    assert parses.n <= VAULT_PARSES_PER_PROBE_CEILING, \
        f"{parses.n} vault lists parsed"


def test_idle_world_costs_no_events_per_host():
    readings = []
    for hosts_per_domain in (16, 64):
        meta = idle_world(hosts_per_domain)
        reassessments = sum(h.reassessments for h in meta.hosts)
        meta.advance(300.0)
        assert sum(h.reassessments for h in meta.hosts) - reassessments \
            == 10 * len(meta.hosts)
        readings.append((meta.sim.events_processed, meta.sim.queue_depth))
    assert readings[0] == readings[1]  # 64 hosts and 256: same cost
    events, heap = readings[0]
    assert events <= IDLE_WORLD_EVENTS_CEILING
    assert heap <= IDLE_WORLD_HEAP_CEILING


def test_bytes_per_host():
    def traced_bytes(hosts):
        tracemalloc.start()
        try:
            meta = build_testbed(TestbedSpec(
                n_domains=4, hosts_per_domain=hosts // 4, seed=7))
            assert len(meta.hosts) == hosts
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    traced_bytes(4)  # pays the imports and one-time caches of a build
    small = traced_bytes(256)
    per_host = (traced_bytes(1024) - small) / (1024 - 256)
    assert per_host <= BYTES_PER_HOST_CEILING, f"{per_host:.0f} B per host"


# -- what one placement costs -----------------------------------------------
#
# Per-placement ceilings over a 200-placement IRS run on the benchmark's
# ``place_closed`` world (4 x 16 hosts, 4 instances per request, seed 7).
# The first four guard the protocol's irreducible traffic against creep
# (17.3 messages, 23.4 spans, 33.1 metric ops and 7.2 kernel events per
# placement over a full 1000-placement round; 16.9 / 22.975 / 32.1 / 6.8
# over these 200 — events were 10.9 while every machine kept its own
# load-step chain, metric ops 38.5 while every create was its own
# invoke, spans 23.100 while a variant switch released each replaced
# reservation in its own exchange); CI's perf-bench-smoke job imports
# them to gate the traced rep.  The last three pin constant work that
# used to be redone per placement: re-parsing the vault strings of every
# drawn record (16 ``LOID.parse``, now 0.02), re-deriving reservation
# windows on every table scan (50.4 ``window()`` calls, now 8.5) and
# ``dataclasses.replace`` per signed token (4.2, now none).
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

#: nearest-rank p99 of the same: ~5.8 ms with a variant switch's
#: releases sent as one concurrent exchange, 7.5 ms while each went out
#: in its own, one after another (the variant switches are the tail).
#: CI holds the same untraced rep's ``virt_p99_s`` to it.
PLACEMENT_VIRT_P99_CEILING = 0.0068


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
    wrapper in place (a class or static method stays one).  A
    module-level function is also replaced in every loaded ``repro``
    module that imported it by name, so ``from dataclasses import
    replace`` cannot dodge the count."""

    def __init__(self, monkeypatch, owner, name):
        self.n = 0
        raw = owner.__dict__[name]
        kind = type(raw) if isinstance(raw, (classmethod,
                                             staticmethod)) else None
        inner = raw.__func__ if kind else raw

        def counted(*args, **kwargs):
            self.n += 1
            return inner(*args, **kwargs)

        if kind:
            counted = kind(counted)
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
    p99 = sorted(elapsed)[math.ceil(0.99 * placements) - 1]
    assert p99 <= PLACEMENT_VIRT_P99_CEILING, f"virtual p99 {p99:.6f} s"

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


#: traced bytes one retained span costs: what ``meta.spans.clear()``
#: frees after the 300 placements ``TestPinnedTelemetry`` pins (7,034
#: spans) — 62 with closed traces kept as rows of columns, 419 while
#: every span was a slotted object with its own attribute dict, ID
#: string and floats
BYTES_PER_SPAN_CEILING = 66


def test_bytes_per_span():
    meta, request = place_closed_world()
    scheduler = meta.make_scheduler("irs")
    tracemalloc.start()
    try:
        for _ in range(300):
            scheduler.run(request, reservation_duration=30.0)
            meta.advance(0.5)
        spans = len(meta.spans)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
        meta.spans.clear()
        gc.collect()
        freed = retained - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert spans == 7034
    assert freed / spans <= BYTES_PER_SPAN_CEILING, \
        f"{freed / spans:.0f} B per span"


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
                                        heartbeat_interval=5.0))
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
