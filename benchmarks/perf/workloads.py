"""The four benchmark workloads, driven through the library's public API.

A *round* is a fixed amount of work whose size depends only on the
workload's constants and ``scale`` — never on the seed or on how fast
the host is.  ``run.py`` runs rounds until its time budget is spent;
host-time metrics use every round, virtual-time metrics and the
``sim_digest`` use the first :data:`REF_ROUNDS` only, so they repeat
exactly for a given seed however many rounds fit.

Round ``k`` of a run with ``--seed s`` uses world seed ``s * 1009 + k``.
``place_closed``, ``serve_surge`` and ``gameday_recovery`` build a fresh
world per round (retained spans and journals are freed between rounds,
so peak RSS follows the round size, not the run length);
``world_dynamics`` builds its 4 096 hosts once and each round advances
the same world further.

An *op* is fixed by the inputs: a placement request, a simulated
host-second, a submitted service request.  ``BENCHMARK.json`` says why
each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.recovery import gameday
from repro.scheduler.base import ObjectClassRequest
from repro.service import report as service_report
from repro.workload import testbed

__all__ = ["REF_ROUNDS", "WORKLOADS", "RoundResult", "Workload",
           "round_seed", "digest"]

#: rounds that define the virtual metrics and the digest
REF_ROUNDS = 8


def round_seed(seed: int, k: int) -> int:
    return seed * 1009 + k


def digest(outcomes: List[Dict[str, Any]]) -> str:
    blob = json.dumps(outcomes, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class RoundResult:
    ops: int
    #: ops that can succeed or fail: all of them, except on world_dynamics,
    #: where a simulated host-second cannot fail and only the probes count
    judged: int
    #: judged ops where the user got what they asked for (placed)
    ok: int
    #: ops whose outcome breaks the workload's contract (see README)
    failed: int
    wall_s: float
    #: ops per host second of each timed slice of the round
    slice_rates: List[float]
    #: per-op virtual latencies, or None when the program's own report
    #: supplies p50/p99/count instead
    latencies: Optional[List[float]] = None
    p50: float = 0.0
    p99: float = 0.0
    latency_count: int = 0
    #: the canonical deterministic outcome hashed into ``sim_digest``
    outcome: Dict[str, Any] = field(default_factory=dict)
    #: output-check failures, empty when the round is correct
    problems: List[str] = field(default_factory=list)
    #: counts only the program's report knows (shed, retries, ...)
    extras: Dict[str, float] = field(default_factory=dict)
    #: report numbers that are levels, not counts to add up over rounds
    gauges: Dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    #: rebuild the world before every round
    fresh_world = True

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def scaled(self, n: float, floor: int = 1) -> int:
        return max(floor, int(round(n * self.scale)))

    def setup(self, seed: int) -> Any:
        """Build the world and start the layers (untimed; ``setup_s``)."""
        raise NotImplementedError

    def round(self, state: Any, seed: int, tracer: Any = None) -> RoundResult:
        """One timed, fixed-size round."""
        raise NotImplementedError


def _place_latency_outcome(latencies: List[float]) -> Dict[str, Any]:
    return {"n": len(latencies), "sum": sum(latencies),
            "max": max(latencies),
            "sha256": hashlib.sha256(
                repr(latencies).encode("utf-8")).hexdigest()}


class PlaceClosed(Workload):
    name = "place_closed"
    count = 4
    slices = 4

    def setup(self, seed: int) -> Any:
        meta = testbed.build_testbed(testbed.TestbedSpec(
            seed=seed, n_domains=4, hosts_per_domain=16, host_slots=8,
            background_load_mean=0.3))
        app = meta.create_class(
            "bench-app", testbed.implementations_for_all_platforms(),
            work_units=5.0)
        return meta, app, meta.make_scheduler("irs")

    def round(self, state: Any, seed: int, tracer: Any = None) -> RoundResult:
        meta, app, scheduler = state
        per_slice = self.scaled(250, floor=5)
        request = [ObjectClassRequest(app, count=self.count)]
        v0 = meta.now
        e0 = meta.sim.events_processed
        m0 = meta.transport.messages_sent
        ok = instances = 0
        latencies: List[float] = []
        rates: List[float] = []
        problems: List[str] = []
        op = 0
        t0 = t_slice = perf_counter()
        for _slice in range(self.slices):
            for _i in range(per_slice):
                if tracer is not None:
                    tracer.op = op
                # short reservations and a finite job keep slots turning
                # over; the 3600 s default would fill all 512 slots and
                # turn the loop into a retry storm
                outcome = scheduler.run(request, reservation_duration=30.0)
                latencies.append(outcome.elapsed)
                if outcome.ok:
                    ok += 1
                    instances += len(outcome.created)
                    if len(outcome.created) != self.count:
                        problems.append(
                            f"op {op}: ok but created "
                            f"{len(outcome.created)} != {self.count}")
                meta.advance(0.5)
                op += 1
            now = perf_counter()
            rates.append(per_slice / (now - t_slice))
            t_slice = now
        wall = perf_counter() - t0
        if ok < 0.99 * op:
            problems.append(f"success {ok}/{op} below 0.99")
        return RoundResult(
            ops=op, judged=op, ok=ok, failed=op - ok, wall_s=wall,
            slice_rates=rates, latencies=latencies, problems=problems,
            outcome={"ops": op, "ok": ok, "instances": instances,
                     "virtual_s": meta.now - v0,
                     "events": meta.sim.events_processed - e0,
                     "messages": meta.transport.messages_sent - m0,
                     "latency": _place_latency_outcome(latencies)})


class WorldDynamics(Workload):
    name = "world_dynamics"
    fresh_world = False
    reassess_interval = 30.0
    slice_virtual_s = 60.0
    slices = 5

    def setup(self, seed: int) -> Any:
        hosts = 4 * self.scaled(1024, floor=4)
        meta = testbed.build_testbed(testbed.TestbedSpec(
            seed=seed, n_domains=4, hosts_per_domain=hosts // 4,
            background_load_mean=0.5,
            reassess_interval=self.reassess_interval))
        app = meta.create_class(
            "bench-app", testbed.implementations_for_all_platforms(),
            work_units=5.0)
        return meta, app, meta.make_scheduler("irs")

    def round(self, state: Any, seed: int, tracer: Any = None) -> RoundResult:
        meta, app, scheduler = state
        hosts = len(meta.hosts)
        request = [ObjectClassRequest(app, count=4)]
        v0 = meta.now
        e0 = meta.sim.events_processed
        m0 = meta.transport.messages_sent
        placed = 0
        latencies: List[float] = []
        rates: List[float] = []
        slice_ops = int(hosts * self.slice_virtual_s)
        t0 = t_slice = perf_counter()
        for index in range(self.slices):
            if tracer is not None:
                tracer.op = index
            meta.advance(self.slice_virtual_s)
            probe = scheduler.run(request, reservation_duration=30.0)
            latencies.append(probe.elapsed)
            placed += 1 if probe.ok else 0
            now = perf_counter()
            rates.append(slice_ops / (now - t_slice))
            t_slice = now
        wall = perf_counter() - t0
        problems: List[str] = []
        if placed != self.slices:
            problems.append(f"{self.slices - placed} probe(s) not placed")
        horizon = meta.now - 2.0 * self.reassess_interval
        stale = sum(1 for member in meta.collection.members()
                    if meta.collection.record_of(member).updated_at < horizon)
        if stale:
            problems.append(f"{stale} Collection record(s) not refreshed "
                            f"within two reassessment intervals")
        ops = slice_ops * self.slices
        return RoundResult(
            ops=ops, judged=self.slices, ok=placed,
            failed=self.slices - placed, wall_s=wall, slice_rates=rates,
            latencies=latencies, problems=problems,
            outcome={"ops": ops, "probes": self.slices, "placed": placed,
                     "virtual_s": meta.now - v0,
                     "events": meta.sim.events_processed - e0,
                     "messages": meta.transport.messages_sent - m0,
                     "latency": _place_latency_outcome(latencies)})


def _service_round(report: Any, outcome: Dict[str, Any], wall: float,
                   failed: int, problems: List[str],
                   extras: Dict[str, float]) -> RoundResult:
    submitted = report.requests["submitted"]
    by_state = report.requests["by_state"]
    if submitted != sum(by_state.values()):
        problems.append(f"submitted {submitted} != sum of states "
                        f"{sum(by_state.values())}")
    extras.update({
        "service.shed": by_state.get("shed", 0),
        "service.retries": report.pool["retries"],
    })
    return RoundResult(
        ops=submitted, judged=submitted, ok=by_state.get("placed", 0),
        failed=failed, wall_s=wall, slice_rates=[submitted / wall],
        p50=report.latency["p50"], p99=report.latency["p99"],
        latency_count=report.latency["count"], outcome=outcome,
        problems=problems, extras=extras,
        gauges={"service.worker_busy_frac": report.pool["busy_fraction"]})


class ServeSurge(Workload):
    name = "serve_surge"

    def setup(self, seed: int) -> Any:
        # the default world run_service would build for itself
        meta = testbed.build_testbed(testbed.TestbedSpec(
            seed=seed, n_domains=3, hosts_per_domain=6, platform_mix=3,
            host_slots=8, background_load_mean=0.3, sampler_window=30.0))
        meta.place_collection("dom0")
        meta.place_enactor("dom0")
        return meta

    def round(self, state: Any, seed: int, tracer: Any = None) -> RoundResult:
        meta = state
        duration = float(self.scaled(1200, floor=60))
        t0 = perf_counter()
        report = service_report.run_service(seed=seed, duration=duration,
                                            meta=meta)
        wall = perf_counter() - t0
        problems = []
        if report.pending:
            problems.append(f"{report.pending} request(s) still pending "
                            f"after the drain")
        outcome = report.to_dict()
        outcome["events"] = meta.sim.events_processed
        outcome["messages"] = meta.transport.messages_sent
        return _service_round(report, outcome, wall, report.pending,
                              problems, {})


class GamedayRecovery(Workload):
    name = "gameday_recovery"

    def setup(self, seed: int) -> Any:
        # run_gameday builds its own 18-host world inside the timed region
        return None

    def round(self, state: Any, seed: int, tracer: Any = None) -> RoundResult:
        duration = float(self.scaled(1200, floor=120))
        t0 = perf_counter()
        report = gameday.run_gameday(seed=seed, duration=duration, kills=2)
        wall = perf_counter() - t0
        problems = []
        if report.lost:
            problems.append(f"{report.lost} request(s) lost")
        if report.duplicates:
            problems.append(f"{report.duplicates} duplicate placement(s)")
        extras = {
            "recovery.orphans_recovered": report.recovered,
            "chaos.faults_injected": sum(report.chaos["injected"].values()),
            "gameday.passed": 1.0 if report.passed else 0.0,
        }
        return _service_round(report, report.core_dict(), wall,
                              report.lost + report.duplicates, problems,
                              extras)


WORKLOADS = {cls.name: cls for cls in (PlaceClosed, WorldDynamics,
                                       ServeSurge, GamedayRecovery)}
