"""run_service / run_service_comparison: seeded live-service campaigns.

Mirrors :func:`repro.chaos.campaign.run_campaign` and
:func:`repro.economy.campaign.run_economy`: build the standard testbed,
start the service tier, drive it **open-loop** with seeded diurnal/
bursty traffic (including a deterministic overload surge), drain, and
aggregate a :class:`ServiceReport` joining

* per-request end-to-end latency (submit→placed) from the gateway's
  request registry (so it reads the same at every ``tracing`` level), and
* the SLO engine's burn-rate verdicts over the windowed ``service_*``
  time series

— serialized with sorted keys and rounded floats so a committed
``BENCH_service.json`` is byte-stable across reruns of the same seed.

:func:`run_service_comparison` replays the identical seeded world twice
— bounded backlog (shedding on) vs unbounded (shedding off) — and
:attr:`ServiceComparison.claims` is the gate of ``legion-sim serve
--compare-shedding``.

Imports of the testbed/metasystem layers happen inside the functions to
keep ``repro.service`` importable without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..audit.claims import Claim, verdict_lines
from ..campaign import (SERVICE_DRAIN_STEP, Comparison, Report, drain,
                        run_variants, slo_block, stable_round,
                        standard_world)
from ..errors import LegionError
from .slos import E2E_THRESHOLD, default_service_slos
from .traffic import TrafficGenerator, TrafficModel

__all__ = ["ServiceReport", "ServiceComparison", "default_model",
           "open_loop_traffic", "latency_stats", "run_service",
           "run_service_comparison"]


@dataclass
class ServiceReport(Report):
    """Aggregated outcome of one seeded live-service campaign."""

    label = "ServiceReport"

    scheduler: str = "irs"
    seed: int = 0
    users: int = 0
    duration: float = 0.0
    workers: int = 0
    queue_cap: int = 0
    backpressure: str = "shed"
    work: float = 0.0
    slo_threshold: float = E2E_THRESHOLD

    traffic: Dict[str, Any] = field(default_factory=dict)
    #: gateway registry: submitted count + requests by terminal state
    requests: Dict[str, Any] = field(default_factory=dict)
    queue: Dict[str, Any] = field(default_factory=dict)
    pool: Dict[str, Any] = field(default_factory=dict)
    #: submit→placed latency distribution over the placed requests
    latency: Dict[str, Any] = field(default_factory=dict)
    #: SLO engine verdicts over the windowed ``service_*`` series
    slo: Optional[Dict[str, Any]] = None
    #: requests still non-terminal when the drain budget ran out
    pending: int = 0
    drain_seconds: float = 0.0

    # -- derived --------------------------------------------------------------
    def _state(self, state: str) -> int:
        return int(self.requests.get("by_state", {}).get(state, 0))

    @property
    def placed(self) -> int:
        return self._state("placed")

    @property
    def failed(self) -> int:
        return self._state("failed")

    @property
    def shed(self) -> int:
        return self._state("shed")

    @property
    def rejected(self) -> int:
        return self._state("rejected")

    @property
    def p99(self) -> float:
        return float(self.latency.get("p99", 0.0))

    @property
    def throughput(self) -> float:
        """Placed requests per virtual second of the open-loop window."""
        if self.duration <= 0:
            return 0.0
        return self.placed / self.duration

    @property
    def p99_within_slo(self) -> bool:
        """Did p99 e2e latency land inside the SLOSpec threshold?"""
        return self.placed > 0 and self.p99 <= self.slo_threshold

    @property
    def latency_budget_exhausted(self) -> bool:
        """Did the run burn the whole e2e latency error budget?"""
        if not self.slo:
            return False
        return bool(self.slo.get("latency_exhausted", False))

    def to_dict(self) -> Dict[str, Any]:
        doc = super().to_dict()
        doc["throughput"] = stable_round(self.throughput)
        doc["p99_within_slo"] = self.p99_within_slo
        return doc

    def problems(self) -> List[str]:
        if self.latency_budget_exhausted:
            return ["e2e latency error budget exhausted"]
        return []

    def summary(self) -> str:
        lat = self.latency
        lines = [
            f"service campaign: scheduler={self.scheduler} "
            f"seed={self.seed} users={self.users} "
            f"duration={self.duration:g}s workers={self.workers} "
            f"queue_cap={self.queue_cap or 'unbounded'} "
            f"mode={self.backpressure}",
            f"  traffic:  arrivals={self.traffic.get('arrivals', 0)} "
            f"accepted={self.traffic.get('accepted', 0)}",
            f"  outcomes: placed={self.placed} failed={self.failed} "
            f"shed={self.shed} rejected={self.rejected} "
            f"pending={self.pending}",
            f"  queue:    peak_depth={self.queue.get('peak_depth', 0)} "
            f"deferred={self.queue.get('deferred', 0)}",
            f"  latency:  p50={lat.get('p50', 0.0):.3f}s "
            f"p95={lat.get('p95', 0.0):.3f}s "
            f"p99={lat.get('p99', 0.0):.3f}s "
            f"max={lat.get('max', 0.0):.3f}s "
            f"[threshold {self.slo_threshold:g}s: "
            f"{'OK' if self.p99_within_slo else 'BREACH'}]",
            f"  pool:     busy_fraction="
            f"{self.pool.get('busy_fraction', 0.0):.3f} "
            f"throughput={self.throughput:.3f}/s",
        ]
        if self.slo:
            lines.append(
                f"  slo:      windows={self.slo.get('windows', 0)} "
                f"alerts={self.slo.get('alerts', 0)} "
                f"minutes_lost={self.slo.get('minutes_lost', 0.0)} "
                f"latency_budget="
                f"{'EXHAUSTED' if self.latency_budget_exhausted else 'ok'}")
        return "\n".join(lines)


class ServiceComparison(Comparison):
    """Shedding on (bounded backlog) vs off (unbounded), same seed."""

    label = "service comparison"
    claims = (
        Claim("shedding keeps the e2e latency budget no-shedding exhausts",
              "slo.latency_exhausted", "lower", "shedding", "no-shedding",
              gate=True),
        Claim("shedding keeps p99 inside the SLO threshold",
              "p99_within_slo", "higher", "shedding", True, strict=False,
              gate=True),
        Claim("something was shed", "queue.shed", "higher", "shedding", 0),
        Claim("no request failed", "requests.by_state.failed", "lower",
              "shedding", 0, strict=False),
    )

    def verdict(self) -> Dict[str, Any]:
        return {"shedding_protects_slo": not self.problems()}

    def summary(self) -> str:
        header = (f"{'variant':<12} {'placed':>7} {'shed':>6} "
                  f"{'pending':>7} {'p99(s)':>8} {'budget':>10}")
        lines = [header, "-" * len(header)]
        for name in sorted(self.reports):
            r = self.reports[name]
            budget = "EXHAUSTED" if r.latency_budget_exhausted else "ok"
            lines.append(
                f"{name:<12} {r.placed:>7} {r.shed:>6} {r.pending:>7} "
                f"{r.p99:>8.3f} {budget:>10}")
        return "\n".join(lines + verdict_lines(self.claims, self.arms()))


def latency_stats(requests: Any) -> Dict[str, Any]:
    """Distribution of submit→placed latency over the gateway's placed
    requests — the interval each ``service.request`` span also covers."""
    samples = sorted(float(latency)
                     for latency in (r.e2e_latency for r in requests)
                     if latency is not None)
    if not samples:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                "p99": 0.0, "max": 0.0}
    arr = np.asarray(samples)
    return {
        "count": len(samples),
        "mean": stable_round(float(arr.mean())),
        "p50": stable_round(float(np.percentile(arr, 50))),
        "p95": stable_round(float(np.percentile(arr, 95))),
        "p99": stable_round(float(np.percentile(arr, 99))),
        "max": stable_round(float(arr[-1])),
    }


def default_model(users: int, duration: float,
                  requests_per_user_hour: float = 0.2,
                  surge_multiplier: float = 8.0) -> TrafficModel:
    """The stock campaign traffic: a gentle diurnal tide plus a
    deterministic overload surge through the middle fifth of the run."""
    return TrafficModel(
        users=users,
        requests_per_user_hour=requests_per_user_hour,
        diurnal_amplitude=0.3,
        burst_multiplier=2.0,
        mean_burst_every=max(duration / 3.0, 1.0),
        mean_burst_length=max(duration / 20.0, 1.0),
        surge_start=duration * 0.4,
        surge_length=duration * 0.2,
        surge_multiplier=surge_multiplier)


def open_loop_traffic(meta: Any, model: TrafficModel,
                      duration: float) -> TrafficGenerator:
    """Start seeded open-loop arrivals into the live service tier.

    Submits through the metasystem, not a captured gateway: after a
    checkpoint/restore the suite is a different object, and traffic
    must flow into whichever tier is live."""
    generator = TrafficGenerator(
        meta.sim, meta.rngs.stream("service", "traffic"), model,
        lambda user, priority: meta.service.gateway.submit(
            user=user, priority=priority),
        duration)
    generator.start()
    return generator


def _run_tier(report: Any, recovery: Any = None,
              plan: Optional[Callable[[Any], Any]] = None,
              probe: Optional[Callable[[Any], Any]] = None,
              world: Callable[..., Any] = standard_world,
              **given: Any) -> Any:
    """The one service campaign behind :func:`run_service` and the game
    day.  Builds the world with ``world`` (unless ``given`` has a
    ``meta``), starts the tier with the ``recovery`` layer if given,
    arms the chaos plan ``plan(suite)``, starts the traffic, calls
    ``probe(meta)``, advances ``duration``, drains until
    :attr:`ServiceSuite.settled`, tears the faults down and stops the
    tier that is live by then.  ``given`` is :func:`run_service`'s
    keywords, its defaults filling the rest.

    Fills ``report``'s traffic, tier, drain and SLO blocks; returns the
    bound ``params``, the stopped ``suite``, the ``injector``, what the
    probe returned (``probed``) and the SLO results by name (``slo``).
    """
    import inspect
    from types import SimpleNamespace
    from .config import ServiceConfig

    bound = inspect.signature(run_service).bind(**given)
    bound.apply_defaults()
    p = SimpleNamespace(**bound.arguments)
    meta = p.meta
    if meta is None:
        meta = world(p.seed, p.n_domains, p.hosts_per_domain,
                     p.platform_mix, p.background_load,
                     host_slots=p.host_slots,
                     sampler_window=p.sampler_window)
    elif meta.service is not None:
        raise LegionError("a service tier was already started on this "
                          "metasystem; run_service needs one without")
    elif p.sampler_window and meta.sampler is None:
        meta.start_sampler(window=p.sampler_window)

    suite = meta.start_service(ServiceConfig(
        workers=p.workers, queue_cap=p.queue_cap,
        backpressure=p.backpressure, scheduler=p.scheduler, work=p.work),
        recovery=recovery)
    injector = None
    if plan is not None:
        from ..chaos.injector import ChaosInjector
        injector = ChaosInjector(meta, plan(suite)).arm()
    model = default_model(p.users, p.duration,
                          requests_per_user_hour=p.requests_per_user_hour,
                          surge_multiplier=p.surge_multiplier)
    generator = open_loop_traffic(meta, model, p.duration)
    probed = probe(meta) if probe is not None else None
    meta.advance(p.duration)

    # the no-shedding overload baseline may not settle before the drain
    # budget runs out: its unfinished requests count as ``pending``
    report.drain_seconds = drain(meta, lambda meta: meta.service.settled,
                                 p.drain_time, SERVICE_DRAIN_STEP)
    if injector is not None:
        injector.teardown()
    suite = meta.service  # a restored tier, if the probe restored one
    suite.stop()

    gateway = suite.gateway
    report.traffic = generator.stats()
    report.requests = dict(gateway.snapshot(), by_state=gateway.by_state())
    report.queue = suite.queue.stats()
    report.pool = {k: (stable_round(v) if isinstance(v, float) else v)
                   for k, v in suite.pool.stats().items()}
    report.latency = latency_stats(gateway.requests.values())
    results: Dict[str, Any] = {}
    if meta.sampler is not None:
        report.slo, results = slo_block(
            meta, default_service_slos(threshold=p.slo_threshold))
    return SimpleNamespace(params=p, suite=suite, injector=injector,
                           probed=probed, slo=results)


def run_service(seed: int = 0,
                users: int = 1_000_000,
                duration: float = 240.0,
                workers: int = 4,
                queue_cap: int = 64,
                backpressure: str = "shed",
                scheduler: str = "irs",
                work: float = 10.0,
                requests_per_user_hour: float = 0.0036,
                surge_multiplier: float = 12.0,
                slo_threshold: float = E2E_THRESHOLD,
                n_domains: int = 3,
                hosts_per_domain: int = 6,
                platform_mix: int = 3,
                host_slots: int = 8,
                background_load: float = 0.3,
                sampler_window: float = 30.0,
                drain_time: float = 1800.0,
                meta: Any = None) -> ServiceReport:
    """Run one seeded open-loop service campaign and return its report.

    ``queue_cap=0`` disables the bounded backlog (shedding off) — the
    overload baseline.  Pass a prebuilt ``meta`` to reuse a custom
    testbed; one that has had a service started, even a stopped one, is
    refused with a :class:`~repro.errors.LegionError`.  These keywords
    and their defaults are the game day's too."""
    given = dict(locals())
    report = ServiceReport(
        scheduler=scheduler, seed=seed, users=users, duration=duration,
        workers=workers, queue_cap=queue_cap, backpressure=backpressure,
        work=work, slo_threshold=slo_threshold)
    run = _run_tier(report, **given)
    report.pending = run.suite.pending
    if report.slo is not None:
        latency_result = run.slo.get("service-e2e-latency")
        report.slo["latency_exhausted"] = (latency_result is not None
                                           and latency_result.exhausted)
    return report


def run_service_comparison(queue_cap: int = 64, **kwargs
                           ) -> ServiceComparison:
    """Replay the identical seeded overload twice — bounded backlog vs
    unbounded — for the shedding-protects-SLO verdict; the report dict
    feeds ``BENCH_service.json``."""
    if queue_cap <= 0:
        raise ValueError("comparison needs a bounded queue_cap for the "
                         "shedding variant")
    kwargs.pop("meta", None)  # each variant builds its own seeded world
    return ServiceComparison(run_variants(
        run_service, {"shedding": dict(queue_cap=queue_cap),
                      "no-shedding": dict(queue_cap=0)}, **kwargs))
