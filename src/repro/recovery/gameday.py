"""Game-day campaigns: chaos against the live service tier, scored.

A *game day* (the SRE drill) runs production-shaped traffic while chaos
kills the machinery serving it, and grades the recovery layer on ground
truth the simulation can count exactly:

* **lost requests** — submitted but never reaching a terminal state
  (must be 0: lease expiry + Supervisor requeue recovers every orphan);
* **duplicate placements** — app instances beyond the ones the placed
  requests own (must be 0: the Supervisor's reaper destroys what dead
  workers enacted but never reported);
* **recovered orphans** and their expiry→requeue latency;
* **MTTR** per fault kind from the injector's applied/reverted records;
* **SLO burn** from the windowed ``service_*`` series.

:func:`run_gameday` is the engine behind ``legion-sim gameday``;
:func:`run_gameday_comparison` runs the same seeded game day twice —
straight through vs. torn down and restored from a mid-run checkpoint —
and demands the two report cores be **byte-identical**, which is the
committed ``BENCH_gameday.json`` gate.

The chaos timeline is explicit rather than renewal-sampled: worker
kills land inside the traffic surge (so the victims hold leases), and
the revive happens via the fault's own revert.  Substrate noise
(a host crash, a loss spike) rides along to keep the recovery honest
under transport failures.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Dict, List, Optional

from ..sim.kernel import grid_delay
from .checkpoint import (ServiceCheckpoint, capture_checkpoint,
                         quiescence_blockers, restore_service)
from .config import RecoveryConfig

__all__ = ["GamedayReport", "GamedayComparison", "default_gameday_plan",
           "run_gameday", "run_gameday_comparison"]


def _round(value: float) -> float:
    return round(float(value), 6)


class GamedayReport:
    """One game day's outcome.  ``core_dict()`` is the byte-compared
    part; the ``checkpoint`` section (capture time, journal length at
    capture) is *excluded* from it — the uninterrupted run has none."""

    def __init__(self) -> None:
        self.params: Dict[str, Any] = {}
        self.traffic: Dict[str, Any] = {}
        self.requests: Dict[str, Any] = {}
        self.queue: Dict[str, Any] = {}
        self.pool: Dict[str, Any] = {}
        self.recovery: Dict[str, Any] = {}
        self.chaos: Dict[str, Any] = {}
        self.latency: Dict[str, Any] = {}
        self.slo: Optional[Dict[str, Any]] = None
        self.drain_seconds: float = 0.0
        #: non-core: present only on the checkpoint/restore variant
        self.checkpoint: Optional[Dict[str, Any]] = None

    # -- gates ---------------------------------------------------------------
    @property
    def lost(self) -> int:
        return int(self.recovery.get("lost", 0))

    @property
    def duplicates(self) -> int:
        return int(self.recovery.get("duplicates", 0))

    @property
    def recovered(self) -> int:
        return int(self.recovery.get("recovered", 0))

    @property
    def worker_kills(self) -> int:
        return int(self.recovery.get("worker_kills", 0))

    @property
    def passed(self) -> bool:
        """The game-day verdict: ≥2 mid-run worker kills, no request
        lost, no duplicate placement, and at least one orphan actually
        recovered (otherwise the drill exercised nothing)."""
        return (self.worker_kills >= 2 and self.lost == 0
                and self.duplicates == 0 and self.recovered > 0)

    # -- serialization -------------------------------------------------------
    def core_dict(self) -> Dict[str, Any]:
        return {
            "params": self.params,
            "traffic": self.traffic,
            "requests": self.requests,
            "queue": self.queue,
            "pool": self.pool,
            "recovery": self.recovery,
            "chaos": self.chaos,
            "latency": self.latency,
            "slo": self.slo,
            "drain_seconds": _round(self.drain_seconds),
            "passed": self.passed,
        }

    def core_json(self) -> str:
        return json.dumps(self.core_dict(), sort_keys=True)

    def to_dict(self) -> Dict[str, Any]:
        out = self.core_dict()
        out["checkpoint"] = self.checkpoint
        return out

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    def summary(self) -> str:
        rec = self.recovery
        lines = [
            f"gameday: seed={self.params.get('seed')} "
            f"duration={self.params.get('duration'):g}s "
            f"workers={self.params.get('workers')} "
            f"checkpoint={'at %.0fs' % self.checkpoint['captured_at'] if self.checkpoint else 'off'}",
            f"  chaos:    worker_kills={self.worker_kills} "
            f"other_faults={self.chaos.get('other_faults', 0)} "
            f"worker_mttr_mean={self.chaos.get('worker_mttr_mean', 0.0):.1f}s",
            f"  requests: submitted={self.requests.get('submitted', 0)} "
            f"placed={self.requests.get('by_state', {}).get('placed', 0)} "
            f"lost={self.lost} duplicates={self.duplicates}",
            f"  recovery: recovered={self.recovered} "
            f"cancelled_on_recovery={rec.get('cancelled_on_recovery', 0)} "
            f"duplicates_averted={rec.get('duplicates_averted', 0)} "
            f"orphan_latency_mean={rec.get('orphan_latency_mean', 0.0):.1f}s",
            f"  leases:   grants={rec.get('lease_grants', 0)} "
            f"expirations={rec.get('lease_expirations', 0)} "
            f"journal_entries={rec.get('journal_entries', 0)}",
            f"  latency:  p99={self.latency.get('p99', 0.0):.3f}s",
        ]
        if self.slo:
            lines.append(
                f"  slo:      alerts={self.slo.get('alerts', 0)} "
                f"minutes_lost={self.slo.get('minutes_lost', 0.0)}")
        lines.append(f"  verdict:  {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


class GamedayComparison:
    """Uninterrupted vs. checkpoint/restore, same seed."""

    def __init__(self, straight: GamedayReport,
                 restored: GamedayReport) -> None:
        self.straight = straight
        self.restored = restored

    @property
    def byte_identical(self) -> bool:
        """The restore gate: the torn-down-and-restored run's report
        core matches the uninterrupted run's byte for byte."""
        return self.straight.core_json() == self.restored.core_json()

    @property
    def passed(self) -> bool:
        return (self.straight.passed and self.restored.passed
                and self.byte_identical)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "passed": self.passed,
            "byte_identical": self.byte_identical,
            "reports": {"straight": self.straight.to_dict(),
                        "restored": self.restored.to_dict()},
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    def summary(self) -> str:
        return "\n".join([
            "--- straight run " + "-" * 30,
            self.straight.summary(),
            "--- checkpoint/restore run " + "-" * 20,
            self.restored.summary(),
            f"restore byte-identical: "
            f"{'yes' if self.byte_identical else 'NO'}",
            f"gameday comparison: {'PASS' if self.passed else 'FAIL'}",
        ])


def default_gameday_plan(duration: float, workers: int,
                         kills: int = 2) -> Any:
    """The stock game-day timeline over a run of ``duration`` seconds.

    Worker kills land inside the traffic surge (0.4–0.6 × duration,
    where every worker holds a lease), staggered so the Supervisor
    recovers each orphan while later kills are still pending; each
    crashed worker revives after 0.15 × duration.  A host crash and a
    message-loss spike bracket the surge to keep recovery honest under
    substrate failure.
    """
    from ..chaos.plan import ChaosPlan, FaultEvent
    kills = min(kills, workers)
    events = [
        FaultEvent(at=duration * 0.35, kind="host_crash",
                   target="dom0-ws1", duration=duration * 0.2),
        FaultEvent(at=duration * 0.40, kind="message_loss_spike",
                   duration=duration * 0.2, magnitude=0.3),
    ]
    for k in range(kills):
        events.append(FaultEvent(
            at=duration * (0.45 + 0.04 * k), kind="worker_crash",
            target=f"worker-{k % workers}", duration=duration * 0.15))
    return ChaosPlan(events=events, horizon=duration)


def run_gameday(seed: int = 0,
                users: int = 1_000_000,
                duration: float = 240.0,
                workers: int = 4,
                queue_cap: int = 64,
                backpressure: str = "shed",
                scheduler: str = "irs",
                work: float = 10.0,
                requests_per_user_hour: float = 0.0036,
                surge_multiplier: float = 12.0,
                kills: int = 2,
                lease_ttl: float = 20.0,
                heartbeat_interval: float = 5.0,
                scan_interval: float = 5.0,
                checkpoint_at: Optional[float] = None,
                plan: Any = None,
                n_domains: int = 3,
                hosts_per_domain: int = 6,
                platform_mix: int = 3,
                host_slots: int = 8,
                background_load: float = 0.3,
                sampler_window: float = 30.0,
                drain_time: float = 1800.0,
                drain_step: float = 5.0) -> GamedayReport:
    """Run one seeded game day and return its scored report.

    ``checkpoint_at`` arms the checkpoint daemon: from that virtual
    time on it polls (on the worker grid) for a safe point, then
    captures a checkpoint, JSON-round-trips it, tears the service tier
    down, and restores — all inside one virtual instant, after which
    the run must proceed byte-identically to one that never stopped.
    """
    from ..workload.testbed import TestbedSpec, build_testbed
    from ..service.config import ServiceConfig
    from ..service.report import _latency_stats, default_model
    from ..service.slos import E2E_THRESHOLD, default_service_slos
    from ..service.traffic import TrafficGenerator
    from ..chaos.injector import ChaosInjector

    meta = build_testbed(TestbedSpec(
        seed=seed, n_domains=n_domains,
        hosts_per_domain=hosts_per_domain, platform_mix=platform_mix,
        host_slots=host_slots, background_load_mean=background_load,
        sampler_window=sampler_window))
    meta.place_collection("dom0")
    meta.place_enactor("dom0")

    config = ServiceConfig(workers=workers, queue_cap=queue_cap,
                           backpressure=backpressure,
                           scheduler=scheduler, work=work)
    recovery = RecoveryConfig(lease_ttl=lease_ttl,
                              heartbeat_interval=heartbeat_interval,
                              scan_interval=scan_interval)
    suite = meta.start_service(config, recovery=recovery)
    app = suite.app

    if plan is None:
        plan = default_gameday_plan(duration, workers, kills=kills)
    injector = ChaosInjector(meta, plan).arm()

    model = default_model(users, duration,
                          requests_per_user_hour=requests_per_user_hour,
                          surge_multiplier=surge_multiplier)
    # submit through the metasystem, not a captured gateway: after a
    # checkpoint/restore the suite is a different object, and traffic
    # must flow into whichever tier is live
    generator = TrafficGenerator(
        meta.sim, meta.rngs.stream("service", "traffic"), model,
        lambda user, priority: meta.service.gateway.submit(
            user=user, priority=priority),
        duration)
    generator.start()

    checkpoint_info: Optional[Dict[str, Any]] = None
    if checkpoint_at is not None:
        def try_checkpoint() -> None:
            nonlocal checkpoint_info
            if checkpoint_info is not None:
                return
            if quiescence_blockers(meta):
                # not a safe point yet — re-poll on the worker grid so
                # the probe adds no off-grid events of its own
                meta.sim.schedule(
                    grid_delay(meta.sim.now, config.poll_interval),
                    try_checkpoint)
                return
            checkpoint = capture_checkpoint(meta)
            blob = checkpoint.to_json()
            meta.stop_service()
            restore_service(meta, ServiceCheckpoint.from_json(blob), app)
            checkpoint_info = {
                "captured_at": _round(checkpoint.captured_at),
                "journal_entries": len(checkpoint.journal),
                "bytes": len(blob),
            }
        meta.sim.schedule_at(float(checkpoint_at), try_checkpoint)

    meta.advance(duration)

    # drain until every admitted request is terminal AND every lease is
    # settled (an expired lease still owed a requeue counts as pending)
    drain_start = meta.now
    stop = drain_start + drain_time
    while meta.now < stop:
        live = meta.service
        if (all(r.terminal for r in live.gateway.requests.values())
                and not live.leases.active
                and not live.leases.late_effects):
            break
        meta.advance(drain_step)
    drain_seconds = meta.now - drain_start

    injector.teardown()
    suite = meta.service  # the restored suite, when a checkpoint ran
    suite.stop()

    # -- ground truth ---------------------------------------------------------
    gateway = suite.gateway
    lost = sum(1 for r in gateway.requests.values() if not r.terminal)
    expected_instances = sum(
        len(r.created) for r in gateway.requests.values()
        if r.state == "placed")
    duplicates = len(app.instances) - expected_instances

    by_state: Dict[str, int] = {}
    for request in gateway.requests.values():
        by_state[request.state] = by_state.get(request.state, 0) + 1

    worker_repairs = [r.reverted_at - r.applied_at
                      for r in injector.records
                      if r.kind == "worker_crash"
                      and r.applied_at is not None
                      and r.reverted_at is not None]
    chaos_stats = injector.stats()
    supervisor_stats = suite.supervisor.stats()

    report = GamedayReport()
    report.params = {
        "seed": seed, "users": model.users, "duration": _round(duration),
        "workers": workers, "queue_cap": queue_cap,
        "backpressure": backpressure, "scheduler": scheduler,
        "work": _round(work), "kills": kills,
        "recovery": recovery.to_dict(),
        "plan": plan.counts_by_kind(),
    }
    report.traffic = generator.stats()
    report.requests = {
        "submitted": gateway.submitted,
        "admission_rejections": gateway.admission.rejections,
        "by_state": dict(sorted(by_state.items())),
    }
    report.queue = suite.queue.stats()
    report.pool = {k: (_round(v) if isinstance(v, float) else v)
                   for k, v in suite.pool.stats().items()}
    report.recovery = {
        "lost": lost,
        "duplicates": duplicates,
        "app_instances": len(app.instances),
        "expected_instances": expected_instances,
        "recovered": supervisor_stats["recovered"],
        "cancelled_on_recovery": supervisor_stats["cancelled_on_recovery"],
        "duplicates_averted": supervisor_stats["duplicates_averted"],
        "orphan_latency_mean": _round(
            supervisor_stats["orphan_latency_mean"]),
        "orphan_latency_max": _round(supervisor_stats["orphan_latency_max"]),
        "worker_kills": suite.pool.kills,
        "worker_revivals": suite.pool.revivals,
        "worker_abandons": suite.pool.abandons,
        "lease_grants": suite.leases.grants,
        "lease_expirations": suite.leases.expirations,
        "heartbeats": suite.leases.renewals,
        "journal_entries": len(suite.journal.entries),
    }
    report.chaos = {
        "planned": chaos_stats["planned"],
        "injected": chaos_stats["injected"],
        "reverted": chaos_stats["reverted"],
        "skipped": chaos_stats["skipped"],
        "errors": chaos_stats["errors"],
        "forced_repairs": chaos_stats["forced_repairs"],
        "residual_faults": chaos_stats["residual_faults"],
        "other_faults": sum(v for k, v in chaos_stats["injected"].items()
                            if k != "worker_crash"),
        "worker_mttr_mean": _round(
            sum(worker_repairs) / len(worker_repairs)
            if worker_repairs else 0.0),
        "worker_mttr_max": _round(max(worker_repairs)
                                  if worker_repairs else 0.0),
        "mttr_mean": _round(chaos_stats["mttr_mean"]),
    }
    report.latency = _latency_stats(gateway.requests.values())
    report.drain_seconds = drain_seconds
    report.checkpoint = checkpoint_info

    if meta.sampler is not None:
        from ..obs.slo import evaluate_slos
        meta.sampler.flush()
        specs = default_service_slos(threshold=E2E_THRESHOLD)
        results = evaluate_slos(specs, meta.sampler.windows)
        report.slo = {
            "window_seconds": meta.sampler.window,
            "windows": len(meta.sampler.windows),
            "minutes_lost": _round(sum(r.minutes_lost for r in results)),
            "alerts": sum(len(r.alerts) for r in results),
            "exhausted": sum(1 for r in results if r.exhausted),
            "budgets": {r.spec.name: _round(r.budget_consumed)
                        for r in results},
        }
    return report


def run_gameday_comparison(checkpoint_at: Optional[float] = None,
                           duration: float = 240.0,
                           **kwargs) -> GamedayComparison:
    """The BENCH_gameday gate: the same seeded game day straight
    through, then with a mid-run checkpoint/teardown/restore — the two
    report cores must match byte for byte."""
    if checkpoint_at is None:
        checkpoint_at = duration * 0.75
    kwargs.pop("checkpoint_at", None)
    straight = run_gameday(duration=duration, checkpoint_at=None, **kwargs)
    restored = run_gameday(duration=duration,
                           checkpoint_at=checkpoint_at, **kwargs)
    return GamedayComparison(straight, restored)
