"""Game-day campaigns: chaos against the live service tier, scored.

A *game day* (the SRE drill) runs production-shaped traffic while chaos
kills the machinery serving it, and grades the recovery layer on ground
truth the simulation can count exactly:

* **lost requests** — submitted but never reaching a terminal state
  (must be 0: lease expiry + Supervisor requeue recovers every orphan);
* **duplicate placements** — app instances beyond the ones the placed
  requests own (must be 0: the Supervisor's reaper destroys what dead
  workers enacted but never reported);
* **recovered orphans** and their expiry→requeue latency (0: the
  Supervisor requeues an orphan at its lease's expiry, ``lease_ttl``
  after the dead worker's last heartbeat);
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
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..campaign import (Comparison, Report, run_variants, stable_round,
                        standard_world)
from .checkpoint import (ServiceCheckpoint, capture_checkpoint,
                         quiescence_blockers, restore_service)
from .config import RecoveryConfig

__all__ = ["GamedayReport", "GamedayComparison", "default_gameday_plan",
           "checkpoint_when_quiet", "run_gameday", "run_gameday_comparison"]


@dataclass
class GamedayReport(Report):
    """One game day's outcome.  ``core_dict()`` is the byte-compared
    part; the ``checkpoint`` section (capture time, journal length at
    capture) is *excluded* from it — the uninterrupted run has none."""

    label = "GamedayReport"

    params: Dict[str, Any] = field(default_factory=dict)
    traffic: Dict[str, Any] = field(default_factory=dict)
    requests: Dict[str, Any] = field(default_factory=dict)
    queue: Dict[str, Any] = field(default_factory=dict)
    pool: Dict[str, Any] = field(default_factory=dict)
    recovery: Dict[str, Any] = field(default_factory=dict)
    chaos: Dict[str, Any] = field(default_factory=dict)
    latency: Dict[str, Any] = field(default_factory=dict)
    slo: Optional[Dict[str, Any]] = None
    drain_seconds: float = 0.0
    #: non-core: present only on the checkpoint/restore variant
    checkpoint: Optional[Dict[str, Any]] = None

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

    def problems(self) -> List[str]:
        """The game-day gate: ≥2 mid-run worker kills, no request
        lost, no duplicate placement, and at least one orphan actually
        recovered (otherwise the drill exercised nothing)."""
        problems = []
        if self.worker_kills < 2:
            problems.append(f"only {self.worker_kills} worker kill(s) "
                            f"mid-run (the drill needs >= 2)")
        if self.lost:
            problems.append(f"{self.lost} request(s) lost")
        if self.duplicates:
            problems.append(f"{self.duplicates} duplicate placement(s)")
        if self.recovered <= 0:
            problems.append("no orphan recovered")
        return problems

    @property
    def passed(self) -> bool:
        """The game-day verdict: :meth:`problems` found nothing."""
        return not self.problems()

    # -- serialization -------------------------------------------------------
    def core_dict(self) -> Dict[str, Any]:
        doc = super().to_dict()
        del doc["checkpoint"]
        doc["passed"] = self.passed
        return doc

    def core_json(self) -> str:
        return json.dumps(self.core_dict(), sort_keys=True)

    def to_dict(self) -> Dict[str, Any]:
        out = self.core_dict()
        out["checkpoint"] = self.checkpoint
        return out

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


class GamedayComparison(Comparison):
    """Uninterrupted (``"straight"``) vs. checkpoint/restore
    (``"restored"``), same seed."""

    label = "gameday comparison"

    @property
    def straight(self) -> GamedayReport:
        return self.reports["straight"]

    @property
    def restored(self) -> GamedayReport:
        return self.reports["restored"]

    @property
    def byte_identical(self) -> bool:
        """The restore gate: the torn-down-and-restored run's report
        core matches the uninterrupted run's byte for byte."""
        return self.straight.core_json() == self.restored.core_json()

    def problems(self) -> List[str]:
        problems = [f"{tag}: {problem}"
                    for tag in ("straight", "restored")
                    for problem in self.reports[tag].problems()]
        if self.restored.checkpoint is None:
            problems.append("restored: no checkpoint was captured")
        if not self.byte_identical:
            problems.append("restored run diverged from the "
                            "uninterrupted run")
        return problems

    @property
    def passed(self) -> bool:
        return not self.problems()

    def verdict(self) -> Dict[str, Any]:
        return {"passed": self.passed,
                "byte_identical": self.byte_identical}

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


def checkpoint_when_quiet(meta: Any, at: float) -> Dict[str, Any]:
    """At the first safe point from virtual time ``at`` on, capture a
    checkpoint, JSON-round-trip it, tear the tier down and restore it,
    all in one instant.  The probe checks :func:`quiescence_blockers` at
    ``at``, then, as its own kernel action, whenever a worker parks or
    the Supervisor's timer fires.  Returns the capture's record, empty
    until the capture happens."""
    info: Dict[str, Any] = {}

    def try_checkpoint() -> None:
        if info or quiescence_blockers(meta):
            return  # done already, or not a safe point: wait for a wake
        checkpoint = capture_checkpoint(meta)
        blob = checkpoint.to_json()
        app = meta.stop_service().app
        restore_service(meta, ServiceCheckpoint.from_json(blob), app)
        info.update(captured_at=stable_round(checkpoint.captured_at),
                    journal_entries=len(checkpoint.journal),
                    bytes=len(blob))

    def wake() -> None:
        meta.sim.schedule(0.0, try_checkpoint)

    def arm() -> None:
        suite = meta.service
        suite.pool.on_park = suite.supervisor.on_fire = wake
        try_checkpoint()

    meta.sim.schedule_at(float(at), arm)
    return info


def run_gameday(seed: int = 0,
                duration: float = 240.0,
                kills: int = 2,
                lease_ttl: float = 20.0,
                heartbeat_interval: float = 5.0,
                checkpoint_at: Optional[float] = None,
                **service: Any) -> GamedayReport:
    """Run one seeded game day and return its scored report.

    ``service`` takes :func:`~repro.service.report.run_service`'s
    keywords (not ``meta``: a game day builds its own world), with its
    defaults.  ``checkpoint_at`` arms :func:`checkpoint_when_quiet`: the
    tier is checkpointed, torn down and restored at the first safe point
    from that virtual time on, after which the run must proceed
    byte-identically to one that never stopped.
    """
    from ..service.report import _run_tier

    recovery = RecoveryConfig(lease_ttl=lease_ttl,
                              heartbeat_interval=heartbeat_interval)
    report = GamedayReport()
    run = _run_tier(
        report, recovery=recovery,
        plan=lambda suite: default_gameday_plan(
            duration, suite.config.workers, kills=kills),
        probe=(None if checkpoint_at is None else
               lambda meta: checkpoint_when_quiet(meta, checkpoint_at)),
        world=standard_world, seed=seed, duration=duration, meta=None,
        **service)
    suite, injector = run.suite, run.injector

    # -- ground truth ---------------------------------------------------------
    app = suite.app
    gateway = suite.gateway
    lost = suite.pending
    expected_instances = sum(
        len(r.created) for r in gateway.requests.values()
        if r.state == "placed")
    duplicates = len(app.instances) - expected_instances

    worker_repairs = [r.reverted_at - r.applied_at
                      for r in injector.records
                      if r.kind == "worker_crash"
                      and r.applied_at is not None
                      and r.reverted_at is not None]
    chaos_stats = injector.stats()
    supervisor_stats = suite.supervisor.stats()

    config = suite.config
    report.params = {
        "seed": seed, "users": run.params.users,
        "duration": stable_round(duration),
        "workers": config.workers, "queue_cap": config.queue_cap,
        "backpressure": config.backpressure,
        "scheduler": config.scheduler,
        "work": stable_round(config.work), "kills": kills,
        "recovery": recovery.to_dict(),
        "plan": injector.plan.counts_by_kind(),
    }
    report.recovery = {
        "lost": lost,
        "duplicates": duplicates,
        "app_instances": len(app.instances),
        "expected_instances": expected_instances,
        "recovered": supervisor_stats["recovered"],
        "cancelled_on_recovery": supervisor_stats["cancelled_on_recovery"],
        "duplicates_averted": supervisor_stats["duplicates_averted"],
        "orphan_latency_mean": stable_round(
            supervisor_stats["orphan_latency_mean"]),
        "orphan_latency_max": stable_round(
            supervisor_stats["orphan_latency_max"]),
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
        "worker_mttr_mean": stable_round(
            sum(worker_repairs) / len(worker_repairs)
            if worker_repairs else 0.0),
        "worker_mttr_max": stable_round(max(worker_repairs)
                                        if worker_repairs else 0.0),
        "mttr_mean": stable_round(chaos_stats["mttr_mean"]),
    }
    report.checkpoint = run.probed or None
    return report


def run_gameday_comparison(checkpoint_at: Optional[float] = None,
                           duration: float = 240.0,
                           **kwargs) -> GamedayComparison:
    """The BENCH_gameday gate: the same seeded game day straight
    through, then with a mid-run checkpoint/teardown/restore — the two
    report cores must match byte for byte."""
    if checkpoint_at is None:
        checkpoint_at = duration * 0.75
    return GamedayComparison(run_variants(
        run_gameday, {"straight": dict(checkpoint_at=None),
                      "restored": dict(checkpoint_at=checkpoint_at)},
        duration=duration, **kwargs))
