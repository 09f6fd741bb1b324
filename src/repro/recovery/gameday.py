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
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..campaign import (SERVICE_DRAIN_STEP, Comparison, Report, drain,
                        run_variants, slo_block, stable_round,
                        standard_world)
from ..sim.kernel import grid_delay
from .checkpoint import (ServiceCheckpoint, capture_checkpoint,
                         quiescence_blockers, restore_service)
from .config import RecoveryConfig

__all__ = ["GamedayReport", "GamedayComparison", "default_gameday_plan",
           "run_gameday", "run_gameday_comparison"]

#: the checkpoint probe's absolute grid (virtual s between safe-point checks)
CHECKPOINT_PROBE_INTERVAL = 1.0


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
                n_domains: int = 3,
                hosts_per_domain: int = 6,
                platform_mix: int = 3,
                host_slots: int = 8,
                background_load: float = 0.3,
                sampler_window: float = 30.0,
                drain_time: float = 1800.0) -> GamedayReport:
    """Run one seeded game day and return its scored report.

    ``checkpoint_at`` arms the checkpoint daemon: from that virtual
    time on it polls (every :data:`CHECKPOINT_PROBE_INTERVAL` on an
    absolute grid) for a safe point — every worker parked waiting for
    work, nothing queued or in flight — then
    captures a checkpoint, JSON-round-trips it, tears the service tier
    down, and restores — all inside one virtual instant, after which
    the run must proceed byte-identically to one that never stopped.
    """
    from ..service.config import ServiceConfig
    from ..service.report import (default_model, open_loop_traffic,
                                  tier_stats)
    from ..service.slos import E2E_THRESHOLD, default_service_slos
    from ..chaos.injector import ChaosInjector

    meta = standard_world(seed, n_domains, hosts_per_domain, platform_mix,
                          background_load, host_slots=host_slots,
                          sampler_window=sampler_window)

    config = ServiceConfig(workers=workers, queue_cap=queue_cap,
                           backpressure=backpressure,
                           scheduler=scheduler, work=work)
    recovery = RecoveryConfig(lease_ttl=lease_ttl,
                              heartbeat_interval=heartbeat_interval,
                              scan_interval=scan_interval)
    suite = meta.start_service(config, recovery=recovery)
    app = suite.app

    plan = default_gameday_plan(duration, workers, kills=kills)
    injector = ChaosInjector(meta, plan).arm()

    model = default_model(users, duration,
                          requests_per_user_hour=requests_per_user_hour,
                          surge_multiplier=surge_multiplier)
    generator = open_loop_traffic(meta, model, duration)

    checkpoint_info: Optional[Dict[str, Any]] = None
    if checkpoint_at is not None:
        def try_checkpoint() -> None:
            nonlocal checkpoint_info
            if checkpoint_info is not None:
                return
            if quiescence_blockers(meta):
                # not a safe point yet — re-poll on the probe's grid
                meta.sim.schedule(
                    grid_delay(meta.sim.now, CHECKPOINT_PROBE_INTERVAL),
                    try_checkpoint)
                return
            checkpoint = capture_checkpoint(meta)
            blob = checkpoint.to_json()
            meta.stop_service()
            restore_service(meta, ServiceCheckpoint.from_json(blob), app)
            checkpoint_info = {
                "captured_at": stable_round(checkpoint.captured_at),
                "journal_entries": len(checkpoint.journal),
                "bytes": len(blob),
            }
        meta.sim.schedule_at(float(checkpoint_at), try_checkpoint)

    meta.advance(duration)

    # drain until every admitted request is terminal AND every lease is
    # settled (an expired lease still owed a requeue counts as pending)
    def settled(meta: Any) -> bool:
        live = meta.service
        return (all(r.terminal for r in live.gateway.requests.values())
                and not live.leases.active
                and not live.leases.late_effects)
    drain_seconds = drain(meta, settled, drain_time, SERVICE_DRAIN_STEP)

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

    worker_repairs = [r.reverted_at - r.applied_at
                      for r in injector.records
                      if r.kind == "worker_crash"
                      and r.applied_at is not None
                      and r.reverted_at is not None]
    chaos_stats = injector.stats()
    supervisor_stats = suite.supervisor.stats()

    report = GamedayReport()
    report.params = {
        "seed": seed, "users": model.users,
        "duration": stable_round(duration),
        "workers": workers, "queue_cap": queue_cap,
        "backpressure": backpressure, "scheduler": scheduler,
        "work": stable_round(work), "kills": kills,
        "recovery": recovery.to_dict(),
        "plan": plan.counts_by_kind(),
    }
    report.traffic = generator.stats()
    report.requests, report.queue, report.pool, report.latency = \
        tier_stats(suite)
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
    report.drain_seconds = drain_seconds
    report.checkpoint = checkpoint_info

    if meta.sampler is not None:
        report.slo, _ = slo_block(
            meta, default_service_slos(threshold=E2E_THRESHOLD))
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
