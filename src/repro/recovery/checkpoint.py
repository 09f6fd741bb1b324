"""Checkpoint/restore for the service tier.

OAR's restart property: the resource-management brain can be torn down
and rebuilt from its durable state while the physical cluster keeps
running.  The equivalent here: :func:`capture_checkpoint` serializes
everything the *service tier* owns — the request journal, the cumulative
gateway/queue/pool/supervisor/lease counters, plus audit snapshots of
the budget/breaker/health state the tier depends on — as pure JSON;
:meth:`Metasystem.stop_service` tears the tier down; and
:func:`restore_service` rebuilds a fresh gateway/queue/pool/supervisor
from the checkpoint and replays the journal into the exact request
registry the old tier held.

Determinism contract (what makes a restored run *byte-identical* to an
uninterrupted one):

* capture is only legal at a **safe point** — queue empty, every
  request terminal, no active leases, every worker alive and idle,
  waiting for work (:attr:`WorkerPool.quiescent`); otherwise
  :class:`~repro.errors.RecoveryError`;
* a safe point has no leases, so a restored Supervisor arms nothing;
  it expires each later lease at its ``expires_at``, whatever timer its
  predecessor still had pending; an enqueue wakes the lowest-index
  parked worker and a restored pool starts its daemons in index order,
  so restored daemons act as their predecessors would;
* RNG streams are **cached by name** in the
  :class:`~repro.sim.rng.RngRegistry`, so a restored worker's
  ``("service", "sched", i)`` scheduler stream resumes mid-sequence —
  nothing is reseeded and nothing is drawn during restore;
* recovery-enabled schedulers pin ``viable_cache=False``: a freshly
  restored scheduler has a cold cache, and a warm-vs-cold cache changes
  *virtual* timing (fewer Collection round-trips), which would diverge
  the two runs.

The world-side state (hosts, network, Collection, breakers, budgets)
persists through the tier teardown — the audit snapshots exist so
restore can *verify* the world is byte-for-byte the one the checkpoint
was cut against.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Dict, List

from ..errors import RecoveryError
from ..service.workers import DISPATCH_OVERHEAD, RESERVATION_DURATION
from .config import RecoveryConfig
from .journal import RequestJournal

__all__ = ["ServiceCheckpoint", "capture_checkpoint", "restore_service"]

#: worker constants a checkpoint's ``config`` block carries beside the
#: ServiceConfig fields, keeping one checkpoint format (restore drops them)
WORKER_CONSTANTS = {"dispatch_overhead": DISPATCH_OVERHEAD,
                    "reservation_duration": RESERVATION_DURATION}


class ServiceCheckpoint:
    """A pure-JSON snapshot of the service tier at a safe point."""

    __slots__ = ("captured_at", "config", "recovery", "app_name",
                 "journal", "gateway", "queue", "pool", "supervisor",
                 "leases", "audit")

    def __init__(self, captured_at: float, config: Dict[str, Any],
                 recovery: Dict[str, Any], app_name: str,
                 journal: List[Dict[str, Any]], gateway: Dict[str, Any],
                 queue: Dict[str, Any], pool: Dict[str, Any],
                 supervisor: Dict[str, Any], leases: Dict[str, Any],
                 audit: Dict[str, Any]):
        self.captured_at = captured_at
        self.config = config
        self.recovery = recovery
        self.app_name = app_name
        self.journal = journal
        self.gateway = gateway
        self.queue = queue
        self.pool = pool
        self.supervisor = supervisor
        self.leases = leases
        self.audit = audit

    def to_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ServiceCheckpoint":
        return cls(**{slot: doc[slot] for slot in cls.__slots__})

    @classmethod
    def from_json(cls, blob: str) -> "ServiceCheckpoint":
        return cls.from_dict(json.loads(blob))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<ServiceCheckpoint t={self.captured_at:.1f} "
                f"journal={len(self.journal)}>")


def _audit_snapshot(meta: Any) -> Dict[str, Any]:
    """Budget/breaker/health state the tier depends on (world-side; it
    survives the teardown — captured so restore can verify it did)."""
    audit: Dict[str, Any] = {"breakers": None, "health": None,
                             "budgets": None}
    breakers = getattr(meta.transport, "breakers", None)
    if breakers is not None:
        audit["breakers"] = breakers.snapshot()
    if meta.guardrails is not None:
        audit["health"] = meta.guardrails.monitor.snapshot()
    if meta.economy is not None:
        audit["budgets"] = meta.economy.budgets.to_dict()
    return audit


def quiescence_blockers(meta: Any) -> List[str]:
    """Why a checkpoint can NOT be captured right now ([] = safe)."""
    suite = meta.service
    if suite is None:
        return ["no live service tier"]
    if suite.journal is None or suite.leases is None:
        return ["service tier started without the recovery layer"]
    blockers: List[str] = []
    if suite.queue.depth:
        blockers.append(f"queue depth {suite.queue.depth}")
    pending = sum(1 for r in suite.gateway.requests.values()
                  if not r.terminal)
    if pending:
        blockers.append(f"{pending} non-terminal request(s)")
    if suite.leases.active:
        blockers.append(f"{len(suite.leases.active)} active lease(s)")
    if suite.leases.late_effects:
        blockers.append(f"{len(suite.leases.late_effects)} unreaped "
                        f"late-effect lease(s)")
    if not suite.pool.quiescent:
        blockers.append("worker pool not idle "
                        f"(dead={suite.pool.dead_workers})")
    return blockers


def capture_checkpoint(meta: Any) -> ServiceCheckpoint:
    """Snapshot the service tier at a safe point (else RecoveryError)."""
    blockers = quiescence_blockers(meta)
    if blockers:
        raise RecoveryError(
            "checkpoint refused — not at a safe point: "
            + "; ".join(blockers))
    suite = meta.service
    return ServiceCheckpoint(
        captured_at=meta.now,
        config=dict(asdict(suite.config), **WORKER_CONSTANTS),
        recovery=suite.recovery.to_dict(),
        app_name=suite.app.name,
        journal=suite.journal.to_dicts(),
        gateway={"submitted": suite.gateway.submitted,
                 "admission_rejections": suite.gateway.admission.rejections},
        queue=suite.queue.counters(),
        pool=suite.pool.counters(),
        supervisor=suite.supervisor.counters(),
        leases=suite.leases.counters(),
        audit=_audit_snapshot(meta))


def restore_service(meta: Any, checkpoint: ServiceCheckpoint,
                    app: Any) -> Any:
    """Rebuild the service tier from a checkpoint and continue.

    ``app`` is the live Class object requests place instances of — it is
    world-side state that survived the teardown (restore never creates a
    new class: that would both duplicate the world object and perturb
    seeded streams).  Returns the new
    :class:`~repro.service.ServiceSuite`; after this call the sim
    continues byte-identically to a run that never checkpointed.
    """
    from ..service.config import ServiceConfig
    if meta.service is not None:
        raise RecoveryError(
            "cannot restore: a service tier is still running "
            "(call Metasystem.stop_service() first)")
    if app.name != checkpoint.app_name:
        raise RecoveryError(
            f"checkpoint was cut against app {checkpoint.app_name!r}, "
            f"got {app.name!r}")
    audit = _audit_snapshot(meta)
    if json.dumps(audit, sort_keys=True) != json.dumps(checkpoint.audit,
                                                       sort_keys=True):
        raise RecoveryError(
            "world state diverged from the checkpoint's "
            "budget/breaker/health audit — restore would not be "
            "deterministic")
    config = ServiceConfig(**{k: v for k, v in checkpoint.config.items()
                              if k not in WORKER_CONSTANTS})
    recovery = RecoveryConfig(**checkpoint.recovery)
    suite = meta.start_service(config=config, app=app, recovery=recovery)
    # replay the journal into the exact request registry the old tier held
    suite.journal.load(checkpoint.journal)
    requests, live, counters = RequestJournal.replay(suite.journal.entries)
    if live:  # pragma: no cover — quiescence guarantees an empty queue
        raise RecoveryError(
            f"checkpoint journal replays {len(live)} live queue "
            f"entr(ies); capture was not at a safe point")
    suite.gateway.requests = requests
    suite.gateway.submitted = counters["submitted"]
    suite.gateway.admission.rejections = counters["admission_rejections"]
    # continue every cumulative counter where the old tier left off
    suite.queue.restore_counters(checkpoint.queue)
    suite.pool.restore_counters(checkpoint.pool)
    suite.supervisor.restore_counters(checkpoint.supervisor)
    suite.leases.restore_counters(checkpoint.leases)
    return suite
