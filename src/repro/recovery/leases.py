"""Lease-based request ownership.

A worker that pops a request claims it under a TTL lease; while the
worker lives, a heartbeat (scheduled by the pool) renews the lease every
``heartbeat_interval``.  A crashed worker stops renewing, the lease
expires, and the :class:`~repro.recovery.supervisor.Supervisor` recovers
the orphan.  The table is the single authority on ownership:

* **≤ 1 active lease per request** — :meth:`grant` raises
  :class:`~repro.errors.RecoveryError` on a double grant, and the full
  interval history is kept so the hypothesis property in
  ``tests/test_recovery.py`` can audit non-overlap after the fact;
* **effects travel with the lease** — a worker that notices it was
  killed *after* ``Scheduler.run`` returned deposits the
  half-made placement (the :class:`SchedulingOutcome`) on its lease, so
  the Supervisor can destroy those zombie instances before re-enqueuing
  (no duplicate placements).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from ..errors import RecoveryError
from ..obs.registry import NULL_METRICS

__all__ = ["Lease", "LeaseTable"]

RELEASED = "released"
EXPIRED = "expired"
#: cumulative lease counts a checkpoint carries
_COUNTERS = ("grants", "renewals", "releases", "expirations")


class Lease:
    """One worker's claim on one request."""

    __slots__ = ("request_id", "worker", "granted_at", "expires_at",
                 "renewals", "effects")

    def __init__(self, request_id: str, worker: int, granted_at: float,
                 expires_at: float):
        self.request_id = request_id
        self.worker = worker
        self.granted_at = granted_at
        self.expires_at = expires_at
        self.renewals = 0
        #: a SchedulingOutcome deposited by a worker that died after
        #: enacting a placement it could no longer report
        self.effects: Any = None

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Lease {self.request_id} worker={self.worker} "
                f"expires={self.expires_at:.1f}>")


class LeaseTable:
    """Active leases plus the full ownership-interval history."""

    def __init__(self, ttl: float, metrics: Any = NULL_METRICS):
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        self.ttl = float(ttl)
        self.metrics = metrics
        self.active: Dict[str, Lease] = {}
        #: closed ownership intervals:
        #: (request_id, worker, granted_at, ended_at, how)
        self.history: List[tuple] = []
        self.grants = 0
        self.renewals = 0
        self.releases = 0
        self.expirations = 0
        #: leases whose worker deposited effects *after* the Supervisor
        #: had already expired them (Scheduler.run outlived the TTL);
        #: reaped by the Supervisor at the deposit instant
        self.late_effects: List[Lease] = []
        #: called with a grant's expiry and with the instant of a late
        #: deposit; the Supervisor installs its timer's arming here
        self.on_deadline: Callable[[float], None] = lambda when: None
        metrics.gauge_fn("recovery_active_leases",
                         lambda: float(len(self.active)),
                         help="requests currently owned by a worker lease")

    # -- lifecycle ----------------------------------------------------------
    def grant(self, request_id: str, worker: int, now: float) -> Lease:
        if request_id in self.active:
            raise RecoveryError(
                f"request {request_id} is already leased to worker "
                f"{self.active[request_id].worker}")
        lease = Lease(request_id, worker, now, now + self.ttl)
        self.active[request_id] = lease
        self.grants += 1
        self.metrics.count("recovery_lease_grants_total")
        self.on_deadline(lease.expires_at)
        return lease

    def renew(self, lease: Lease, now: float) -> None:
        """Heartbeat: extend the lease (no-op unless still the active
        lease for its request — a stale beat must not resurrect one)."""
        if self.active.get(lease.request_id) is not lease:
            return
        lease.expires_at = now + self.ttl
        lease.renewals += 1
        self.renewals += 1
        self.metrics.count("recovery_heartbeats_total")

    def release(self, lease: Lease, now: float) -> None:
        """The worker finished the request and gives up ownership."""
        if self.active.get(lease.request_id) is not lease:
            return
        del self.active[lease.request_id]
        self.releases += 1
        self.history.append((lease.request_id, lease.worker,
                             lease.granted_at, now, RELEASED))

    def expire(self, lease: Lease, now: float) -> None:
        """The Supervisor retires an expired lease (worker presumed
        dead); ownership interval closes at the expiry time."""
        if self.active.get(lease.request_id) is not lease:
            return
        del self.active[lease.request_id]
        self.expirations += 1
        self.metrics.count("recovery_lease_expirations_total")
        self.history.append((lease.request_id, lease.worker,
                             lease.granted_at, lease.expires_at, EXPIRED))

    def deposit_effects(self, lease: Lease, outcome: Any, now: float) -> None:
        """A dying worker hands its enacted-but-unreported placement to
        whoever will reap it.  While the lease is still active the
        Supervisor reaps at expiry; if the lease already expired (the
        placement outlived the TTL inside ``Scheduler.run``), the lease
        joins :attr:`late_effects` and wakes the Supervisor at ``now``
        — either way the zombie instances are destroyed exactly once."""
        lease.effects = outcome
        if not self.is_active(lease):
            self.late_effects.append(lease)
            self.on_deadline(now)

    # -- queries ------------------------------------------------------------
    def is_active(self, lease: Lease) -> bool:
        return self.active.get(lease.request_id) is lease

    def expired(self, now: float) -> List[Lease]:
        """Active leases whose TTL has lapsed, in request-id order."""
        return [lease for _rid, lease in sorted(self.active.items())
                if lease.expires_at <= now]

    def intervals(self) -> List[tuple]:
        """Closed + open ownership intervals (for the overlap audit)."""
        out = list(self.history)
        for rid, lease in sorted(self.active.items()):
            out.append((rid, lease.worker, lease.granted_at, None, "open"))
        return out

    # -- checkpoint ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Cumulative counts and the closed ownership history for
        checkpoint/restore (a safe point has no active lease)."""
        return {name: getattr(self, name) for name in _COUNTERS} | {
            "history": [list(h) for h in self.history]}

    def restore(self, doc: Dict[str, Any]) -> None:
        """Continue counting where a checkpointed table left off."""
        for name in _COUNTERS:
            setattr(self, name, doc[name])
        self.history = [tuple(h) for h in doc["history"]]

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<LeaseTable active={len(self.active)} "
                f"grants={self.grants} expirations={self.expirations}>")
