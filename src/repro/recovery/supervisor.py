"""Supervisor: the daemon that turns worker crashes into recoveries.

Owns one one-shot timer at the earliest ``expires_at`` in the
:class:`~repro.recovery.leases.LeaseTable`, armed by a grant when none
is (a new lease never expires first, and renewals only move expiry
later), by a late effect at the deposit instant, and by each firing at
the new minimum.  An orphan is thus requeued at its lease's expiry,
``lease_ttl`` after the last beat.  A firing reaps late effects, then
for each lease due it:

1. retires the lease and fires the ``expire`` transition through
   :meth:`~repro.service.gateway.RequestGateway.transition` (which
   journals it);
2. **reaps zombie effects** — if the dead worker had already enacted the
   placement (the outcome was deposited on the lease), every created
   instance is destroyed through the Class object, releasing its host
   slot; this is what keeps the duplicate-placement count at zero
   (reservations that never enacted were already rolled back by the
   Scheduler's own failure path);
3. **re-enqueues the orphan exactly once** per expiry through
   :meth:`~repro.service.gateway.RequestGateway.requeue` — unless the
   user cancelled it while it was stranded, in which case it finishes
   CANCELLED;
4. records a ``recovery.orphan`` span from lease expiry to requeue and
   the orphan-recovery latency sample the gameday report aggregates.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..obs.registry import NULL_METRICS
from ..obs.spans import NULL_SPANS

__all__ = ["Supervisor"]

#: cumulative recovery counts ``stats()`` reports and a checkpoint carries
_COUNTERS = ("recovered", "cancelled_on_recovery", "duplicates_averted")


class Supervisor:
    """Lease-expiry timer + orphan recovery daemon."""

    def __init__(self, sim: Any, gateway: Any, leases: Any, app: Any,
                 metrics: Any = NULL_METRICS, spans: Any = NULL_SPANS):
        self.sim = sim
        self.gateway = gateway
        self.leases = leases
        self.app = app
        self.metrics = metrics
        self.spans = spans
        self.recovered = 0
        self.cancelled_on_recovery = 0
        self.duplicates_averted = 0
        #: expiry→requeue latency samples (virtual seconds)
        self.orphan_latencies: List[float] = []
        #: called after every timer firing; the gameday's checkpoint
        #: probe installs its wake-up here
        self.on_fire: Callable[[], None] = lambda: None
        #: when the armed timer fires (None: nothing armed)
        self._due: Optional[float] = None
        self._started = False
        self._stopped = False

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "Supervisor":
        if self._started:
            return self
        self._started = True
        self._stopped = False
        self.leases.on_deadline = self._arm
        return self

    def stop(self) -> None:
        self._stopped = True

    # -- the timer ----------------------------------------------------------
    def _arm(self, when: float) -> None:
        """Arm the timer at ``when`` unless it already fires no later."""
        if self._due is None or when < self._due:
            self._due = when
            self.sim.schedule_at(when, self._fire)

    def _fire(self) -> None:
        now = self.sim.now
        if self._stopped or now != self._due:
            return  # stopped, or superseded by an earlier arming
        self._due = None
        # reap placements whose effects arrived after their lease had
        # already been expired (Scheduler.run outlived the TTL)
        while self.leases.late_effects:
            self._reap(self.leases.late_effects.pop(0), now)
        for lease in self.leases.expired(now):
            self._recover(lease, now)
        if self.leases.active:
            self._arm(min(lease.expires_at
                          for lease in self.leases.active.values()))
        self.on_fire()

    def _recover(self, lease: Any, now: float) -> None:
        self.leases.expire(lease, now)
        request = self.gateway.requests[lease.request_id]
        self.gateway.transition(request, "expire", worker=lease.worker)
        reaped = self._reap(lease, now)
        if request.cancel_requested:
            self.cancelled_on_recovery += 1
            self.gateway.requeue(request)  # honours the flag: CANCELLED
        else:
            self.gateway.requeue(
                request, reason=f"lease expired on worker {lease.worker}")
            self.recovered += 1
            latency = now - lease.expires_at
            self.orphan_latencies.append(latency)
            self.metrics.count("recovery_orphans_recovered_total")
            self.metrics.observe("recovery_orphan_latency_seconds", latency)
        self.spans.record_span(
            "recovery.orphan", start=lease.expires_at, end=now,
            request=lease.request_id, worker=lease.worker, reaped=reaped,
            outcome="cancelled" if request.cancel_requested
            else "requeued")

    def _reap(self, lease: Any, now: float) -> int:
        """Destroy instances a dead worker enacted but never reported."""
        if lease.effects is None:
            return 0
        reaped = 0
        for loid in lease.effects.created:
            if loid in self.app.instances:
                self.app.destroy_instance(loid, now=now)
                reaped += 1
        lease.effects = None
        if reaped:
            self.duplicates_averted += reaped
            self.metrics.count("recovery_duplicates_averted_total", reaped)
        return reaped

    # -- reporting / checkpoint ---------------------------------------------
    def stats(self) -> Dict[str, Any]:
        lat = self.orphan_latencies
        return {name: getattr(self, name) for name in _COUNTERS} | {
            "orphan_latency_mean": (sum(lat) / len(lat)) if lat else 0.0,
            "orphan_latency_max": max(lat) if lat else 0.0}

    def snapshot(self) -> Dict[str, Any]:
        """Cumulative recovery counts for checkpoint/restore."""
        return {name: getattr(self, name) for name in _COUNTERS} | {
            "orphan_latencies": list(self.orphan_latencies)}

    def restore(self, doc: Dict[str, Any]) -> None:
        """Continue counting where a checkpointed Supervisor left off."""
        for name in _COUNTERS:
            setattr(self, name, doc[name])
        self.orphan_latencies = list(doc["orphan_latencies"])

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Supervisor recovered={self.recovered} "
                f"averted={self.duplicates_averted} due={self._due}>")
