"""WorkerPool: N seeded daemons draining the queue into placements.

Each worker is a generator process on the sim kernel.  Its loop:

1. pop the highest-priority request, or park on the worker's own wake
   :class:`~repro.sim.kernel.Event` while the backlog is empty: each
   enqueue wakes the *lowest-index* parked worker at that instant, so
   claim order is a function of virtual time and worker id alone (what
   checkpoint/restore byte-identity needs: a restored pool restarts its
   daemons in index order),
2. honour a pending cancel at claim time (a request cancelled after the
   pop but before ``Scheduler.run`` starts finishes CANCELLED instead of
   being placed anyway),
3. claim the request under a TTL lease (recovery layer on) renewed by a
   heartbeat on the lease's own ``Ticker`` every ``heartbeat_interval``
   virtual seconds,
4. drive :meth:`~repro.scheduler.base.Scheduler.run` for it — each
   worker owns its *own* scheduler instance built from a dedicated
   ``("service", "sched", i)`` RNG stream, so concurrent workers stay
   deterministic,
5. on a transient miss, retry up to ``max_attempts`` times with backoff
   from a per-worker :class:`~repro.chaos.retry.RetryPolicy` seeded by
   the ``("service", "retry", i)`` stream (delay
   ``retry_backoff × U[0.5, 1.5)``) — per-worker streams keep each
   worker's retry trace deterministic under interleaving changes,
6. report the terminal outcome through
   :meth:`~repro.service.gateway.RequestGateway.finish` and record a
   per-worker ``service.worker`` span.

**Crash protocol** (driven by the ``worker_crash`` chaos fault): the
kernel cannot interrupt a generator that is mid-``Scheduler.run`` on the
Python stack, so :meth:`WorkerPool.kill` sets a dead flag the worker
checks at every resume point.  A dead worker *abandons* its request
without finishing it — if the placement had already enacted, the
:class:`SchedulingOutcome` is deposited on the lease so the Supervisor
can destroy the zombie instances (no duplicate placements) — and the
orphaned request is recovered through lease expiry.
:meth:`WorkerPool.revive` starts a fresh generator under a bumped
generation number; stale resumes of the old generator exit silently.

``Scheduler.run`` advances virtual time internally (Transport invokes
are reentrant ``run_until`` calls, which the kernel explicitly
supports), so a placement made from inside a worker process costs the
same simulated seconds it would cost from a campaign loop.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..chaos.retry import RetryPolicy
from ..errors import ChaosError, LegionError
from ..obs.registry import NULL_METRICS
from ..obs.spans import NULL_SPANS
from ..scheduler.base import ObjectClassRequest
from ..sim.kernel import Event, Ticker
from .config import ServiceConfig
from .gateway import RequestGateway
from .queue import PlacementQueue
from .request import CANCELLED, FAILED, PLACED

__all__ = ["DISPATCH_OVERHEAD", "RESERVATION_DURATION", "WorkerPool"]

#: reservation duration a worker passes to ``Scheduler.run``.
#: Reservations occupy their whole window even after the job completes,
#: so the service's sustained capacity is ``total_slots / this`` —
#: generous for the default 10-work-unit job
RESERVATION_DURATION = 30.0
#: virtual seconds of per-request dispatch bookkeeping
DISPATCH_OVERHEAD = 1.0


class WorkerPool:
    """Seeded worker daemons between the placement queue and the Scheduler."""

    def __init__(self, sim: Any, queue: PlacementQueue,
                 gateway: RequestGateway, app: Any, config: ServiceConfig,
                 scheduler_factory: Callable[[int], Any],
                 rng_factory: Callable[[int], Any],
                 metrics: Any = NULL_METRICS, spans: Any = NULL_SPANS,
                 leases: Any = None, heartbeat_interval: float = 0.0):
        self.sim = sim
        self.queue = queue
        self.gateway = gateway
        self.app = app
        self.config = config
        self.metrics = metrics
        self.spans = spans
        self.size = config.workers
        self.schedulers = [scheduler_factory(i) for i in range(self.size)]
        self._retry_rngs = [rng_factory(i) for i in range(self.size)]
        #: per-worker seeded backoff policies (multiplier 1: the service
        #: retries on a fixed jittered backoff, not an exponential one)
        self.retry_policies = [
            RetryPolicy(max_attempts=config.max_attempts,
                        base_delay=config.retry_backoff,
                        multiplier=1.0, max_delay=config.retry_backoff,
                        jitter=0.5, rng=self._retry_rngs[i])
            for i in range(self.size)]
        #: recovery wiring (None without the recovery layer)
        self.leases = leases
        self.heartbeat_interval = float(heartbeat_interval)
        self._stopped = False
        self._busy_now = 0
        self._busy_time: List[float] = [0.0] * self.size
        self._dead: List[bool] = [False] * self.size
        self._generation: List[int] = [0] * self.size
        #: idle workers by index, each parked on its own wake event
        self._parked: Dict[int, Event] = {}
        queue.on_enqueue = self._wake
        #: called whenever a worker parks; the gameday's checkpoint
        #: probe installs its wake-up here
        self.on_park: Callable[[], None] = lambda: None
        self.handled: List[int] = [0] * self.size
        self.placed = 0
        self.failed = 0
        self.retries = 0
        self.kills = 0
        self.revivals = 0
        self.abandons = 0
        self._started_at: Optional[float] = None
        self._processes: List[Any] = []
        metrics.gauge_fn("service_workers_busy",
                         lambda: float(self._busy_now),
                         help="workers currently driving a placement")
        metrics.gauge_fn("service_worker_busy_fraction",
                         lambda: self.busy_fraction,
                         help="pool-wide fraction of wall time spent "
                              "placing since start()")

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Launch one daemon process per worker (idempotent)."""
        if self._processes:
            return
        if self._started_at is None:
            self._started_at = self.sim.now
        self._stopped = False
        for i in range(self.size):
            self._processes.append(
                self.sim.process(self._worker(i, self._generation[i]),
                                 name=f"service-worker-{i}"))

    def stop(self) -> None:
        """Ask every worker to exit after its current request; parked
        workers wake and exit at once."""
        self._stopped = True
        parked, self._parked = self._parked, {}
        for wake in parked.values():
            wake.succeed()

    def shutdown(self) -> None:
        """Tear the pool down for checkpoint/restore: stop, and bump
        every generation so stale pending resumes exit without touching
        the queue a successor pool now owns."""
        for i in range(self.size):
            self._generation[i] += 1
        self.stop()

    def _wake(self) -> None:
        """Hand a fresh enqueue to the lowest-index parked worker."""
        if self._parked:
            self._parked.pop(min(self._parked)).succeed()

    # -- crash / revive (the worker_crash chaos fault) ------------------------
    def kill(self, idx: int) -> None:
        """Crash worker ``idx``: it abandons its current request at the
        next resume point and its lease is left to expire."""
        if not 0 <= idx < self.size:
            raise ChaosError(f"no worker {idx} (pool size {self.size})")
        if self._dead[idx]:
            raise ChaosError(f"worker {idx} is already dead")
        self._dead[idx] = True
        wake = self._parked.pop(idx, None)
        if wake is not None:
            wake.succeed()  # the parked generator returns on its dead check
        elif self.queue.depth:
            self._wake()  # it may have been woken for work it won't claim
        self.kills += 1
        self.metrics.count("recovery_worker_kills_total")

    def revive(self, idx: int) -> None:
        """Bring worker ``idx`` back as a fresh generator process."""
        if not 0 <= idx < self.size:
            raise ChaosError(f"no worker {idx} (pool size {self.size})")
        if not self._dead[idx]:
            raise ChaosError(f"worker {idx} is already up")
        self._dead[idx] = False
        self._generation[idx] += 1
        self.revivals += 1
        generation = self._generation[idx]
        self._processes.append(
            self.sim.process(self._worker(idx, generation),
                             name=f"service-worker-{idx}g{generation}"))

    @property
    def dead_workers(self) -> List[int]:
        return [i for i in range(self.size) if self._dead[i]]

    @property
    def quiescent(self) -> bool:
        """True when every worker is alive and idle, waiting for work
        — the only state a checkpoint may be captured in (a restored
        pool restarts its daemons in exactly this state)."""
        return len(self._parked) == self.size

    @property
    def busy_fraction(self) -> float:
        if self._started_at is None:
            return 0.0
        elapsed = self.sim.now - self._started_at
        if elapsed <= 0:
            return 0.0
        return sum(self._busy_time) / (self.size * elapsed)

    def stats(self) -> Dict[str, Any]:
        return {
            "workers": self.size,
            "handled": sum(self.handled),
            "placed": self.placed,
            "failed": self.failed,
            "retries": self.retries,
            "kills": self.kills,
            "revivals": self.revivals,
            "abandons": self.abandons,
            "busy_fraction": self.busy_fraction,
        }

    # -- checkpoint -----------------------------------------------------------
    def counters(self) -> Dict[str, Any]:
        return {
            "handled": list(self.handled),
            "placed": self.placed,
            "failed": self.failed,
            "retries": self.retries,
            "kills": self.kills,
            "revivals": self.revivals,
            "abandons": self.abandons,
            "busy_time": list(self._busy_time),
            "started_at": self._started_at,
            "generation": list(self._generation),
        }

    def restore_counters(self, doc: Dict[str, Any]) -> None:
        self.handled = list(doc["handled"])
        self.placed = doc["placed"]
        self.failed = doc["failed"]
        self.retries = doc["retries"]
        self.kills = doc["kills"]
        self.revivals = doc["revivals"]
        self.abandons = doc["abandons"]
        self._busy_time = list(doc["busy_time"])
        self._started_at = doc["started_at"]

    # -- the daemon -----------------------------------------------------------
    def _worker(self, idx: int, generation: int):
        cfg = self.config
        scheduler = self.schedulers[idx]
        policy = self.retry_policies[idx]
        sim = self.sim
        while True:
            if (self._stopped or self._dead[idx]
                    or self._generation[idx] != generation):
                return
            request = self.queue.pop()
            if request is None:
                self._parked[idx] = sim.event()
                self.on_park()
                yield self._parked[idx]
                continue
            if request.cancel_requested:
                # claim-time cancel check: the request was cancelled
                # between enqueue and this pop — honour it instead of
                # placing it anyway
                self.gateway.finish(request, CANCELLED,
                                    detail="cancelled at claim")
                continue
            started = sim.now
            self._busy_now += 1
            self.handled[idx] += 1
            self.gateway.transition(request, "claim", worker=idx)
            lease = None
            if self.leases is not None:
                lease = self.leases.grant(request.request_id, idx, started)
                self._schedule_heartbeat(lease, idx, generation)
            ok = False
            cancelled = False
            detail = ""
            for attempt in range(1, cfg.max_attempts + 1):
                if request.cancel_requested:
                    cancelled = True
                    break
                self.gateway.transition(request, "attempt", attempt=attempt)
                outcome = None
                try:
                    outcome = scheduler.run(
                        [ObjectClassRequest(self.app, count=request.count)],
                        reservation_duration=RESERVATION_DURATION)
                    ok = outcome.ok
                    detail = outcome.detail
                except LegionError as exc:
                    ok = False
                    detail = str(exc)
                if (self._dead[idx]
                        or self._generation[idx] != generation):
                    # killed mid-placement: deposit enacted effects on
                    # the lease for the Supervisor's reaper, then die
                    # without reporting — the lease expiry recovers the
                    # orphan
                    if lease is not None and outcome is not None \
                            and outcome.ok:
                        self.leases.deposit_effects(lease, outcome,
                                                    sim.now)
                    self._abandon(idx, started)
                    return
                if ok:
                    break
                if attempt >= cfg.max_attempts:
                    break
                self.retries += 1
                self.metrics.count("service_retries_total")
                yield sim.timeout(policy.backoff(attempt))
                if (self._dead[idx]
                        or self._generation[idx] != generation):
                    self._abandon(idx, started)
                    return
            now = sim.now
            if lease is not None:
                self.leases.release(lease, now)
            if cancelled:
                self.gateway.finish(request, CANCELLED,
                                    detail="cancelled before retry")
            elif ok:
                self.placed += 1
                # stringified: request records are serialized (journal,
                # checkpoint); the raw LOIDs stay on the outcome
                self.gateway.finish(request, PLACED,
                                    created=[str(l) for l in outcome.created])
            else:
                self.failed += 1
                self.gateway.finish(request, FAILED, detail=detail)
            self.spans.record_span(
                "service.worker", start=started, end=now,
                status="ok" if ok else "error", worker=idx,
                request=request.request_id, attempts=request.attempts)
            self._busy_time[idx] += now - started
            self._busy_now -= 1
            yield sim.timeout(DISPATCH_OVERHEAD)

    def _abandon(self, idx: int, started: float) -> None:
        """Bookkeeping for a worker dying with a request in hand."""
        now = self.sim.now
        self._busy_time[idx] += now - started
        self._busy_now -= 1
        self.abandons += 1
        self.metrics.count("recovery_worker_abandons_total")

    def _schedule_heartbeat(self, lease: Any, idx: int,
                            generation: int) -> None:
        """Renew ``lease`` every ``heartbeat_interval`` on a ticker the
        lease owns, while the worker lives and still owns the request; a
        dead worker's beats stop, so the lease runs out its TTL and the
        Supervisor takes over."""
        if self.heartbeat_interval <= 0 or self.leases is None:
            return
        ticker = Ticker(self.sim, self.heartbeat_interval)

        def beat() -> None:
            if (self._stopped or self._dead[idx]
                    or self._generation[idx] != generation
                    or not self.leases.is_active(lease)):
                # the ticker does not re-arm with nobody on it, and
                # dropping the callback breaks the ticker <-> beat loop
                ticker.unsubscribe(lease)
            else:
                self.leases.renew(lease, self.sim.now)

        ticker.subscribe(lease, beat)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<WorkerPool size={self.size} busy={self._busy_now} "
                f"placed={self.placed} failed={self.failed} "
                f"dead={self.dead_workers}>")
