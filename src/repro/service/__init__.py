"""Live service mode: the production-shaped tier over the Metasystem.

Every entry point before this package was a closed-loop batch campaign —
the experiment loop submitted a wave, waited, submitted the next.  The
paper's Scheduler/Enactor/Collection protocol exists to serve a *stream*
of placement requests from real users; this package wraps the simulated
metasystem in exactly the high-level modular decomposition OAR (Capit et
al., PAPERS.md) gives a batch RMS — submission front-end, queue,
executor — and drives it open-loop:

* :mod:`~repro.service.gateway` — a typed **request gateway**
  (submit/status/cancel/health routes) with front-door admission control
  reusing the guardrails admission semantics (bounded backlog + load
  limit, :class:`~repro.errors.AdmissionRejected`),
* :mod:`~repro.service.queue` — a bounded, priority-aware **placement
  queue** with shed/reject/defer backpressure modes and queue-depth
  metrics,
* :mod:`~repro.service.workers` — a **worker pool**: N seeded daemons on
  the sim kernel draining the queue into ``Scheduler.run`` placements,
  with per-worker spans and retry-on-transient wiring,
* :mod:`~repro.service.traffic` — an **open-loop traffic generator**:
  seeded diurnal/bursty user populations (Lazarevic & Sacks, PAPERS.md)
  scaling to millions of simulated users at O(arrivals) cost,
* :mod:`~repro.service.report` — the :class:`ServiceReport` joining
  per-request end-to-end latency (submit→placed, from the gateway's
  request registry)
  with the SLO engine's burn-rate verdicts, exported byte-stably; plus
  ``run_service`` / ``run_service_comparison``, the engines behind
  ``legion-sim serve`` and the committed ``BENCH_service.json``.

Everything runs on virtual time with dedicated ``("service", ...)``
seeded RNG streams, so a saturated→drained service cycle is byte-
identical across reruns — the property ``legion-sim ledger check
service`` gates on.
"""

from .config import ServiceConfig
from .gateway import RequestGateway, ServiceAdmission
from .queue import PlacementQueue
from .report import (
    ServiceComparison,
    ServiceReport,
    run_service,
    run_service_comparison,
)
from .request import (
    CANCELLED,
    DEFERRED,
    FAILED,
    PLACED,
    PLACING,
    QUEUED,
    REJECTED,
    SHED,
    TERMINAL_STATES,
    RouteResult,
    ServiceRequest,
)
from .slos import default_service_slos
from .traffic import TrafficGenerator, TrafficModel
from .workers import WorkerPool

__all__ = [
    "ServiceConfig",
    "ServiceSuite",
    "RequestGateway",
    "ServiceAdmission",
    "PlacementQueue",
    "WorkerPool",
    "TrafficGenerator",
    "TrafficModel",
    "ServiceRequest",
    "RouteResult",
    "ServiceReport",
    "ServiceComparison",
    "run_service",
    "run_service_comparison",
    "default_service_slos",
    "QUEUED", "DEFERRED", "PLACING", "PLACED", "FAILED", "SHED",
    "REJECTED", "CANCELLED", "TERMINAL_STATES",
]


class ServiceSuite:
    """The wired-up live service of one Metasystem (what
    :meth:`~repro.metasystem.Metasystem.start_service` returns)."""

    def __init__(self, config: ServiceConfig, gateway: RequestGateway,
                 queue: PlacementQueue, pool: WorkerPool, app,
                 recovery=None, journal=None, leases=None, supervisor=None):
        self.config = config
        self.gateway = gateway
        self.queue = queue
        self.pool = pool
        #: the Class object service requests place instances of
        self.app = app
        #: recovery layer (``start_service(recovery=...)``); all None when
        #: the tier runs without it
        self.recovery = recovery
        self.journal = journal
        self.leases = leases
        self.supervisor = supervisor
        #: set by :meth:`stop`; a stopped tier never runs again
        self.stopped = False

    @property
    def pending(self) -> int:
        """How many requests are not yet in a terminal state."""
        return sum(1 for r in self.gateway.requests.values()
                   if not r.terminal)

    @property
    def settled(self) -> bool:
        """Drained: every request terminal, and no lease still active
        or owed a late-effect reap."""
        leases = self.leases
        return not (self.pending or leases is not None
                    and (leases.active or leases.late_effects))

    def stop(self) -> None:
        """Stop the tier for good (idempotent): the Supervisor stops and
        the worker pool shuts down, so every worker exits at its next
        resume.  Queued requests stay queued.  The suite stays readable,
        and attached to its Metasystem until
        :meth:`~repro.metasystem.Metasystem.stop_service` detaches it;
        ``start_service`` never hands a stopped suite back."""
        if self.stopped:
            return
        if self.supervisor is not None:
            self.supervisor.stop()
        self.pool.shutdown()
        self.stopped = True

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<ServiceSuite workers={self.pool.size} "
                f"queue={self.queue.depth}/{self.queue.cap or 'inf'} "
                f"requests={self.gateway.submitted}>")
