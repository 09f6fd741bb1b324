"""RequestGateway: the typed front door of the live service tier.

Four routes — ``submit`` / ``status`` / ``cancel`` / ``health`` — each
returning a :class:`~repro.service.request.RouteResult`.  Submission
passes two layers of protection before a request reaches the backlog:

1. **front-door admission** (:class:`ServiceAdmission`) reuses the
   guardrails admission semantics — a load ceiling over the testbed's
   mean machine load, raising
   :class:`~repro.errors.AdmissionRejected` exactly like the Host-side
   :class:`~repro.guardrails.admission.AdmissionController` does;
2. **bounded-backlog backpressure**: a full
   :class:`~repro.service.queue.PlacementQueue` sheds, rejects, or
   defers the request per the configured mode.  Deferred requests are
   re-offered by the gateway after ``defer_delay`` virtual seconds, at
   most ``max_defers`` times, then shed.

Every request — including shed and rejected ones — stays in the
gateway's registry, so ``status`` answers for it forever: *counted, not
lost*.  The gateway is also the single place terminal outcomes are
recorded (workers call :meth:`RequestGateway.finish`), which keeps the
outcome counters, the e2e latency histogram, and the per-request spans
consistent with each other, and every live state change (workers' and
the Supervisor's too) goes through :meth:`RequestGateway.transition`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..errors import AdmissionRejected
from ..obs.registry import NULL_METRICS
from ..obs.spans import NULL_SPANS
from .config import ServiceConfig
from .queue import PlacementQueue
from .request import (
    CANCELLED,
    DEFERRED,
    FAILED,
    PLACED,
    PLACING,
    QUEUED,
    REJECTED,
    SHED,
    RouteResult,
    ServiceRequest,
)

__all__ = ["RequestGateway", "ServiceAdmission"]


class ServiceAdmission:
    """Front-door load shedding, mirroring the guardrails controller.

    Where :class:`~repro.guardrails.admission.AdmissionController`
    guards one host at reservation time, this guards the whole service
    at submit time: past ``load_limit`` mean machine load, new work is
    refused outright rather than queued onto an already-drowning
    testbed.
    """

    def __init__(self, load_limit: Optional[float] = None,
                 metrics: Any = NULL_METRICS):
        if load_limit is not None and load_limit <= 0:
            raise ValueError("load_limit must be positive (or None)")
        self.load_limit = load_limit
        self.metrics = metrics
        self.rejections = 0

    def check(self, hosts: List[Any], now: float) -> None:
        """Raise :class:`AdmissionRejected` if the service should refuse."""
        if self.load_limit is None or not hosts:
            return
        load = sum(h.machine.load_average for h in hosts) / len(hosts)
        if load > self.load_limit:
            self.rejections += 1
            self.metrics.count("service_admission_rejected_total",
                               reason="load")
            raise AdmissionRejected(
                f"service: mean load {load:.2f} exceeds limit "
                f"{self.load_limit:.2f}")

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<ServiceAdmission load_limit={self.load_limit} "
                f"rejections={self.rejections}>")


class RequestGateway:
    """Typed submit/status/cancel/health routes over the placement queue."""

    def __init__(self, sim: Any, queue: PlacementQueue,
                 config: ServiceConfig, metrics: Any = NULL_METRICS,
                 spans: Any = NULL_SPANS, hosts: Optional[List[Any]] = None,
                 journal: Any = None):
        self.sim = sim
        self.queue = queue
        self.config = config
        self.metrics = metrics
        self.spans = spans
        self.hosts = hosts if hosts is not None else []
        self.admission = ServiceAdmission(config.load_limit, metrics)
        self.requests: Dict[str, ServiceRequest] = {}
        self.submitted = 0
        #: optional write-ahead RequestJournal (recovery layer)
        self.journal = journal

    # -- routes ---------------------------------------------------------------
    def submit(self, user: str, count: int = 1, priority: int = 0,
               work: Optional[float] = None) -> RouteResult:
        """Admit a placement request; returns its id and initial state."""
        self._route("submit")
        now = self.sim.now
        request = ServiceRequest(
            request_id=f"req-{self.submitted:06d}", user=user, count=count,
            priority=priority, work=work, submitted_at=now)
        self.submitted += 1
        self.requests[request.request_id] = request
        self.transition(request, "submit", user=user, count=count,
                        priority=priority, work=work)
        try:
            self.admission.check(self.hosts, now)
        except AdmissionRejected as exc:
            self.transition(request, "admission_rej")
            self.finish(request, REJECTED, detail=str(exc))
            return RouteResult("submit", False, request.request_id,
                               REJECTED, detail=str(exc))
        return self._offer(request)

    def status(self, request_id: str) -> RouteResult:
        """Look up any request ever submitted — terminal ones included."""
        self._route("status")
        request = self.requests.get(request_id)
        if request is None:
            return RouteResult("status", False, request_id,
                               detail="unknown request")
        return RouteResult("status", True, request_id, request.state,
                           detail=request.detail,
                           snapshot=request.to_dict())

    def cancel(self, request_id: str) -> RouteResult:
        """Withdraw a request that has not started placing yet.

        A request a worker has already popped (the queue no longer holds
        it, or its state is PLACING) is *not* finished here — doing so
        would race the worker, which still believes it owns the request
        and would place it anyway.  Instead ``cancel_requested`` is set
        and the worker honours it at its next claim-time check (before
        the first ``Scheduler.run`` and before every retry), finishing
        the request CANCELLED itself.
        """
        self._route("cancel")
        request = self.requests.get(request_id)
        if request is None:
            return RouteResult("cancel", False, request_id,
                               detail="unknown request")
        if request.state == QUEUED:
            if self.queue.cancel(request_id):
                self.finish(request, CANCELLED,
                            detail="cancelled while queued")
                return RouteResult("cancel", True, request_id, CANCELLED)
            # popped by a worker but not yet marked PLACING: flag it for
            # the worker's claim-time check instead of racing it
            return self._flag_cancel(request)
        if request.state == DEFERRED:
            self.finish(request, CANCELLED, detail="cancelled while deferred")
            return RouteResult("cancel", True, request_id, CANCELLED)
        if request.state == PLACING:
            return self._flag_cancel(request)
        return RouteResult(
            "cancel", False, request_id, request.state,
            detail=f"not cancellable in state {request.state!r}")

    def _flag_cancel(self, request: ServiceRequest) -> RouteResult:
        self.transition(request, "cancel_flag")
        return RouteResult(
            "cancel", True, request.request_id, request.state,
            detail="cancel pending: claimed by a worker; honoured at its "
                   "next claim-time check")

    def health(self) -> Dict[str, Any]:
        """Liveness snapshot: backlog, outcomes, admission, clock."""
        self._route("health")
        return dict(self.snapshot(), now=self.sim.now,
                    queue=self.queue.stats(),
                    requests_by_state=self.by_state())

    def by_state(self) -> Dict[str, int]:
        """How many requests the registry holds in each state."""
        by_state: Dict[str, int] = {}
        for request in self.requests.values():
            by_state[request.state] = by_state.get(request.state, 0) + 1
        return dict(sorted(by_state.items()))

    # -- checkpoint -----------------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """The cumulative counters a checkpoint carries; the registry
        itself is rebuilt from the journal."""
        return {"submitted": self.submitted,
                "admission_rejections": self.admission.rejections}

    def restore(self, doc: Dict[str, int]) -> None:
        """Continue counting where a checkpointed gateway left off."""
        self.submitted = doc["submitted"]
        self.admission.rejections = doc["admission_rejections"]

    # -- backpressure ---------------------------------------------------------
    def _offer(self, request: ServiceRequest,
               final: bool = False) -> RouteResult:
        """Offer ``request`` to the backlog (again, for a deferred one:
        ``final`` once it is out of defers) and act on the disposition."""
        disposition = self.queue.offer(request, final=final)
        if disposition == "enqueued":
            self.transition(request, "enqueue")
            return RouteResult("submit", True, request.request_id, QUEUED)
        if disposition == "deferred":
            self.transition(request, "defer", defers=request.defers + 1)
            self.sim.schedule(self.config.defer_delay,
                              lambda: self._reoffer(request))
            return RouteResult("submit", True, request.request_id, DEFERRED,
                               detail=f"backlog full; retrying in "
                                      f"{self.config.defer_delay:g}s")
        state = REJECTED if disposition == "rejected" else SHED
        detail = (f"backlog still full after {request.defers} defers"
                  if request.defers else "backlog full")
        self.finish(request, state, detail=detail)
        return RouteResult("submit", False, request.request_id, state,
                           detail=detail)

    def _reoffer(self, request: ServiceRequest) -> None:
        if request.state == DEFERRED:  # else cancelled in the meantime
            self._offer(request,
                        final=request.defers >= self.config.max_defers)

    # -- transitions ----------------------------------------------------------
    def transition(self, request: ServiceRequest, event: str,
                   **data: Any) -> None:
        """The one way the live tier changes a request: journal
        ``event`` first (write-ahead, when the recovery layer is on),
        then :meth:`ServiceRequest.apply` it.  ``submit`` is journalled
        only: the constructor made the request."""
        if self.journal is not None:
            self.journal.record(event, request.request_id, **data)
        if event != "submit":
            request.apply(event, self.sim.now, data)

    def finish(self, request: ServiceRequest, state: str,
               detail: str = "", created: Sequence[str] = ()) -> None:
        """Move ``request`` to a terminal state; the only place outcome
        counters, the e2e histogram, and request spans are emitted."""
        now = self.sim.now
        self.transition(request, "finish", state=state, detail=detail,
                        created=list(created))
        self.metrics.count("service_request_outcomes_total", outcome=state)
        if state == PLACED:
            self.metrics.observe("service_e2e_seconds",
                                 now - request.submitted_at)
        if state in (PLACED, FAILED):
            self.spans.record_span(
                "service.request", start=request.submitted_at, end=now,
                status="ok" if state == PLACED else "error",
                request=request.request_id, user=request.user,
                outcome=state, priority=request.priority,
                worker=request.worker, attempts=request.attempts)

    def requeue(self, request: ServiceRequest, reason: str = "") -> None:
        """Put a recovered orphan back in the queue (Supervisor path).

        Honours a pending cancel first — an orphan whose user cancelled
        while it was stranded finishes CANCELLED instead of being placed
        posthumously.  Otherwise the request re-enters the backlog via
        the cap-bypassing :meth:`PlacementQueue.requeue` (an admitted
        request is never shed on its way back from a crash).
        """
        if request.cancel_requested:
            self.finish(request, CANCELLED,
                        detail="cancelled during crash recovery")
            return
        self.queue.requeue(request)
        self.transition(request, "requeue", requeues=request.requeues + 1,
                        reason=reason)

    def _route(self, route: str) -> None:
        self.metrics.count("service_requests_total", route=route)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<RequestGateway submitted={self.submitted} "
                f"queue={self.queue.depth}>")
