"""ServiceRequest: one user placement request moving through the tier.

A request's state changes only in :meth:`ServiceRequest.apply`, which
fires one journal event (the vocabulary of
:mod:`~repro.recovery.journal`): the live tier calls it through
:meth:`~repro.service.gateway.RequestGateway.transition`, which journals
the event first, and journal replay calls it for each logged entry.
:data:`FIRES_FROM` is the spec.  No row lists a terminal state, so a
request reaches exactly one of them and then never moves again.

Shed/rejected/cancelled requests stay in the gateway's registry — they
are *counted, not lost*: ``status`` answers for them forever, which is
what the backpressure-correctness tests pin.

With the recovery layer on, the Supervisor re-enqueues a PLACING
request whose worker crashed when its lease expires.  A cancel that
arrives after a worker popped the request sets ``cancel_requested``;
the worker (or the Supervisor, if the worker dies first) honours it at
its next claim-time check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional

from ..errors import RequestStateError

__all__ = [
    "QUEUED", "DEFERRED", "PLACING", "PLACED", "FAILED", "SHED",
    "REJECTED", "CANCELLED", "TERMINAL_STATES", "FIRES_FROM",
    "ServiceRequest", "RouteResult",
]

QUEUED = "queued"
DEFERRED = "deferred"
PLACING = "placing"
PLACED = "placed"
FAILED = "failed"
SHED = "shed"
REJECTED = "rejected"
CANCELLED = "cancelled"

#: states a request never leaves
TERMINAL_STATES = frozenset({PLACED, FAILED, SHED, REJECTED, CANCELLED})

#: the request state machine: event -> the states it may fire from.
#: ``submit`` has no row (the constructor is the submit: a new request
#: starts QUEUED) and no row lists a terminal state
FIRES_FROM: Dict[str, FrozenSet[str]] = {
    "admission_rej": frozenset({QUEUED}),      # a finish(REJECTED) follows
    "enqueue": frozenset({QUEUED, DEFERRED}),  # -> QUEUED
    "defer": frozenset({QUEUED, DEFERRED}),    # -> DEFERRED
    "claim": frozenset({QUEUED}),              # -> PLACING
    "attempt": frozenset({PLACING}),
    "cancel_flag": frozenset({QUEUED, PLACING}),
    "expire": frozenset({PLACING}),            # a requeue or finish follows
    "requeue": frozenset({PLACING}),           # -> QUEUED
    "finish": frozenset({QUEUED, DEFERRED, PLACING}),  # -> terminal
}


class ServiceRequest:
    """One submit moving through gateway → queue → worker."""

    __slots__ = ("request_id", "user", "count", "priority", "work",
                 "state", "submitted_at", "enqueued_at", "started_at",
                 "finished_at", "worker", "attempts", "defers", "detail",
                 "created", "cancel_requested", "requeues")

    def __init__(self, request_id: str, user: str, count: int = 1,
                 priority: int = 0, work: Optional[float] = None,
                 submitted_at: float = 0.0):
        self.request_id = request_id
        self.user = user
        self.count = count
        self.priority = priority
        self.work = work
        self.state = QUEUED
        self.submitted_at = submitted_at
        self.enqueued_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.worker: Optional[int] = None
        self.attempts = 0
        self.defers = 0
        self.detail = ""
        self.created: List[str] = []
        #: a cancel arrived after a worker claimed it; honoured at the
        #: next claim-time check instead of racing the placement
        self.cancel_requested = False
        #: times the Supervisor re-enqueued it after a lease expiry
        self.requeues = 0

    def apply(self, event: str, t: float, data: Mapping[str, Any]) -> None:
        """Fire journal ``event`` at virtual time ``t``: the only code
        that changes a request's state (see :data:`FIRES_FROM`)."""
        if self.state in TERMINAL_STATES:
            raise RequestStateError(
                f"{self.request_id} is already terminal ({self.state}); "
                f"{event!r} cannot fire")
        if self.state not in FIRES_FROM.get(event, ()):
            raise RequestStateError(
                f"{self.request_id}: {event!r} cannot fire from "
                f"{self.state!r}")
        if event == "enqueue" or event == "requeue":
            self.state = QUEUED
            self.enqueued_at = t
            if event == "requeue":
                self.worker = None
                self.requeues = data["requeues"]
        elif event == "claim":
            self.state = PLACING
            self.started_at = t
            self.worker = data["worker"]
        elif event == "attempt":
            self.attempts = data["attempt"]
        elif event == "finish":
            self.state = data["state"]
            self.finished_at = t
            self.detail = data["detail"]
            self.created = list(data["created"])
        elif event == "defer":
            self.state = DEFERRED
            self.defers = data["defers"]
        elif event == "cancel_flag":
            self.cancel_requested = True

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def e2e_latency(self) -> Optional[float]:
        """Submit→placed latency (None unless the request was placed)."""
        if self.state != PLACED or self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_dict(self) -> Dict[str, Any]:
        return {
            "request_id": self.request_id,
            "user": self.user,
            "count": self.count,
            "priority": self.priority,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "enqueued_at": self.enqueued_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "worker": self.worker,
            "attempts": self.attempts,
            "defers": self.defers,
            "detail": self.detail,
            "created": list(self.created),
            "cancel_requested": self.cancel_requested,
            "requeues": self.requeues,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<ServiceRequest {self.request_id} user={self.user} "
                f"state={self.state} prio={self.priority}>")


@dataclass(frozen=True)
class RouteResult:
    """What a gateway route returns to the caller (a typed response)."""

    route: str            # "submit" | "status" | "cancel"
    ok: bool
    request_id: str = ""
    state: str = ""
    detail: str = ""
    snapshot: Optional[Dict[str, Any]] = field(default=None)

    def __bool__(self) -> bool:
        return self.ok
