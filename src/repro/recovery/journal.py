"""RequestJournal: write-ahead log of every request state transition.

OAR (PAPERS.md) keeps the scheduler's entire state in a durable store so
the scheduler process can be killed and restarted without losing work.
The journal is this reproduction's equivalent: every live transition
goes through :meth:`~repro.service.gateway.RequestGateway.transition`,
which records it here *before*
:meth:`~repro.service.request.ServiceRequest.apply` acts on it, and
:func:`RequestJournal.replay` fires the same entries through the same
``apply`` — so the replayed request registry and live queue content are
byte-identical to a live snapshot
(:meth:`RequestJournal.snapshot_state`), which is what the
checkpoint/restore path and the replay tests pin.

Event vocabulary (one entry per transition, in admission order):

=================  ==========================================================
``submit``         request minted (``user/count/priority/work``)
``admission_rej``  front-door admission refused it (a ``finish`` follows)
``enqueue``        admitted into the placement queue (live from here)
``defer``          backlog full, re-offer scheduled (``defers`` = count so far)
``claim``          a worker popped it (``worker`` = index)
``attempt``        one ``Scheduler.run`` try (``attempt`` = 1-based number)
``cancel_flag``    cancel arrived after claim; worker/supervisor honours it
``expire``         the owning lease expired (worker crash detected)
``requeue``        Supervisor re-enqueued the orphan (``requeues`` = count)
``finish``         terminal state reached (``state/detail/created``)
=================  ==========================================================

Queue *counters* (offered/shed/...) are deliberately not journalled —
they are cumulative statistics, carried by the checkpoint, not state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..errors import RecoveryError, RequestStateError
from ..obs.registry import NULL_METRICS
from ..service.request import QUEUED, ServiceRequest

__all__ = ["JournalEntry", "RequestJournal"]

#: journal event names (kept short; they appear once per transition)
EVENTS = ("submit", "admission_rej", "enqueue", "defer", "claim",
          "attempt", "cancel_flag", "expire", "requeue", "finish")


class JournalEntry:
    """One logged transition."""

    __slots__ = ("seq", "t", "event", "request_id", "data")

    def __init__(self, seq: int, t: float, event: str, request_id: str,
                 data: Dict[str, Any]):
        self.seq = seq
        self.t = t
        self.event = event
        self.request_id = request_id
        self.data = data

    def to_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "t": self.t, "event": self.event,
                "request_id": self.request_id, "data": dict(self.data)}

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "JournalEntry":
        return cls(int(doc["seq"]), float(doc["t"]), str(doc["event"]),
                   str(doc["request_id"]), dict(doc["data"]))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<JournalEntry #{self.seq} t={self.t:.3f} "
                f"{self.event} {self.request_id}>")


class RequestJournal:
    """Append-only write-ahead log for the service tier."""

    def __init__(self, clock: Callable[[], float],
                 metrics: Any = NULL_METRICS):
        self._clock = clock
        self.metrics = metrics
        self.entries: List[JournalEntry] = []
        metrics.gauge_fn("recovery_journal_entries",
                         lambda: float(len(self.entries)),
                         help="transitions recorded in the request journal")

    def __len__(self) -> int:
        return len(self.entries)

    # -- write path ---------------------------------------------------------
    def record(self, event: str, request_id: str,
               **data: Any) -> JournalEntry:
        """Append one transition (called *before* the transition acts)."""
        if event not in EVENTS:
            raise RecoveryError(f"unknown journal event {event!r}")
        entry = JournalEntry(len(self.entries), self._clock(), event,
                             request_id, data)
        self.entries.append(entry)
        self.metrics.count("recovery_journal_records_total", event=event)
        return entry

    # -- serialization ------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        return [e.to_dict() for e in self.entries]

    def load(self, docs: List[Dict[str, Any]]) -> None:
        """Replace the log with deserialized entries (restore path)."""
        self.entries = [JournalEntry.from_dict(d) for d in docs]

    # -- replay -------------------------------------------------------------
    @staticmethod
    def replay(entries: List[JournalEntry]
               ) -> Tuple[Dict[str, ServiceRequest],
                          List[Tuple[int, str]], Dict[str, int]]:
        """Fold the log into (requests, live queue entries, counters).

        ``requests`` maps id → a
        :class:`~repro.service.request.ServiceRequest` built from its
        ``submit`` entry, with every later entry fired through
        :meth:`~repro.service.request.ServiceRequest.apply` (an illegal
        transition raises :class:`~repro.errors.RecoveryError`);
        ``live`` lists ``(priority, request_id)`` of the QUEUED ones in
        pop order (higher priority first, then the serial of the last
        ``enqueue``/``requeue`` — exactly the order the live queue
        assigned its heap serials in); ``counters`` carries
        ``submitted`` and ``admission_rejections``.
        """
        requests: Dict[str, ServiceRequest] = {}
        serials: Dict[str, int] = {}
        admission_rejections = 0
        for i, e in enumerate(entries):
            if e.event == "submit":
                requests[e.request_id] = ServiceRequest(
                    request_id=e.request_id, user=e.data["user"],
                    count=e.data["count"], priority=e.data["priority"],
                    work=e.data["work"], submitted_at=e.t)
                continue
            request = requests.get(e.request_id)
            if request is None:
                raise RecoveryError(
                    f"journal entry #{e.seq} ({e.event}) references "
                    f"unknown request {e.request_id!r}")
            try:
                request.apply(e.event, e.t, e.data)
            except RequestStateError as exc:
                raise RecoveryError(f"journal entry #{e.seq}: {exc}") \
                    from exc
            if e.event == "admission_rej":
                admission_rejections += 1
            elif e.event in ("enqueue", "requeue"):
                serials[e.request_id] = i
        live = sorted((-requests[rid].priority, serial, rid)
                      for rid, serial in serials.items()
                      if requests[rid].state == QUEUED)
        return requests, [(-nprio, rid) for nprio, _serial, rid in live], {
            "submitted": len(requests),
            "admission_rejections": admission_rejections,
        }

    @staticmethod
    def _canonical(requests: Dict[str, ServiceRequest],
                   queue_entries: List[Tuple[int, str]],
                   counters: Dict[str, int]) -> Dict[str, Any]:
        """The JSON shape :meth:`snapshot_state` and :meth:`replay_state`
        share (compare with ``json.dumps`` for byte identity)."""
        return {"requests": {rid: req.to_dict()
                             for rid, req in sorted(requests.items())},
                "queue_entries": [[prio, rid] for prio, rid in queue_entries],
                **counters}

    @staticmethod
    def snapshot_state(gateway: Any, queue: Any) -> Dict[str, Any]:
        """Canonical view of the live gateway + queue state — the thing
        :meth:`replay` must reconstruct byte-identically."""
        return RequestJournal._canonical(
            gateway.requests, queue.snapshot_entries(), gateway.snapshot())

    @staticmethod
    def replay_state(entries: List[JournalEntry]) -> Dict[str, Any]:
        """Replay, in the same canonical shape as :meth:`snapshot_state`."""
        return RequestJournal._canonical(*RequestJournal.replay(entries))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RequestJournal entries={len(self.entries)}>"
