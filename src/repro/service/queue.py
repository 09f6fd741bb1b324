"""PlacementQueue: the bounded, priority-aware backlog of the service.

A binary heap ordered by ``(-priority, seq)`` — higher priority first,
strict FIFO within a priority level (``seq`` is the admission serial, so
ordering is deterministic).  The queue owns the *decision* side of
backpressure: :meth:`offer` returns a disposition string and the gateway
owns the timing side (scheduling deferred re-offers on the sim kernel).

Invariants (pinned by the hypothesis property in
``tests/test_service.py``):

* ``depth <= cap`` always holds when the queue is bounded;
* every offered request is accounted for exactly once —
  ``enqueued == popped + cancelled + depth`` and
  ``offered == enqueued + shed + rejected + deferred`` (a deferred
  offer is re-offered later and then counted under its final
  disposition).

Cancellation is lazy: :meth:`cancel` marks the id and :meth:`pop` skips
marked entries, so cancelling costs O(1) and never perturbs heap order.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Set, Tuple

from ..obs.registry import NULL_METRICS
from .config import ServiceConfig
from .request import ServiceRequest

__all__ = ["PlacementQueue"]

#: :meth:`PlacementQueue.offer` dispositions
ENQUEUED = "enqueued"
SHED = "shed"
REJECTED = "rejected"
DEFERRED = "deferred"

#: the cumulative statistics a checkpoint carries and ``stats()`` reports
_COUNTERS = ("peak_depth", "offered", "enqueued", "popped", "shed",
             "rejected", "deferred", "cancelled")


class PlacementQueue:
    """Bounded priority backlog between the gateway and the worker pool."""

    def __init__(self, cap: int = 0, backpressure: str = "shed",
                 metrics: Any = NULL_METRICS):
        ServiceConfig(queue_cap=cap, backpressure=backpressure)  # validate
        self.cap = cap
        self.backpressure = backpressure
        self.metrics = metrics
        self._heap: List[Tuple[int, int, ServiceRequest]] = []
        self._seq = itertools.count()
        self._cancelled: Set[str] = set()
        #: live entries (heap minus lazily-cancelled ones)
        self._depth = 0
        self.peak_depth = 0
        self.offered = 0
        self.enqueued = 0
        self.popped = 0
        self.shed = 0
        self.rejected = 0
        self.deferred = 0
        self.cancelled = 0
        #: called after every enqueue (``offer`` or ``requeue``); the
        #: worker pool installs its wake-up here
        self.on_enqueue: Callable[[], None] = lambda: None
        metrics.gauge_fn("service_queue_depth",
                         lambda: float(self._depth),
                         help="placement requests waiting in the bounded "
                              "backlog")
        metrics.gauge_fn("service_queue_peak_depth",
                         lambda: float(self.peak_depth),
                         help="high-water mark of the backlog")

    # -- state ----------------------------------------------------------------
    @property
    def depth(self) -> int:
        return self._depth

    @property
    def full(self) -> bool:
        return self.cap > 0 and self._depth >= self.cap

    def __len__(self) -> int:
        return self._depth

    # -- offer / pop ----------------------------------------------------------
    def offer(self, request: ServiceRequest,
              final: bool = False) -> str:
        """Try to admit ``request``; returns its disposition.

        ``final=True`` (a deferred request out of re-offers) downgrades a
        would-be ``deferred`` disposition to ``shed`` — defer is a delay,
        not an infinite loop.  Dispositions: ``"enqueued"`` | ``"shed"``
        | ``"rejected"`` | ``"deferred"``.
        """
        self.offered += 1
        if self.full:
            if self.backpressure == "defer" and not final:
                self.deferred += 1
                self._count("deferred")
                return DEFERRED
            if self.backpressure == "reject":
                self.rejected += 1
                self._count("rejected")
                return REJECTED
            self.shed += 1
            self._count("shed")
            return SHED
        self._push(request)
        return ENQUEUED

    def requeue(self, request: ServiceRequest) -> str:
        """Force a recovered orphan back in, bypassing the cap.

        Used only by the recovery Supervisor: a request that was already
        admitted once must not be shed on its way back from a worker
        crash ("no lost requests"), so the cap — an *admission* control —
        does not apply.  Accounting stays exactly-once: the entry counts
        as offered + enqueued again, matching the extra pop it will get.
        """
        self.offered += 1
        self._count("requeued")
        self._push(request)
        return ENQUEUED

    def _push(self, request: ServiceRequest) -> None:
        heappush(self._heap, (-request.priority, next(self._seq), request))
        self._depth += 1
        self.enqueued += 1
        if self._depth > self.peak_depth:
            self.peak_depth = self._depth
        self.on_enqueue()

    def pop(self) -> Optional[ServiceRequest]:
        """Highest-priority, oldest request — or None when drained."""
        while self._heap:
            _nprio, _seq, request = heappop(self._heap)
            if request.request_id in self._cancelled:
                self._cancelled.discard(request.request_id)
                continue
            self._depth -= 1
            self.popped += 1
            return request
        return None

    def cancel(self, request_id: str) -> bool:
        """Lazily remove a queued request; True if it was waiting."""
        for _nprio, _seq, request in self._heap:
            if (request.request_id == request_id
                    and request_id not in self._cancelled):
                self._cancelled.add(request_id)
                self._depth -= 1
                self.cancelled += 1
                return True
        return False

    def snapshot_entries(self) -> List[Tuple[int, str]]:
        """Live ``(priority, request_id)`` entries in pop order (heap
        order minus lazily-cancelled ids) — the canonical queue state
        the journal replay reconstructs."""
        return [(request.priority, request.request_id)
                for _nprio, _seq, request in sorted(self._heap)
                if request.request_id not in self._cancelled]

    # -- checkpoint -----------------------------------------------------------
    def snapshot(self) -> dict:
        """Cumulative statistics + heap serial for checkpoint/restore."""
        doc = {name: getattr(self, name) for name in _COUNTERS}
        doc["seq"] = self.enqueued  # serials are only drawn on push
        return doc

    def restore(self, doc: dict) -> None:
        """Continue counting where a checkpointed queue left off."""
        for name in _COUNTERS:
            setattr(self, name, doc[name])
        self._seq = itertools.count(doc["seq"])

    # -- metrics --------------------------------------------------------------
    def _count(self, disposition: str) -> None:
        self.metrics.count("service_backpressure_total", mode=disposition)

    def stats(self) -> dict:
        doc = {"cap": self.cap, "backpressure": self.backpressure,
               "depth": self._depth, **self.snapshot()}
        del doc["seq"]
        return doc

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<PlacementQueue depth={self._depth}/"
                f"{self.cap or 'inf'} mode={self.backpressure} "
                f"peak={self.peak_depth}>")
