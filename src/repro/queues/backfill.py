"""EASY-backfill queue with advance reservations (the Maui family).

Two features matter to the Legion RMI:

* **backfill** — jobs behind the queue head may start early if (by their
  runtime *estimates*) they will not delay the head job's earliest start;
* **advance reservations** — external agents (a Batch Queue Host) can
  reserve ``nodes`` over ``[start, start+duration)``; the scheduler plans
  around these windows, which is what lets a reservation-aware Host "pass
  the job of managing reservations through to the queuing system"
  (paper section 3.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ReservationDeniedError
from .base import QueueJob, QueueSystem

__all__ = ["BackfillQueue", "AdvanceReservation"]


@dataclass(frozen=True)
class AdvanceReservation:
    """A block of nodes promised to an external agent for a time window."""

    res_id: int
    nodes: int
    start: float
    end: float


class BackfillQueue(QueueSystem):
    """EASY backfill + advance reservations."""

    supports_reservations = True

    _res_ids = itertools.count(1)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._reservations: Dict[int, AdvanceReservation] = {}
        self.backfilled_jobs = 0

    # -- advance reservations ------------------------------------------------
    def reserve(self, nodes: int, start: float,
                duration: float) -> AdvanceReservation:
        """Reserve ``nodes`` over ``[start, start+duration)`` or raise."""
        if nodes < 1 or nodes > self.total_nodes:
            raise ReservationDeniedError(
                f"{self.name}: cannot reserve {nodes} of "
                f"{self.total_nodes} nodes")
        if duration <= 0:
            raise ReservationDeniedError("non-positive duration")
        end = start + duration
        # nodes already promised in overlapping windows
        for t in self._boundaries(start, end):
            if self._reserved_at(t) + nodes > self.total_nodes:
                raise ReservationDeniedError(
                    f"{self.name}: {nodes} nodes not free at t={t}")
        res = AdvanceReservation(next(self._res_ids), nodes, start, end)
        self._reservations[res.res_id] = res
        return res

    def release(self, res: AdvanceReservation) -> None:
        self._reservations.pop(res.res_id, None)
        self._schedule_pass()

    def claim(self, res: AdvanceReservation, job: QueueJob) -> bool:
        """Run ``job`` immediately inside an active reservation window."""
        now = self.sim.now
        if res.res_id not in self._reservations:
            return False
        if not (res.start <= now < res.end) or job.nodes > res.nodes:
            return False
        if job.nodes > self.free_nodes:
            return False
        job.submitted_at = now
        self._start_job(job)
        # the claimed portion of the reservation is consumed
        self._reservations.pop(res.res_id, None)
        return True

    def _boundaries(self, start: float, end: float) -> List[float]:
        pts = {start}
        for r in self._reservations.values():
            if r.start < end and start < r.end:
                pts.add(max(r.start, start))
        return sorted(pts)

    def _reserved_at(self, t: float) -> int:
        return sum(r.nodes for r in self._reservations.values()
                   if r.start <= t < r.end)

    # -- scheduling ----------------------------------------------------------
    def _can_start_now(self, job: QueueJob) -> bool:
        """Enough free nodes now, clear of reservation windows the job's
        *estimated* runtime would collide with."""
        if job.nodes > self.free_nodes:
            return False
        now = self.sim.now
        finish = now + self._estimate_of(job)
        # conservative: over the job's estimated span, running jobs' nodes +
        # this job's nodes must fit beside reserved nodes at window starts
        for r in self._reservations.values():
            if r.start < finish and now < r.end:
                # job overlaps reservation window: the job + reservation
                # must both fit
                if self._busy_nodes + job.nodes + r.nodes > self.total_nodes:
                    return False
        return True

    def _head_shadow(self) -> Tuple[float, int]:
        """EASY planning for the head job: (shadow start time, spare nodes).

        Shadow time is when, assuming running jobs end at their estimates,
        enough nodes free up for the head; spare nodes are those left over
        at that moment (backfill jobs using <= spare nodes may run past the
        shadow time).
        """
        head = self.queued[0]
        now = self.sim.now
        ends = sorted(
            (((j.started_at if j.started_at is not None else now))
             + self._estimate_of(j), j.nodes)
            for j in self.running.values())
        free = self.free_nodes
        if head.nodes <= free:
            return now, free - head.nodes
        for t, nodes in ends:
            free += nodes
            if head.nodes <= free:
                return t, free - head.nodes
        return float("inf"), 0

    def _schedule_pass(self) -> None:
        progress = True
        while progress:
            progress = False
            if not self.queued:
                return
            head = self.queued[0]
            if self._can_start_now(head):
                self._start_job(head)
                progress = True
                continue
            # EASY backfill over the remainder of the queue
            shadow, spare = self._head_shadow()
            now = self.sim.now
            for job in list(self.queued[1:]):
                if not self._can_start_now(job):
                    continue
                est_end = now + self._estimate_of(job)
                if est_end <= shadow or job.nodes <= spare:
                    self._start_job(job)
                    self.backfilled_jobs += 1
                    if job.nodes <= spare:
                        spare -= job.nodes
                    progress = True
                    break  # recompute shadow after any start
