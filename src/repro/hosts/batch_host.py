"""Batch Queue Host Objects — mediators between Legion and queue systems.

Paper section 3.1: "most batch processing systems do not understand
reservations, and so our basic Batch Queue Host maintains reservations in a
fashion similar to the Unix Host Object.  A Batch Queue Host for a system
that does support reservations, such as the Maui Scheduler, could take
advantage of the underlying facilities and pass the job of managing
reservations through to the queuing system."

Both modes are implemented:

* wrapping a :class:`~repro.queues.fcfs.FCFSQueue` or
  :class:`~repro.queues.condor.CondorPool` (no native reservations), the
  host keeps the token ledger itself and submission order provides only
  best-effort service — "our real ability to coordinate large applications
  running across multiple queuing systems will be limited by the
  functionality of the underlying queuing system";
* wrapping a :class:`~repro.queues.backfill.BackfillQueue`, each Legion
  reservation is backed by a native advance reservation, and StartObject
  claims that window for immediate execution.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import ObjectStateError, ReservationDeniedError
from ..naming.loid import LOID
from ..objects.base import LegionObject
from ..queues.backfill import AdvanceReservation, BackfillQueue
from ..queues.base import JobState, QueueJob, QueueSystem
from .host_object import HostObject, PlacedObject
from .machine import SimMachine
from .reservations import INSTANTANEOUS, ReservationToken, ReservationType

__all__ = ["BatchQueueHost"]


class BatchQueueHost(HostObject):
    """Host Object fronting a whole queue-managed cluster.

    ``machine`` is the cluster's front-end/login node (it provides the
    network location and the host attribute surface); compute happens on the
    queue system's nodes.
    """

    __slots__ = ("queue", "max_queue_length", "_queue_jobs",
                 "_native_reservations")

    def __init__(self, loid: LOID, machine: SimMachine, sim, queue: QueueSystem,
                 max_queue_length: int = 1000, **kwargs):
        kwargs.setdefault("slots", max_queue_length)
        # set before super().__init__, which calls reassess()
        self.queue = queue
        self.max_queue_length = max_queue_length
        self._queue_jobs: Dict[LOID, QueueJob] = {}
        self._native_reservations: Dict[int, AdvanceReservation] = {}
        super().__init__(loid, machine, sim, **kwargs)

    # -- reservations -----------------------------------------------------------
    def _grant_reservation(self, vault_loid: LOID, class_loid: LOID,
                           rtype: ReservationType = None,  # type: ignore[assignment]
                           start_time: float = INSTANTANEOUS,
                           duration: float = 3600.0,
                           timeout: float = 60.0,
                           requester_domain: str = "",
                           now: Optional[float] = None) -> ReservationToken:
        from .reservations import REUSABLE_TIME
        if rtype is None:
            rtype = REUSABLE_TIME
        now = self.sim.now if now is None else now
        if self.queue.queue_length >= self.max_queue_length:
            raise ReservationDeniedError(
                f"host {self.loid}: queue full "
                f"({self.queue.queue_length} jobs)")
        token = super()._grant_reservation(
            vault_loid, class_loid, rtype=rtype, start_time=start_time,
            duration=duration, timeout=timeout,
            requester_domain=requester_domain, now=now)
        if self.queue.supports_reservations:
            # pass-through: back the token with a native advance reservation
            start = now if start_time == INSTANTANEOUS else start_time
            try:
                native = self.queue.reserve(  # type: ignore[attr-defined]
                    nodes=1, start=start, duration=duration)
            except ReservationDeniedError:
                self.reservations.cancel_reservation(token, now)
                raise
            self._native_reservations[token.token_id] = native
        return token

    def cancel_reservation(self, token: ReservationToken,
                           now: Optional[float] = None) -> None:
        super().cancel_reservation(token, now=now)
        native = self._native_reservations.pop(token.token_id, None)
        if native is not None and isinstance(self.queue, BackfillQueue):
            self.queue.release(native)

    # -- execution ----------------------------------------------------------------
    def _execute(self, instance: LegionObject, vault_loid: LOID,
                 now: float) -> PlacedObject:
        work = float(instance.attributes.get("work_units", 1.0))
        memory = float(instance.attributes.get("memory_mb", 32.0))
        estimate = instance.attributes.get("estimated_runtime")
        qjob = QueueJob(
            work=work, nodes=1, memory_mb=memory,
            estimated_runtime=(float(estimate) if estimate is not None
                               else None),
            name=str(instance.loid),
            on_complete=lambda j, o=instance: self._queue_job_finished(o, j))
        self._queue_jobs[instance.loid] = qjob
        self.queue.submit(qjob)
        return PlacedObject(instance=instance, vault_loid=vault_loid,
                            job=None, started_at=now)

    def start_object(self, instance: LegionObject, vault_loid: LOID,
                     reservation_token: Optional[ReservationToken] = None,
                     now: Optional[float] = None):
        result = super().start_object(instance, vault_loid,
                                      reservation_token, now=now)
        if (result.ok and reservation_token is not None
                and reservation_token.token_id in self._native_reservations
                and isinstance(self.queue, BackfillQueue)):
            # claim the native window so the job starts inside it
            native = self._native_reservations.pop(
                reservation_token.token_id)
            qjob = self._queue_jobs.get(instance.loid)
            if qjob is not None and qjob.state == JobState.QUEUED:
                self.queue.claim(native, qjob)
        return result

    def _queue_job_finished(self, instance: LegionObject,
                            qjob: QueueJob) -> None:
        now = self.sim.now
        instance.attributes.set("completed_at", now, now=now)
        self.placed.pop(instance.loid, None)
        self._queue_jobs.pop(instance.loid, None)
        if self.on_object_complete is not None:
            self.on_object_complete(instance, now)

    def kill_object(self, loid: LOID, now: Optional[float] = None) -> None:
        qjob = self._queue_jobs.pop(loid, None)
        if qjob is not None and qjob.state in (JobState.QUEUED,
                                               JobState.RUNNING,
                                               JobState.VACATED):
            self.queue.cancel(qjob)
        self.placed.pop(loid, None)

    def deactivate_object(self, loid: LOID, now: Optional[float] = None):
        now = self.sim.now if now is None else now
        placed = self.placed.pop(loid, None)
        if placed is None:
            raise ObjectStateError(f"{loid} is not placed on {self.loid}")
        qjob = self._queue_jobs.pop(loid, None)
        remaining = 0.0
        if qjob is not None:
            if qjob.state == JobState.RUNNING:
                self.queue.cancel(qjob)
            elif qjob.state == JobState.QUEUED:
                self.queue.cancel(qjob)
            remaining = qjob.remaining_work
        instance = placed.instance
        instance.attributes.set("work_units", remaining, now=now)
        opr = instance.deactivate(now=now)
        return opr, remaining

    # -- attributes -------------------------------------------------------------------
    def _descriptor_sources(self) -> tuple:
        queue = self.queue
        return super()._descriptor_sources() + (
            queue.name, queue.total_nodes, queue.supports_reservations)

    def _descriptor_attributes(self) -> Dict[str, Any]:
        attributes = super()._descriptor_attributes()
        attributes.update({
            "host_kind": "batch",
            "queue_name": self.queue.name,
            "queue_length": None,
            "queue_free_nodes": None,
            "queue_total_nodes": self.queue.total_nodes,
            "queue_supports_reservations":
                self.queue.supports_reservations,
        })
        return attributes

    def _dynamic_attributes(self, load: float) -> Dict[str, Any]:
        attributes = super()._dynamic_attributes(load)
        attributes["queue_length"] = self.queue.queue_length
        attributes["queue_free_nodes"] = self.queue.free_nodes
        return attributes
