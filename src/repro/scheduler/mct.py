"""Min-Completion-Time (MCT) Scheduler — the SmartNet family (paper §5).

"SmartNet provides scheduling frameworks for heterogeneous resources" —
its core heuristics assign each task to the machine that minimizes the
task's *expected completion time*, accounting for work already assigned.
The paper positions SmartNet as complementary (usable inside Legion); this
Scheduler is exactly that: the SmartNet MCT heuristic expressed as a
drop-in Legion Scheduler, using Collection state plus the class's declared
work estimate.

The greedy MCT loop: maintain a per-host "ready time" (when the host would
finish everything assigned so far); assign tasks, longest first (LPT
ordering improves the greedy bound), each to the host whose
``ready_time + work / effective_rate`` is minimal.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..collection.records import CollectionRecord
from ..naming.loid import LOID
from ..schedule.mapping import ScheduleMapping
from ..schedule.schedule import MasterSchedule, ScheduleRequestList
from .base import ObjectClassRequest, Scheduler

__all__ = ["MCTScheduler"]


class MCTScheduler(Scheduler):
    """Greedy LPT/min-completion-time placement with next-best variants."""

    #: next-best alternatives carried per entry
    N_VARIANTS = 2
    #: the class attribute that advertises per-instance work
    WORK_ATTR = "work_units"
    #: per-instance work of a class that advertises none
    DEFAULT_WORK = 1.0

    def _work_of(self, request: ObjectClassRequest) -> float:
        """Expected per-instance work: SmartNet's 'compute characteristics'
        — here taken from the class's attribute surface if present."""
        value = request.class_obj.attributes.get(self.WORK_ATTR)
        if value is None:
            return self.DEFAULT_WORK
        return float(value)

    def compute_schedule(self, requests: Sequence[ObjectClassRequest]
                         ) -> ScheduleRequestList:
        # expand to (request, work) task list, LPT order
        tasks: List[tuple] = []
        host_pool: Dict[LOID, CollectionRecord] = {}
        per_class_records: Dict[LOID, List[CollectionRecord]] = {}
        for request in requests:
            records = self.require_hosts(
                self.viable_hosts(request.class_obj), request.class_obj)
            per_class_records[request.class_obj.loid] = records
            for record in records:
                host_pool[record.member] = record
            work = self._work_of(request)
            for _ in range(request.count):
                tasks.append((work, request.class_obj))
        tasks.sort(key=lambda t: -t[0])  # longest processing time first

        ready: Dict[LOID, float] = {loid: 0.0 for loid in host_pool}
        candidates: List[List[ScheduleMapping]] = []
        for work, class_obj in tasks:
            records = per_class_records[class_obj.loid]

            def completion(record: CollectionRecord) -> float:
                return (ready[record.member]
                        + work / max(self._rate_of(record), 1e-9))

            ranked = sorted(records, key=lambda r: (completion(r),
                                                    r.member))
            best = ranked[0]
            ready[best.member] += work / max(self._rate_of(best), 1e-9)
            candidates.append(self.candidates_for(
                class_obj, ranked[: 1 + self.N_VARIANTS]))

        master = MasterSchedule.from_candidates(candidates, "mct",
                                                "mct-alt-{}")
        return ScheduleRequestList([master], label="mct")
