"""Cost-aware scheduling: cheapest placement subject to a deadline.

"Users want to optimize factors such as application throughput,
turnaround time, or cost" (paper section 1).  This Scheduler optimizes
cost under a turnaround constraint: among viable hosts whose *estimated*
completion time for the class's advertised work meets the deadline, pick
the cheapest (price per cycle, from the Collection); spill to faster,
pricier hosts only when the deadline demands it.  Variants carry the
next-cheapest feasible alternatives.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..collection.records import CollectionRecord
from ..naming.loid import LOID
from ..schedule.mapping import ScheduleMapping
from ..schedule.schedule import MasterSchedule, ScheduleRequestList
from ..scheduler.base import ObjectClassRequest, Scheduler

__all__ = ["CostAwareScheduler"]


class CostAwareScheduler(Scheduler):
    """Cheapest-feasible placement under a per-instance deadline."""

    #: fallback alternatives carried per entry
    N_VARIANTS = 2
    #: the class attribute that advertises per-instance work
    WORK_ATTR = "work_units"
    #: per-instance work of a class that advertises none
    DEFAULT_WORK = 1.0

    def __init__(self, *args, deadline: float = float("inf"), **kwargs):
        super().__init__(*args, **kwargs)
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        self.deadline = deadline

    # -- estimates ----------------------------------------------------------
    def _price_of(self, record: CollectionRecord) -> float:
        return float(record.get("host_price", 0.0))

    def _work_of(self, request: ObjectClassRequest) -> float:
        value = request.class_obj.attributes.get(self.WORK_ATTR)
        return float(value) if value is not None else self.DEFAULT_WORK

    def estimated_completion(self, record: CollectionRecord,
                             work: float, queued: int = 0) -> float:
        """Completion estimate if placed now behind ``queued`` of our own
        earlier assignments on the same host."""
        return (queued + 1) * work / max(self._rate_of(record), 1e-9)

    def estimated_cost(self, record: CollectionRecord,
                       work: float) -> float:
        return self._price_of(record) * work

    # -- placement ------------------------------------------------------------
    def compute_schedule(self, requests: Sequence[ObjectClassRequest]
                         ) -> ScheduleRequestList:
        candidates: List[List[ScheduleMapping]] = []
        assigned: Dict[LOID, int] = {}
        for request in requests:
            class_obj = request.class_obj
            records = self.viable_hosts(class_obj,
                                        extra_query="$host_slots_free > 0")
            # belt-and-braces: viable_hosts already drops DOWN records,
            # but results that arrive through an overridden/stale lookup
            # path (e.g. a federation query cache) must never let a dead
            # host win the cheapest-feasible ranking
            records = self.require_hosts(
                [r for r in records if r.get("host_health") != "down"],
                class_obj)
            work = self._work_of(request)
            for _i in range(request.count):
                feasible = [
                    r for r in records
                    if self.estimated_completion(
                        r, work, assigned.get(r.member, 0))
                    <= self.deadline]
                if feasible:
                    # cheapest feasible; ties -> least already assigned
                    # (spread), then faster, then LOID
                    ranked = sorted(
                        feasible,
                        key=lambda r: (self.estimated_cost(r, work),
                                       assigned.get(r.member, 0),
                                       -self._rate_of(r), r.member))
                else:
                    # deadline unreachable: degrade to fastest available
                    ranked = sorted(
                        records,
                        key=lambda r: (self.estimated_completion(
                            r, work, assigned.get(r.member, 0)),
                            self.estimated_cost(r, work), r.member))
                best = ranked[0]
                assigned[best.member] = assigned.get(best.member, 0) + 1
                candidates.append(self.candidates_for(
                    class_obj, ranked[: 1 + self.N_VARIANTS]))

        master = MasterSchedule.from_candidates(candidates, "cost-aware",
                                                "cost-alt-{}")
        return ScheduleRequestList([master], label="cost-aware")
