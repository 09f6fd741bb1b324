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
from ..errors import SchedulingError
from ..naming.loid import LOID
from ..schedule.mapping import ScheduleMapping
from ..schedule.schedule import (
    MasterSchedule,
    ScheduleRequestList,
    VariantSchedule,
)
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
    def _rate_of(self, record: CollectionRecord) -> float:
        speed = float(record.get("host_speed", 1.0))
        load = float(record.get("host_load", 0.0))
        return speed / (1.0 + max(0.0, load))

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
        entries: List[ScheduleMapping] = []
        alternates: List[List[ScheduleMapping]] = []
        assigned: Dict[LOID, int] = {}
        for request in requests:
            class_obj = request.class_obj
            records = self.viable_hosts(class_obj,
                                        extra_query="$host_slots_free > 0")
            # belt-and-braces: viable_hosts already drops DOWN records,
            # but results that arrive through an overridden/stale lookup
            # path (e.g. a federation query cache) must never let a dead
            # host win the cheapest-feasible ranking
            records = [r for r in records
                       if r.get("host_health") != "down"]
            if not records:
                raise SchedulingError(
                    f"no viable hosts for class {class_obj.name!r}")
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
                vaults = self.compatible_vaults_of(best)
                if not vaults:
                    raise SchedulingError(
                        f"host {best.member} advertises no compatible "
                        f"vaults")
                entries.append(ScheduleMapping(class_obj.loid, best.member,
                                               vaults[0]))
                alts = []
                for record in ranked[1: 1 + self.N_VARIANTS]:
                    v = self.compatible_vaults_of(record)
                    if v:
                        alts.append(ScheduleMapping(
                            class_obj.loid, record.member, v[0]))
                alternates.append(alts)

        master = MasterSchedule(entries, label="cost-aware")
        for v in range(self.N_VARIANTS):
            replacements = {
                j: alts[v] for j, alts in enumerate(alternates)
                if v < len(alts) and not alts[v].same_target(entries[j])}
            if replacements:
                master.add_variant(VariantSchedule(
                    replacements, label=f"cost-alt-{v + 1}"))
        return ScheduleRequestList([master], label="cost-aware")
