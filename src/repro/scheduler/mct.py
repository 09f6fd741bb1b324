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
from ..errors import SchedulingError
from ..naming.loid import LOID
from ..schedule.mapping import ScheduleMapping
from ..schedule.schedule import (
    MasterSchedule,
    ScheduleRequestList,
    VariantSchedule,
)
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

    def _rate_of(self, record: CollectionRecord) -> float:
        speed = float(record.get("host_speed", 1.0))
        load = float(record.get("host_load", 0.0))
        return speed / (1.0 + max(0.0, load))

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
            records = self.viable_hosts(request.class_obj)
            if not records:
                raise SchedulingError(
                    f"no viable hosts for class "
                    f"{request.class_obj.name!r}")
            per_class_records[request.class_obj.loid] = records
            for record in records:
                host_pool[record.member] = record
            work = self._work_of(request)
            for _ in range(request.count):
                tasks.append((work, request.class_obj))
        tasks.sort(key=lambda t: -t[0])  # longest processing time first

        ready: Dict[LOID, float] = {loid: 0.0 for loid in host_pool}
        entries: List[ScheduleMapping] = []
        alternates: List[List[ScheduleMapping]] = []
        order: List[int] = []  # original task order -> entry index
        for work, class_obj in tasks:
            records = per_class_records[class_obj.loid]

            def completion(record: CollectionRecord) -> float:
                return (ready[record.member]
                        + work / max(self._rate_of(record), 1e-9))

            ranked = sorted(records, key=lambda r: (completion(r),
                                                    r.member))
            best = ranked[0]
            ready[best.member] += work / max(self._rate_of(best), 1e-9)
            vaults = self.compatible_vaults_of(best)
            if not vaults:
                raise SchedulingError(
                    f"host {best.member} advertises no compatible vaults")
            entries.append(ScheduleMapping(class_obj.loid, best.member,
                                           vaults[0]))
            alts = []
            for record in ranked[1: 1 + self.N_VARIANTS]:
                v = self.compatible_vaults_of(record)
                if v:
                    alts.append(ScheduleMapping(class_obj.loid,
                                                record.member, v[0]))
            alternates.append(alts)

        master = MasterSchedule(entries, label="mct")
        for v in range(self.N_VARIANTS):
            replacements = {}
            for j, alts in enumerate(alternates):
                if v < len(alts) and not alts[v].same_target(entries[j]):
                    replacements[j] = alts[v]
            if replacements:
                master.add_variant(VariantSchedule(
                    replacements, label=f"mct-alt-{v + 1}"))
        return ScheduleRequestList([master], label="mct")
