"""Round-robin Scheduler: a deterministic baseline between Random and the
load-aware policy.  Instances are dealt across the viable hosts in LOID
order, remembering the rotation point across calls so successive requests
keep spreading."""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..schedule.mapping import ScheduleMapping
from ..schedule.schedule import MasterSchedule, ScheduleRequestList
from .base import ObjectClassRequest, Scheduler

__all__ = ["RoundRobinScheduler"]


class RoundRobinScheduler(Scheduler):
    """Deal instances across viable hosts in a stable rotation."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cursor: Dict[str, int] = {}

    def compute_schedule(self, requests: Sequence[ObjectClassRequest]
                         ) -> ScheduleRequestList:
        # per entry: the host at the cursor, then the next one round
        candidates: List[List[ScheduleMapping]] = []
        for request in requests:
            class_obj = request.class_obj
            records = self.require_hosts(
                sorted(self.viable_hosts(class_obj), key=lambda r: r.member),
                class_obj)
            key = str(class_obj.loid)
            cursor = self._cursor.get(key, 0)
            for _i in range(request.count):
                candidates.append(self.candidates_for(class_obj, [
                    records[cursor % len(records)],
                    records[(cursor + 1) % len(records)]]))
                cursor += 1
            self._cursor[key] = cursor

        master = MasterSchedule.from_candidates(candidates, "round-robin",
                                                "rr-next")
        return ScheduleRequestList([master], label="round-robin")
