"""The Random Scheduling Policy (paper section 4.1, Fig. 7).

"The Random Scheduling Policy, as the name implies, randomly selects from
the available resources that appear to be able to run the task.  There is no
consideration of load, speed, memory contention, communication patterns, or
other factors that might affect the completion time of the task.  The goal
here is simplicity, not performance."

The structure below is a line-for-line realization of the Fig. 7 pseudocode:
one master schedule, no variants, no multiple schedules — "the equivalent of
the default schedule generator for Legion Classes in releases prior to 1.5."
"""

from __future__ import annotations

from typing import List, Sequence

from ..schedule.mapping import ScheduleMapping
from ..schedule.schedule import MasterSchedule, ScheduleRequestList
from .base import ObjectClassRequest, Scheduler

__all__ = ["RandomScheduler"]


class RandomScheduler(Scheduler):
    """Generate_Random_Placement (Fig. 7)."""

    def compute_schedule(self, requests: Sequence[ObjectClassRequest]
                         ) -> ScheduleRequestList:
        mappings: List[ScheduleMapping] = []
        for request in requests:                 # for each ObjectClass O
            class_obj = request.class_obj
            # query the class for available implementations;
            # query Collection for Hosts matching available implementations
            records = self.require_hosts(self.viable_hosts(class_obj),
                                         class_obj)
            for _i in range(request.count):      # for i := 1 to k
                record = records[self.rng.integers(0, len(records))]
                vaults = self.require_vaults(
                    record, self.compatible_vaults_of(record))
                vault = vaults[self.rng.integers(0, len(vaults))]
                mappings.append(ScheduleMapping(
                    class_loid=class_obj.loid,
                    host_loid=self.host_loid_of(record),
                    vault_loid=vault))
        master = MasterSchedule(mappings, label="random")
        return ScheduleRequestList([master], label="random")
