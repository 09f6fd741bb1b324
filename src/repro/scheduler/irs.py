"""The Improved Random Scheduler — IRS (paper section 4.2, Figs. 8-9).

"The improvement we focus on is not in the basic algorithm; the IRS still
selects a random Host and Vault pair.  Rather, we will compute multiple
schedules and accommodate negative feedback from the Enactor."

IRS_Gen_Placement (Fig. 8): generate ``n`` random mappings per object
instance with a *single* Collection lookup per class ("IRS does fewer
lookups in the Collection"); the master schedule takes the first mapping of
each instance, and variant ``l`` (l = 2..n) contains, for each instance, its
l-th mapping — but only those entries "that do not appear in the master
list".

IRS_Wrapper (Fig. 9): up to ``SchedTryLimit`` schedule generations, each
offered to the Enactor up to ``EnactTryLimit`` times; the base class
:meth:`~repro.scheduler.base.Scheduler.run` implements exactly this loop,
parameterized by the two limits.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..naming.loid import LOID
from ..schedule.mapping import ScheduleMapping
from ..schedule.schedule import MasterSchedule, ScheduleRequestList
from .base import ObjectClassRequest, Scheduler

__all__ = ["IRSScheduler"]


class IRSScheduler(Scheduler):
    """IRS_Gen_Placement + IRS_Wrapper."""

    def __init__(self, *args, n_schedules: int = 4,
                 sched_try_limit: int = 3, enact_try_limit: int = 2,
                 **kwargs):
        super().__init__(*args, **kwargs)
        if n_schedules < 1:
            raise ValueError("n_schedules (NSched) must be >= 1")
        #: NSched — mappings generated per object instance
        self.n_schedules = n_schedules
        # the Fig. 9 wrapper globals
        self.sched_try_limit = sched_try_limit
        self.enact_try_limit = enact_try_limit

    def _random_pair(self, records, parsed_vaults=None) -> Tuple[LOID, LOID]:
        i = self.rng.integers(0, len(records))
        record = records[i]
        vaults = (parsed_vaults[i] if parsed_vaults is not None
                  else self.compatible_vaults_of(record))
        if vaults is None:  # a cached record, parsed on its first draw
            vaults = parsed_vaults[i] = self._vaults_of(record,
                                                        self._vault_loid)
        self.require_vaults(record, vaults)
        # a draw from one choice returns it without consuming random bits
        # (tests/test_schedulers.py pins that), so it is not made
        vault = (vaults[0] if len(vaults) == 1
                 else vaults[self.rng.integers(0, len(vaults))])
        return self.host_loid_of(record), vault

    def compute_schedule(self, requests: Sequence[ObjectClassRequest]
                         ) -> ScheduleRequestList:
        n = self.n_schedules
        # per-instance candidate lists: instance_lists[j][l] is the l-th
        # mapping generated for instance j
        instance_lists: List[List[ScheduleMapping]] = []
        for request in requests:                    # for each ObjectClass O
            class_obj = request.class_obj
            # one Collection lookup per class, reused for all n candidates
            records, parsed_vaults = self.viable_hosts_and_vaults(class_obj)
            self.require_hosts(records, class_obj)
            for _i in range(request.count):         # for i := 1 to k
                instance_lists.append([             # for l := 1 to n
                    ScheduleMapping(class_obj.loid,
                                    *self._random_pair(records,
                                                       parsed_vaults))
                    for _l in range(n)])

        # master schedule = first item from each object instance list;
        # variant "irs-variant-l" = the (l+1)-th item of each, keeping
        # only entries that do not appear in the master list
        master = MasterSchedule.from_candidates(
            instance_lists, "irs-master", "irs-variant-{}")
        return ScheduleRequestList([master], label="irs")
