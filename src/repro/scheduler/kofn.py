"""k-out-of-n Scheduler (paper section 3.3, future work).

"We will also support 'k out of n' scheduling, where the Scheduler specifies
an equivalence class of n resources and asks the Enactor to start k
instances of the same object on them."

The scheduler emits one master schedule whose entries name an equivalence
class of ``n`` viable (Host, Vault) pairs, with ``required_k = k``; the
Enactor (which implements the k-of-n admission rule) keeps the first k
reservations it obtains and cancels the rest.  This tolerates stale
Collection data and host failures without any variant machinery — the E15
experiment compares it against exact placement under failures.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import SchedulingError
from ..schedule.mapping import ScheduleMapping
from ..schedule.schedule import MasterSchedule, ScheduleRequestList
from .base import ObjectClassRequest, Scheduler

__all__ = ["KofNScheduler"]


class KofNScheduler(Scheduler):
    """Equivalence-class scheduling: reserve n, keep k."""

    #: most reservations requested for one equivalence class
    MAX_N = 64

    def __init__(self, *args, overprovision: float = 2.0, **kwargs):
        super().__init__(*args, **kwargs)
        if overprovision < 1.0:
            raise ValueError("overprovision must be >= 1.0")
        self.overprovision = overprovision

    def compute_schedule(self, requests: Sequence[ObjectClassRequest]
                         ) -> ScheduleRequestList:
        masters: List[MasterSchedule] = []
        for request in requests:
            class_obj = request.class_obj
            records = self.viable_hosts(class_obj)
            if not records:
                raise SchedulingError(
                    f"no viable hosts for class {class_obj.name!r}")
            k = request.count
            n = min(self.MAX_N, max(k, int(round(k * self.overprovision))),
                    len(records) if len(records) >= k else
                    max(k, len(records)))
            if len(records) < k:
                raise SchedulingError(
                    f"need {k} hosts, Collection knows only "
                    f"{len(records)} viable")
            # random sample without replacement forms the equivalence class
            idx = self.rng.permutation(len(records))[:n]
            entries: List[ScheduleMapping] = []
            for i in idx:
                record = records[int(i)]
                vaults = self.compatible_vaults_of(record)
                if not vaults:
                    continue
                entries.append(ScheduleMapping(
                    class_loid=class_obj.loid, host_loid=record.member,
                    vault_loid=vaults[0]))
            if len(entries) < k:
                raise SchedulingError(
                    f"only {len(entries)} usable equivalence-class members "
                    f"for k={k}")
            masters.append(MasterSchedule(entries, required_k=k,
                                          label=f"kofn-{k}-of-"
                                                f"{len(entries)}"))
        return ScheduleRequestList(masters, label="kofn")
