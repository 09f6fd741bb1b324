"""Load-aware Scheduler — one of the "smarter Schedulers" the paper's
conclusion promises to measure against Random.

Placement rule: rank viable hosts by expected per-job service rate
``speed / (1 + load)`` (descending) using Collection state — possibly stale;
that is the point of experiments E10/E11 — and assign instances to the best
hosts, spreading across hosts before doubling up.  Variants substitute the
next-best hosts, so Enactor feedback degrades gracefully instead of
recomputing from scratch.

An optional ``predicted_load_attr`` makes the ranking read an injected
(e.g. NWS-forecast) attribute instead of the raw ``host_load`` — the E14
experiment toggles exactly this.
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

__all__ = ["LoadAwareScheduler"]


class LoadAwareScheduler(Scheduler):
    """Best-rate-first placement with next-best variants."""

    def __init__(self, *args, n_variants: int = 3,
                 predicted_load_attr: str = "",
                 select_implementation: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.n_variants = n_variants
        self.predicted_load_attr = predicted_load_attr
        #: section 3.3 future work: pin the fastest matching binary
        self.select_implementation = select_implementation

    def _rate_of(self, record: CollectionRecord) -> float:
        speed = float(record.get("host_speed", 1.0))
        load_attr = self.predicted_load_attr or "host_load"
        # computed (injected) attributes live on the Collection, not the
        # raw record — resolve through it so forecasts are visible
        load = self.collection.record_attr(record, load_attr)
        if load is None:
            load = record.get("host_load", 0.0)
        return speed / (1.0 + max(0.0, float(load)))

    def _effective_rate(self, record: CollectionRecord,
                        class_obj) -> float:
        """Host rate, scaled by the best matching binary's speed when
        implementation selection is on."""
        rate = self._rate_of(record)
        if self.select_implementation:
            impl = self.best_implementation_for(class_obj, record)
            if impl is not None:
                rate *= impl.relative_speed
        return rate

    def _ranked_hosts(self, class_obj) -> List[CollectionRecord]:
        records = self.viable_hosts(class_obj,
                                    extra_query="$host_slots_free > 0")
        if not records:
            raise SchedulingError(
                f"no viable hosts for class {class_obj.name!r}")
        # descending by rate; LOID order breaks ties deterministically
        return sorted(records,
                      key=lambda r: (-self._effective_rate(r, class_obj),
                                     r.member))

    def _pick_vault(self, record: CollectionRecord) -> LOID:
        vaults = self.compatible_vaults_of(record)
        if not vaults:
            raise SchedulingError(
                f"host {record.member} advertises no compatible vaults")
        return vaults[0]

    def _mapping_for(self, class_obj, record: CollectionRecord
                     ) -> ScheduleMapping:
        impl = (self.best_implementation_for(class_obj, record)
                if self.select_implementation else None)
        return ScheduleMapping(
            class_loid=class_obj.loid, host_loid=record.member,
            vault_loid=self._pick_vault(record), implementation=impl)

    def compute_schedule(self, requests: Sequence[ObjectClassRequest]
                         ) -> ScheduleRequestList:
        master_entries: List[ScheduleMapping] = []
        # per-entry ranked alternatives for variant construction
        alternatives: List[List[ScheduleMapping]] = []
        slots_used: Dict[LOID, int] = {}

        for request in requests:
            class_obj = request.class_obj
            ranked = self._ranked_hosts(class_obj)
            for _i in range(request.count):
                # spread: effective rate discounts hosts already chosen
                def eff(record: CollectionRecord) -> float:
                    extra = slots_used.get(record.member, 0)
                    return (self._effective_rate(record, class_obj)
                            / (1.0 + extra))

                order = sorted(ranked,
                               key=lambda r: (-eff(r), r.member))
                best = order[0]
                slots_used[best.member] = slots_used.get(best.member, 0) + 1
                master_entries.append(self._mapping_for(class_obj, best))
                alternatives.append([
                    self._mapping_for(class_obj, r)
                    for r in order[1: 1 + self.n_variants]])

        master = MasterSchedule(master_entries, label="load-aware")
        # variant v substitutes each entry's v-th alternative where one exists
        for v in range(self.n_variants):
            replacements: Dict[int, ScheduleMapping] = {}
            for j, alts in enumerate(alternatives):
                if v < len(alts) and not alts[v].same_target(
                        master_entries[j]):
                    replacements[j] = alts[v]
            if replacements:
                master.add_variant(VariantSchedule(
                    replacements, label=f"load-aware-alt-{v + 1}"))
        return ScheduleRequestList([master], label="load-aware")
