"""Pluggable rescheduling policies for the execution Monitor.

The paper's modularity rule applies to monitoring too: "others are free to
substitute their own modules".  A :class:`ReschedulePolicy` decides (a)
which objects to move off a misbehaving host and (b) where each should go.
Two implementations ship:

* :class:`GreedyLeastLoaded` — the simple default: biggest remaining work
  first, destination is the least-loaded viable host with a worthwhile
  load advantage (Collection-driven);
* :class:`SchedulerBacked` — "request a recomputation of the schedule"
  literally: delegate destination choice to any
  :class:`~repro.scheduler.base.Scheduler` by computing a fresh placement
  for the victim's class and using its first mapping.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..collection.collection import Collection
from ..errors import LegionError
from ..hosts.host_object import HostObject
from ..naming.loid import LOID
from ..scheduler.base import ObjectClassRequest, Scheduler
from ..scheduler.base import implementation_query

__all__ = ["ReschedulePolicy", "GreedyLeastLoaded", "SchedulerBacked"]

Resolver = Callable[[LOID], Any]


class ReschedulePolicy:
    """Strategy interface consumed by the ExecutionMonitor: a policy
    writes ``pick_destination`` and inherits the greedy victim rule."""

    def pick_victims(self, host: HostObject, limit: int) -> List[LOID]:
        """The greedy rule every bundled policy uses: the ``limit``
        objects with the most remaining work."""
        candidates = []
        for loid, placed in host.placed.items():
            remaining = (placed.job.remaining
                         if placed.job is not None else 0.0)
            candidates.append((remaining, loid))
        candidates.sort(reverse=True)
        return [loid for _rem, loid in candidates[:limit]]

    def pick_destination(self, victim_class_loid: LOID,
                         source: HostObject) -> Optional[LOID]:
        raise NotImplementedError


class GreedyLeastLoaded(ReschedulePolicy):
    """Default: most-remaining-work victims, least-loaded destination."""

    def __init__(self, collection: Collection, resolver: Resolver,
                 min_load_advantage: float = 1.0):
        self.collection = collection
        self.resolver = resolver
        self.min_load_advantage = min_load_advantage

    def pick_destination(self, victim_class_loid: LOID,
                         source: HostObject) -> Optional[LOID]:
        class_obj = self.resolver(victim_class_loid)
        if class_obj is None:
            return None
        try:
            query = implementation_query(class_obj.get_implementations())
        except LegionError:
            return None
        query += " and $host_slots_free > 0"
        best: Optional[LOID] = None
        best_load = float("inf")
        for record in self.collection.query(query):
            if record.member == source.loid:
                continue
            load = float(record.get("host_load", 0.0))
            if load < best_load:
                best_load = load
                best = record.member
        if best is None:
            return None
        if source.machine.load_average - best_load < \
                self.min_load_advantage:
            return None
        return best


class SchedulerBacked(ReschedulePolicy):
    """Recompute the placement with a real Scheduler.

    Victim selection follows the greedy rule; the destination is whatever
    host the wrapped Scheduler's freshly computed single-instance schedule
    names (excluding the source).  Any Scheduler works — the Monitor thus
    inherits load awareness, cost awareness, implementation selection, or
    anything else the Scheduler implements.
    """

    def __init__(self, scheduler: Scheduler, resolver: Resolver):
        self.scheduler = scheduler
        self.resolver = resolver

    def pick_destination(self, victim_class_loid: LOID,
                         source: HostObject) -> Optional[LOID]:
        class_obj = self.resolver(victim_class_loid)
        if class_obj is None:
            return None
        try:
            request_list = self.scheduler.compute_schedule(
                [ObjectClassRequest(class_obj, count=1)])
        except LegionError:
            return None
        for master in request_list.masters:
            for variant in [None] + list(master.variants):
                for mapping in master.resolve(variant):
                    if mapping.host_loid != source.loid:
                        return mapping.host_loid
        return None
