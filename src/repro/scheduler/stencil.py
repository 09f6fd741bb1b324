"""Stencil-aware Scheduler (paper section 4.3).

"We are working with the DoD MSRC in Stennis, Mississippi to develop a
Scheduler for an MPI-based ocean simulation which uses nearest-neighbor
communication within a 2-D grid."

The placement problem: ``rows x cols`` instances of one class communicate
with their 4-neighbours every iteration.  Communication cost depends on
where neighbours land: same host < same domain < different domains.  The
scheduler therefore

1. ranks viable hosts by service rate (load-aware substrate reused);
2. orders them so that consecutive hosts share a domain whenever possible;
3. walks the grid in **snake (boustrophedon) order**, assigning consecutive
   grid cells to consecutive host slots — adjacent cells thus land on the
   same host or same domain far more often than random placement does.

:func:`grid_comm_cost` is the metric both E11 and the example application
report: the per-iteration communication cost of a placement.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..collection.records import CollectionRecord
from ..errors import SchedulingError
from ..naming.loid import LOID
from ..schedule.mapping import ScheduleMapping
from ..schedule.schedule import MasterSchedule, ScheduleRequestList
from .base import ObjectClassRequest, Scheduler

__all__ = ["StencilScheduler", "grid_comm_cost", "snake_order"]


def snake_order(rows: int, cols: int) -> List[Tuple[int, int]]:
    """Boustrophedon traversal of an rows x cols grid."""
    order: List[Tuple[int, int]] = []
    for r in range(rows):
        cs = range(cols) if r % 2 == 0 else range(cols - 1, -1, -1)
        for c in cs:
            order.append((r, c))
    return order


#: cost of one grid edge between cells on the same host, in the same
#: domain, and across domains — the 1999 reality: in-memory ~ free,
#: LAN ~ 1, WAN ~ 20
SAME_HOST_COST = 0.0
INTRA_DOMAIN_COST = 1.0
INTER_DOMAIN_COST = 20.0


def grid_comm_cost(rows: int, cols: int,
                   cell_host: Dict[Tuple[int, int], LOID],
                   host_domain: Dict[LOID, str]) -> float:
    """Per-iteration communication cost of a grid placement.

    Each of the grid's nearest-neighbour edges contributes the cost of the
    link between its endpoints' hosts.
    """
    total = 0.0
    for r in range(rows):
        for c in range(cols):
            here = cell_host[(r, c)]
            for dr, dc in ((0, 1), (1, 0)):
                rr, cc = r + dr, c + dc
                if rr >= rows or cc >= cols:
                    continue
                there = cell_host[(rr, cc)]
                if here == there:
                    total += SAME_HOST_COST
                elif host_domain.get(here) == host_domain.get(there):
                    total += INTRA_DOMAIN_COST
                else:
                    total += INTER_DOMAIN_COST
    return total


class StencilScheduler(Scheduler):
    """Domain-clustered snake placement for 2-D stencil applications."""

    def __init__(self, *args, rows: int = 0, cols: int = 0,
                 instances_per_host: int = 1, **kwargs):
        super().__init__(*args, **kwargs)
        self.rows = rows
        self.cols = cols
        self.instances_per_host = max(1, instances_per_host)
        #: populated by compute_schedule: grid cell -> entry index
        self.last_grid: Dict[Tuple[int, int], int] = {}

    def _ordered_hosts(self, class_obj) -> List[CollectionRecord]:
        records = self.require_hosts(
            self.viable_hosts(class_obj, extra_query="$host_slots_free > 0"),
            class_obj)
        # group hosts by domain; order domains by aggregate rate so the
        # fastest domains absorb most of the grid; within a domain, best
        # hosts first
        by_domain: Dict[str, List[CollectionRecord]] = {}
        for r in records:
            by_domain.setdefault(str(r.get("host_domain", "?")),
                                 []).append(r)
        for domain in by_domain:
            by_domain[domain].sort(key=lambda r: (-self._rate_of(r),
                                                  r.member))
        domains = sorted(by_domain,
                         key=lambda d: -sum(self._rate_of(r)
                                            for r in by_domain[d]))
        ordered: List[CollectionRecord] = []
        for d in domains:
            ordered.extend(by_domain[d])
        return ordered

    def compute_schedule(self, requests: Sequence[ObjectClassRequest]
                         ) -> ScheduleRequestList:
        if len(requests) != 1:
            raise SchedulingError(
                "StencilScheduler places exactly one class per request")
        request = requests[0]
        class_obj = request.class_obj
        rows, cols = self.rows, self.cols
        if rows * cols == 0:
            # square-ish default decomposition of the requested count
            k = request.count
            rows = int(k ** 0.5) or 1
            while k % rows:
                rows -= 1
            cols = k // rows
        if rows * cols != request.count:
            raise SchedulingError(
                f"grid {rows}x{cols} does not match count {request.count}")

        ordered = self._ordered_hosts(class_obj)
        capacity = len(ordered) * self.instances_per_host
        if capacity < request.count:
            raise SchedulingError(
                f"{len(ordered)} viable hosts x {self.instances_per_host} "
                f"slots < {request.count} instances")

        # the one variant spills each entry to the next unused host,
        # preserving as much domain locality as the spare pool allows
        spare = ordered[(request.count + self.instances_per_host - 1)
                        // self.instances_per_host:]
        candidates: List[List[ScheduleMapping]] = []
        self.last_grid = {}
        for slot, cell in enumerate(snake_order(rows, cols)):
            ranked = [ordered[slot // self.instances_per_host]]
            if spare:
                ranked.append(spare[slot % len(spare)])
            candidates.append(self.candidates_for(class_obj, ranked))
            self.last_grid[cell] = slot

        master = MasterSchedule.from_candidates(candidates, "stencil",
                                                "stencil-spill")
        return ScheduleRequestList([master], label="stencil")

    # -- evaluation help ----------------------------------------------------
    def placement_cost(self, entries: Sequence[ScheduleMapping],
                       host_domain: Dict[LOID, str],
                       rows: int, cols: int) -> float:
        """Communication cost of the grid produced by the last compute."""
        cell_host = {cell: entries[idx].host_loid
                     for cell, idx in self.last_grid.items()}
        return grid_comm_cost(rows, cols, cell_host, host_domain)
