"""Bandwidth-aware scheduling on top of Network Objects.

With links in the Collection, a Scheduler can reason about communication
the way it reasons about computation.  :class:`BandwidthAwareScheduler`
extends the load-aware policy for *communicating* applications: when a
placement spans two domains, the inter-domain link's available bandwidth
is part of the host-pair score, and the Scheduler asks the Enactor-side
helper :class:`CommCoAllocator` to co-allocate bandwidth alongside the
host reservations (the co-allocation story of section 3 extended to the
section-6 Network Objects).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import LegionError
from ..naming.loid import LOID
from ..schedule.mapping import ScheduleMapping
from ..schedule.schedule import MasterSchedule, ScheduleRequestList
from ..scheduler.load_aware import LoadAwareScheduler
from .link import BandwidthToken, NetworkObject

__all__ = ["LinkRegistry", "BandwidthAwareScheduler", "CommPlan"]


class LinkRegistry:
    """Lookup of NetworkObjects by the domain pair they connect."""

    def __init__(self, links: Sequence[NetworkObject] = ()):
        self._links: List[NetworkObject] = []
        for link in links:
            self.add(link)

    def add(self, link: NetworkObject) -> NetworkObject:
        self._links.append(link)
        return link

    def between(self, domain_a: str,
                domain_b: str) -> Optional[NetworkObject]:
        if domain_a == domain_b:
            return None  # intra-domain traffic does not use a guarded link
        for link in self._links:
            if link.connects(domain_a, domain_b):
                return link
        return None

    def all_links(self) -> List[NetworkObject]:
        return list(self._links)


@dataclass
class CommPlan:
    """Bandwidth requirements implied by a placement: per-link demand."""

    demands: Dict[LOID, float] = field(default_factory=dict)  # link -> B/s
    tokens: List[BandwidthToken] = field(default_factory=list)


class BandwidthAwareScheduler(LoadAwareScheduler):
    """Load-aware placement that also prices inter-domain bandwidth.

    ``pair_traffic`` is the application's estimated bandwidth demand
    (bytes/second) between each *pair of consecutive instances* — the
    simple chain model covers pipelines; stencils can pass their own
    demand matrix via ``traffic_matrix`` (instance index pairs).
    """

    def __init__(self, *args, links: LinkRegistry,
                 host_domains: Dict[LOID, str],
                 pair_traffic: float = 0.0,
                 traffic_matrix: Optional[
                     Dict[Tuple[int, int], float]] = None,
                 bandwidth_weight: float = 1.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.links = links
        self.host_domains = dict(host_domains)
        self.pair_traffic = pair_traffic
        self.traffic_matrix = traffic_matrix
        self.bandwidth_weight = bandwidth_weight

    # -- scoring ------------------------------------------------------------
    def _pairs(self, n: int) -> Dict[Tuple[int, int], float]:
        if self.traffic_matrix is not None:
            return self.traffic_matrix
        return {(i, i + 1): self.pair_traffic for i in range(n - 1)}

    def comm_penalty(self, entries: Sequence[ScheduleMapping],
                     now: float) -> float:
        """Seconds/unit-time of communication slowdown implied by a
        placement: demand / available bandwidth per loaded link."""
        penalty = 0.0
        for (i, j), demand in self._pairs(len(entries)).items():
            if demand <= 0 or i >= len(entries) or j >= len(entries):
                continue
            da = self.host_domains.get(entries[i].host_loid)
            db = self.host_domains.get(entries[j].host_loid)
            if da is None or db is None or da == db:
                continue
            link = self.links.between(da, db)
            if link is None:
                penalty += 1e6  # unconnected domains: effectively infeasible
                continue
            available = max(link.available_at(now), 1.0)
            penalty += demand / available
        return penalty

    def compute_schedule(self, requests) -> ScheduleRequestList:
        base = super().compute_schedule(requests)
        master = base.masters[0]
        candidates: List[List[ScheduleMapping]] = [master.resolve()]
        for variant in master.variants:
            candidates.append(master.resolve(variant))
        now = self.transport.sim.now

        def score(entries: List[ScheduleMapping]) -> float:
            return self.bandwidth_weight * self.comm_penalty(entries, now)

        best = min(candidates, key=score)
        rebuilt = MasterSchedule(best, label="bandwidth-aware")
        # keep the unchosen candidates as variants for Enactor fallback
        for cand in candidates:
            if cand is best:
                continue
            replacements = {
                idx: m for idx, m in enumerate(cand)
                if not m.same_target(best[idx])}
            if replacements:
                from ..schedule.schedule import VariantSchedule
                rebuilt.add_variant(VariantSchedule(replacements,
                                                    label="bw-alt"))
        return ScheduleRequestList([rebuilt], label="bandwidth-aware")

    # -- bandwidth co-allocation --------------------------------------------
    def allocate_bandwidth(self, entries: Sequence[ScheduleMapping],
                           duration: float,
                           requester_domain: str = "") -> CommPlan:
        """Reserve bandwidth on every inter-domain link the placement uses.

        All-or-nothing: on any denial, already-granted tokens are released
        and the error re-raised — the co-allocation discipline of the
        Enactor applied to communications resources.
        """
        now = self.transport.sim.now
        plan = CommPlan()
        for (i, j), demand in self._pairs(len(entries)).items():
            if demand <= 0 or i >= len(entries) or j >= len(entries):
                continue
            da = self.host_domains.get(entries[i].host_loid)
            db = self.host_domains.get(entries[j].host_loid)
            if da is None or db is None or da == db:
                continue
            link = self.links.between(da, db)
            if link is None:
                continue
            plan.demands[link.loid] = (plan.demands.get(link.loid, 0.0)
                                       + demand)
        try:
            for link_loid, demand in sorted(plan.demands.items()):
                link = next(l for l in self.links.all_links()
                            if l.loid == link_loid)
                plan.tokens.append(link.reserve_bandwidth(
                    demand, now=now, duration=duration,
                    requester_domain=requester_domain))
        except LegionError:
            for token in plan.tokens:
                link = next(l for l in self.links.all_links()
                            if l.loid == token.link_loid)
                link.release_bandwidth(token, now)
            plan.tokens.clear()
            raise
        return plan
