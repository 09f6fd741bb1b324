"""Network topology: administrative domains and node locations.

The paper's setting is a metasystem "combining hosts from multiple
administrative domains via transnational and world-wide networks".  Two
properties of that setting matter to the RMI and are modeled here:

* **domain structure** — message cost differs sharply within vs. across
  domains, and co-allocation (section 3) must negotiate with resources in
  several domains;
* **reachability faults** — domains can be partitioned from each other and
  individual nodes can be down; "Legion objects are built to accommodate
  failure at any step in the scheduling process" (section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import NetworkError

__all__ = ["NetLocation", "AdministrativeDomain", "Topology"]


@dataclass(frozen=True)
class NetLocation:
    """A network endpoint: a node within an administrative domain."""

    domain: str
    node_id: str
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_text", f"{self.domain}/{self.node_id}")

    def __str__(self) -> str:
        return self._text


@dataclass
class AdministrativeDomain:
    """One autonomous site.

    ``distance`` is an abstract geographic scale factor applied to
    inter-domain latency (1.0 = nearby, larger = farther).
    """

    name: str
    description: str = ""
    distance: float = 1.0


class Topology:
    """Registry of domains and nodes, plus reachability state."""

    def __init__(self) -> None:
        self._domains: Dict[str, AdministrativeDomain] = {}
        self._nodes: Dict[str, Set[str]] = {}
        self._partitions: Set[FrozenSet[str]] = set()
        self._down_nodes: Set[NetLocation] = set()

    # -- construction ------------------------------------------------------
    def add_domain(self, domain: AdministrativeDomain) -> AdministrativeDomain:
        if domain.name in self._domains:
            raise NetworkError(f"duplicate domain {domain.name!r}")
        self._domains[domain.name] = domain
        self._nodes[domain.name] = set()
        return domain

    def add_node(self, domain: str, node_id: str) -> NetLocation:
        if domain not in self._domains:
            raise NetworkError(f"unknown domain {domain!r}")
        if node_id in self._nodes[domain]:
            raise NetworkError(f"duplicate node {node_id!r} in {domain!r}")
        self._nodes[domain].add(node_id)
        return NetLocation(domain, node_id)

    # -- queries --------------------------------------------------------------
    def domains(self) -> List[AdministrativeDomain]:
        return list(self._domains.values())

    def domain(self, name: str) -> AdministrativeDomain:
        try:
            return self._domains[name]
        except KeyError:
            raise NetworkError(f"unknown domain {name!r}") from None

    def nodes_in(self, domain: str) -> List[NetLocation]:
        if domain not in self._nodes:
            raise NetworkError(f"unknown domain {domain!r}")
        return [NetLocation(domain, n) for n in sorted(self._nodes[domain])]

    def has_node(self, loc: NetLocation) -> bool:
        return loc.node_id in self._nodes.get(loc.domain, ())

    def domain_distance(self, a: str, b: str) -> float:
        """Abstract distance between two domains (0.0 within a domain)."""
        if a == b:
            return 0.0
        return self.domain(a).distance + self.domain(b).distance

    # -- fault state -------------------------------------------------------------
    def partition(self, domain_a: str, domain_b: str) -> None:
        """Cut connectivity between two domains (symmetric)."""
        self.domain(domain_a), self.domain(domain_b)  # validate
        self._partitions.add(frozenset((domain_a, domain_b)))

    def heal(self, domain_a: str, domain_b: str) -> None:
        self._partitions.discard(frozenset((domain_a, domain_b)))

    def set_node_down(self, loc: NetLocation, down: bool = True) -> None:
        if not self.has_node(loc):
            raise NetworkError(f"unknown node {loc}")
        if down:
            self._down_nodes.add(loc)
        else:
            self._down_nodes.discard(loc)

    def node_up(self, loc: NetLocation) -> bool:
        return self.has_node(loc) and loc not in self._down_nodes

    def partitions(self) -> List[Tuple[str, str]]:
        """Currently-cut domain pairs, sorted for deterministic output."""
        return sorted(tuple(sorted(p)) for p in self._partitions)

    def down_nodes(self) -> List[NetLocation]:
        """Currently-down nodes, sorted for deterministic output."""
        return sorted(self._down_nodes, key=lambda l: (l.domain, l.node_id))

    def clear_faults(self) -> int:
        """Heal every partition and raise every down node.

        Used by the chaos injector's teardown to guarantee the topology
        leaves a campaign fault-free.  Returns the number of fault entries
        cleared."""
        cleared = len(self._partitions) + len(self._down_nodes)
        self._partitions.clear()
        self._down_nodes.clear()
        return cleared

    def reachable(self, src: Optional[NetLocation],
                  dst: NetLocation) -> bool:
        """Can a message from ``src`` reach ``dst``?  ``src=None`` means an
        in-system service endpoint assumed always connected (e.g. the user's
        workstation running the Scheduler)."""
        if not self.node_up(dst):
            return False
        if src is None:
            return True
        if not self.node_up(src):
            return False
        if src.domain != dst.domain:
            if frozenset((src.domain, dst.domain)) in self._partitions:
                return False
        return True

    def all_nodes(self) -> List[NetLocation]:
        out: List[NetLocation] = []
        for d in sorted(self._nodes):
            out.extend(NetLocation(d, n) for n in sorted(self._nodes[d]))
        return out
