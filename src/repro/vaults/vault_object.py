"""Vault Objects — the generic persistent-storage abstraction.

"To be executed, a Legion object must have a Vault to hold its persistent
state in an Object Persistent Representation (OPR)" (section 2.1).  "The
current implementation of Vault Objects does not contain dynamic state to
the degree that the Host Object implementation does.  Vaults, therefore,
only participate in the scheduling process at the start, when they verify
that they are compatible with a Host.  They may, in the future, be
differentiated by the amount of storage available, cost per byte, security
policy, etc." (section 3.1).

We implement both: the 1999 behaviour (compatibility verification + OPR
store/retrieve/delete) *and* the anticipated differentiation (capacity
accounting, cost per byte, and a domain-scoped security policy), since the
forward-looking attributes feed scheduler experiments.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import (
    InsufficientResourcesError,
    UnknownObjectError,
    VaultIncompatibleError,
)
from ..naming.loid import LOID
from ..net.topology import NetLocation
from ..objects.base import LegionObject
from ..objects.opr import OPR
from ..obs.spans import NULL_SPANS

__all__ = ["VaultObject"]


class VaultObject(LegionObject):
    """A persistent store for OPRs, tied to a network location."""

    def __init__(self, loid: LOID, location: NetLocation,
                 capacity_bytes: float = 10e9,
                 cost_per_byte: float = 0.0,
                 allowed_domains: Optional[List[str]] = None,
                 spans: Any = NULL_SPANS):
        super().__init__(loid)
        self.location = location
        self.capacity_bytes = float(capacity_bytes)
        self.cost_per_byte = float(cost_per_byte)
        #: domains whose hosts may use this vault; None = any
        self.allowed_domains = (None if allowed_domains is None
                                else list(allowed_domains))
        self._oprs: Dict[LOID, OPR] = {}
        self.spans = spans
        self.stores = 0
        self.retrievals = 0
        self.attributes.update({
            "vault_domain": location.domain,
            "vault_capacity_bytes": self.capacity_bytes,
            "vault_cost_per_byte": self.cost_per_byte,
        })

    # -- scheduling-time participation -----------------------------------------
    def compatible_with(self, host) -> bool:
        """Verify compatibility with a Host (the vault's sole scheduling
        role in the paper).  Compatibility = the host's domain is permitted
        and the host itself lists this vault as reachable."""
        if (self.allowed_domains is not None
                and host.domain not in self.allowed_domains):
            return False
        return host.vault_ok(self.loid)

    # -- OPR management -----------------------------------------------------------
    @property
    def used_bytes(self) -> float:
        return float(sum(o.size_bytes for o in self._oprs.values()))

    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self.used_bytes

    def store_opr(self, opr: OPR) -> None:
        """Persist (or overwrite with a newer version of) an OPR."""
        with self.spans.span_if_active("vault.store",
                                       vault=str(self.loid),
                                       nbytes=opr.size_bytes):
            existing = self._oprs.get(opr.loid)
            delta = opr.size_bytes - (existing.size_bytes if existing else 0)
            if delta > self.free_bytes:
                raise InsufficientResourcesError(
                    f"vault {self.loid}: {delta} bytes needed, "
                    f"{self.free_bytes:.0f} free")
            if existing is not None and opr.version < existing.version:
                raise VaultIncompatibleError(
                    f"vault {self.loid}: stale OPR v{opr.version} for "
                    f"{opr.loid} (have v{existing.version})")
            self._oprs[opr.loid] = opr.clone()
            self.stores += 1

    def retrieve_opr(self, loid: LOID) -> OPR:
        with self.spans.span_if_active("vault.retrieve",
                                       vault=str(self.loid)):
            opr = self._oprs.get(loid)
            if opr is None:
                raise UnknownObjectError(
                    f"vault {self.loid} holds no OPR for {loid}")
            self.retrievals += 1
            return opr.clone()

    def has_opr(self, loid: LOID) -> bool:
        return loid in self._oprs

    def delete_opr(self, loid: LOID) -> None:
        if loid not in self._oprs:
            raise UnknownObjectError(
                f"vault {self.loid} holds no OPR for {loid}")
        del self._oprs[loid]

    def opr_count(self) -> int:
        return len(self._oprs)

    def storage_cost(self, nbytes: float) -> float:
        return nbytes * self.cost_per_byte

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<VaultObject {self.loid} at {self.location} "
                f"oprs={len(self._oprs)}>")
