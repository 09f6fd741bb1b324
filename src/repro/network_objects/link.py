"""Network Objects — guardians for communications resources.

Paper section 6 (future work): "We are developing Network Objects to
manage communications resources."

Design: a :class:`NetworkObject` guards one inter-domain link, exactly as a
Host Object guards a machine — it exports an attribute surface (capacity,
current allocation, latency class), grants **bandwidth reservations** with
the same non-forgeable-token discipline as Host reservations, and enforces
a local policy (a domain may refuse to carry another domain's traffic).
Joined to a Collection, links become schedulable resources: a
communication-aware Scheduler can co-allocate bandwidth alongside hosts
(see :class:`~repro.network_objects.comm_sched.BandwidthAwareScheduler`).
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..errors import (
    InvalidReservationError,
    PlacementPolicyError,
    ReservationDeniedError,
)
from ..naming.loid import LOID
from ..objects.base import LegionObject

__all__ = ["BandwidthToken", "NetworkObject"]


@dataclass(frozen=True)
class BandwidthToken:
    """An unforgeable grant of ``bandwidth`` on one link for a window."""

    token_id: int
    link_loid: LOID
    bandwidth: float          # bytes/second
    start: float
    end: float
    issued_at: float
    signature: bytes = b""

    def payload(self) -> bytes:
        return "|".join([
            str(self.token_id), str(self.link_loid),
            repr(self.bandwidth), repr(self.start), repr(self.end),
            repr(self.issued_at),
        ]).encode("utf-8")

    def signed(self, secret: bytes) -> "BandwidthToken":
        sig = hmac.new(secret, self.payload(), hashlib.sha256).digest()
        return replace(self, signature=sig)

    def verify(self, secret: bytes) -> bool:
        expected = hmac.new(secret, self.payload(),
                            hashlib.sha256).digest()
        return hmac.compare_digest(expected, self.signature)


class _Grant:
    __slots__ = ("token", "cancelled")

    def __init__(self, token: BandwidthToken):
        self.token = token
        self.cancelled = False


class NetworkObject(LegionObject):
    """Guardian for the link between two administrative domains.

    ``capacity`` is the link's total bandwidth (bytes/second).  Bandwidth
    reservations are admission-controlled so the sum of live grants never
    exceeds capacity at any instant.  Bandwidth token ids count from 1
    per link.
    """

    def __init__(self, loid: LOID, domain_a: str, domain_b: str,
                 capacity: float = 1.0e6,
                 base_latency: float = 0.025,
                 refused_domains: Optional[List[str]] = None):
        super().__init__(loid)
        if capacity <= 0:
            raise ValueError("link capacity must be positive")
        self.domain_a = domain_a
        self.domain_b = domain_b
        self.capacity = float(capacity)
        self.base_latency = float(base_latency)
        self.refused_domains = frozenset(refused_domains or [])
        self._secret = os.urandom(16)
        self._ids = itertools.count(1)
        self._grants: Dict[int, _Grant] = {}
        self.grants_made = 0
        self.denials = 0
        self.attributes.update({
            "link_domains": sorted([domain_a, domain_b]),
            "link_capacity": self.capacity,
            "link_latency": self.base_latency,
        })

    # -- admission ----------------------------------------------------------
    def connects(self, domain_a: str, domain_b: str) -> bool:
        return {domain_a, domain_b} == {self.domain_a, self.domain_b}

    def allocated_at(self, t: float) -> float:
        """Total granted bandwidth covering instant ``t``."""
        return sum(g.token.bandwidth for g in self._grants.values()
                   if not g.cancelled and g.token.start <= t < g.token.end)

    def available_at(self, t: float) -> float:
        return self.capacity - self.allocated_at(t)

    def _admissible(self, bandwidth: float, start: float,
                    end: float) -> bool:
        # check at all window boundaries overlapping the request
        points = {start}
        for g in self._grants.values():
            if g.cancelled:
                continue
            if g.token.start < end and start < g.token.end:
                points.add(max(g.token.start, start))
        return all(self.allocated_at(p) + bandwidth <= self.capacity
                   + 1e-9 for p in points)

    # -- the reservation interface (mirrors Host Objects) --------------------
    def reserve_bandwidth(self, bandwidth: float, now: float,
                          duration: float,
                          start: Optional[float] = None,
                          requester_domain: str = "") -> BandwidthToken:
        """Grant a bandwidth reservation or raise."""
        if bandwidth <= 0 or duration <= 0:
            raise ReservationDeniedError(
                "bandwidth and duration must be positive")
        if requester_domain in self.refused_domains:
            raise PlacementPolicyError(
                f"link {self.loid}: traffic from "
                f"{requester_domain!r} refused")
        t0 = now if start is None else start
        if t0 < now:
            raise ReservationDeniedError("start in the past")
        t1 = t0 + duration
        if not self._admissible(bandwidth, t0, t1):
            self.denials += 1
            raise ReservationDeniedError(
                f"link {self.loid}: {bandwidth:.0f} B/s not available "
                f"over [{t0}, {t1})")
        token = BandwidthToken(
            token_id=next(self._ids), link_loid=self.loid,
            bandwidth=float(bandwidth), start=t0, end=t1,
            issued_at=now).signed(self._secret)
        self._grants[token.token_id] = _Grant(token)
        self.grants_made += 1
        return token

    def check_bandwidth(self, token: BandwidthToken, now: float) -> bool:
        grant = self._grants.get(token.token_id)
        if grant is None or grant.cancelled:
            return False
        if not token.verify(self._secret) or grant.token != token:
            return False
        return now < token.end

    def release_bandwidth(self, token: BandwidthToken, now: float) -> None:
        grant = self._grants.get(token.token_id)
        if grant is None or not token.verify(self._secret):
            raise InvalidReservationError(
                f"unknown/forged bandwidth token {token.token_id}")
        grant.cancelled = True

    # -- performance model -----------------------------------------------------
    def transfer_time(self, nbytes: float, granted: float) -> float:
        """Time to move ``nbytes`` using a grant of ``granted`` B/s."""
        if granted <= 0:
            raise ValueError("granted bandwidth must be positive")
        return self.base_latency + nbytes / granted

    def effective_share(self, now: float, flows: int = 1) -> float:
        """Best-effort share for unreserved traffic (fair split of what is
        left after reservations)."""
        free = max(0.0, self.available_at(now))
        return free / max(1, flows)

    def utilization_at(self, t: float) -> float:
        return self.allocated_at(t) / self.capacity

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<NetworkObject {self.domain_a}<->{self.domain_b} "
                f"cap={self.capacity:.0f}B/s>")
