"""Deterministic consistent-hash ring for Collection federation.

The ring assigns every record (keyed by its member LOID) a *home shard*
plus ``replication - 1`` replica shards.  Design requirements, in order:

* **determinism** — ring positions come from ``blake2b`` digests of
  ``"{seed}|{shard}#{vnode}"``; neither Python's randomized ``hash()``
  nor any wall-clock input is involved, so two processes built with the
  same seed and shard set agree on every placement (the property the
  determinism suite pins);
* **balance** — each shard contributes ``vnodes`` virtual nodes, which
  smooths the classic consistent-hashing imbalance (pinned by a
  property-based test: max/min shard load stays bounded);
* **minimal disruption** — adding a shard only moves keys *onto* the new
  shard; removing one only moves the keys it owned (also pinned by a
  property-based test).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List

__all__ = ["ConsistentHashRing"]


def _position(seed: int, token: str) -> int:
    """A ring position in [0, 2**64) for one token."""
    digest = hashlib.blake2b(f"{seed}|{token}".encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """A seeded, virtual-node consistent-hash ring over shard names."""

    def __init__(self, seed: int = 0, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.seed = seed
        self.vnodes = vnodes
        #: sorted vnode positions and their owning shard, kept in lockstep
        self._positions: List[int] = []
        self._owners: List[str] = []
        self._shards: List[str] = []

    # -- membership ---------------------------------------------------------
    def add_shard(self, name: str) -> None:
        if name in self._shards:
            raise ValueError(f"duplicate shard {name!r}")
        self._shards.append(name)
        for v in range(self.vnodes):
            pos = _position(self.seed, f"{name}#{v}")
            i = bisect.bisect_left(self._positions, pos)
            # ties are astronomically unlikely with 64-bit digests, but
            # break them by shard name so insertion order never matters
            while (i < len(self._positions) and self._positions[i] == pos
                   and self._owners[i] < name):
                i += 1
            self._positions.insert(i, pos)
            self._owners.insert(i, name)

    def remove_shard(self, name: str) -> None:
        if name not in self._shards:
            raise ValueError(f"unknown shard {name!r}")
        self._shards.remove(name)
        keep = [(p, o) for p, o in zip(self._positions, self._owners)
                if o != name]
        self._positions = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def shards(self) -> List[str]:
        return sorted(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    # -- placement ----------------------------------------------------------
    def key_position(self, key: str) -> int:
        return _position(self.seed, f"key:{key}")

    def owner(self, key: str) -> str:
        """The home shard for ``key``."""
        return self.preference_list(key, 1)[0]

    def preference_list(self, key: str, n: int) -> List[str]:
        """The first ``n`` *distinct* shards clockwise from ``key``.

        Entry 0 is the home shard; the rest are replicas.  ``n`` is
        clamped to the shard count, so a 2-shard ring with replication 3
        simply replicates everywhere.
        """
        if not self._shards:
            raise ValueError("ring has no shards")
        n = min(n, len(self._shards))
        start = bisect.bisect_right(self._positions,
                                    self.key_position(key))
        out: List[str] = []
        for step in range(len(self._positions)):
            owner = self._owners[(start + step) % len(self._positions)]
            if owner not in out:
                out.append(owner)
                if len(out) == n:
                    break
        return out

    # -- introspection -------------------------------------------------------
    def layout(self) -> Dict[str, int]:
        """Per-shard vnode counts (constant, but useful to print)."""
        counts: Dict[str, int] = {name: 0 for name in sorted(self._shards)}
        for owner in self._owners:
            counts[owner] += 1
        return counts

    def arc_fractions(self) -> Dict[str, float]:
        """Fraction of the key space each shard owns as home."""
        total = 1 << 64
        fractions: Dict[str, float] = {n: 0.0 for n in self._shards}
        if not self._positions:
            return fractions
        for i, pos in enumerate(self._positions):
            prev = self._positions[i - 1] if i else self._positions[-1]
            arc = (pos - prev) % total
            if len(self._positions) == 1:
                arc = total
            fractions[self._owners[i]] += arc / total
        return {n: fractions[n] for n in sorted(fractions)}
