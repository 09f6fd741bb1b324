"""One peer of a federated Collection.

A :class:`CollectionShard` wraps an ordinary
:class:`~repro.collection.collection.Collection` with ring awareness:
it knows its shard id, which records it is *supposed* to hold (the
ring's preference lists), and how to summarize its contents for the
anti-entropy protocol (:mod:`repro.federation.sync`).

The wrapped Collection stays a full-fledged Collection — queries,
credentials, computed attributes, and metrics all work unchanged — the
shard layer only adds ownership bookkeeping.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..collection.collection import Collection
from ..naming.loid import LOID
from ..net.topology import NetLocation
from .ring import ConsistentHashRing

__all__ = ["CollectionShard"]

#: version summary used in gossip digests: (updated_at, update_count)
Version = Tuple[float, int]


class CollectionShard:
    """A ring-aware wrapper around one peer Collection."""

    def __init__(self, shard_id: str, collection: Collection,
                 ring: ConsistentHashRing, replication: int):
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.shard_id = shard_id
        self.collection = collection
        self.ring = ring
        self.replication = replication
        #: the shard's network node, assigned by
        #: :meth:`~repro.metasystem.Metasystem.place_federation`
        self.location: Optional[NetLocation] = None
        #: fault-injection override: an unlocated shard can still be
        #: forced unreachable (located shards use the topology instead)
        self.forced_down = False
        self.merges_applied = 0

    # -- ownership ----------------------------------------------------------
    def preference_list(self, member: LOID) -> List[str]:
        return self.ring.preference_list(str(member), self.replication)

    def is_home(self, member: LOID) -> bool:
        return self.preference_list(member)[0] == self.shard_id

    # -- anti-entropy surface ------------------------------------------------
    def digest(self) -> Dict[str, Version]:
        """Version summary of every record held, keyed by LOID text.

        This is what a pulling peer sends: the remote replies only with
        records that are missing here or strictly newer than the digest
        entry (a pull-based delta exchange).
        """
        return {str(m): self.collection.record_of(m).version()
                for m in self.collection.members()}

    def delta_for(self, peer_shard_id: str,
                  digest: Dict[str, Version]) -> List[Any]:
        """Records the pulling peer should adopt: ones it is assigned by
        the ring, held here, and newer than (or absent from) its digest."""
        out = []
        for member in self.collection.members():
            plist = self.ring.preference_list(str(member), self.replication)
            if peer_shard_id not in plist:
                continue
            record = self.collection.record_of(member)
            known = digest.get(str(member))
            if known is None or record.version() > known:
                out.append(record)
        return out

    def merge_records(self, records: List[Any]) -> int:
        """Adopt a batch of peer records; returns how many changed us."""
        changed = 0
        for record in records:
            if self.collection.merge_record(record):
                changed += 1
        self.merges_applied += changed
        return changed

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self.collection)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<CollectionShard {self.shard_id} "
                f"members={len(self.collection)}>")
