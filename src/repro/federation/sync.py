"""Anti-entropy gossip between federated Collection shards.

Synchronous replication (:mod:`repro.federation.router`) keeps replicas
hot while every shard is reachable; gossip repairs what it misses —
records written while a replica was down, partitioned, or newly added
to the ring.  The protocol is the classic pull-based delta exchange:

1. each round, every shard picks one peer (seeded RNG stream
   ``("federation", "gossip")``);
2. the puller sends its *digest* — ``{loid: (updated_at,
   update_count)}`` for everything it holds;
3. the peer answers with the records the ring assigns to the puller
   that are missing from, or strictly newer than, the digest;
4. the puller merges them (``Collection.merge_record`` — timestamps
   travel with the record, so repeated exchanges of identical data
   converge instead of churning).

Rounds are driven by the sim kernel at a tunable interval; exchanges
between *located* shards go through the transport (charged latency,
honest unreachability), unlocated shards exchange directly.  In
federated mode this supersedes the single
:class:`~repro.collection.daemon.DataCollectionDaemon`: resource pushes
land on the home replica set and gossip spreads repairs, rather than
one daemon fanning every record to one Collection.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..errors import NetworkError
from ..net.transport import Transport
from ..obs.registry import NULL_METRICS
from ..obs.spans import NULL_SPANS
from ..sim.kernel import Simulator, Ticker
from .shard import CollectionShard

__all__ = ["GossipDaemon", "estimate_digest_bytes", "estimate_record_bytes"]


def estimate_digest_bytes(digest: dict) -> int:
    """Wire-size estimate of a version digest (LOID text + 16B version)."""
    return sum(len(key) + 16 for key in digest)


def estimate_record_bytes(record) -> int:
    """Wire-size estimate of one shipped record (attrs repr + header)."""
    return len(str(record.member)) + len(repr(record.attributes)) + 24


class GossipDaemon:
    """Periodic anti-entropy sweeps over a set of peer shards."""

    def __init__(self, sim: Simulator, shards: List[CollectionShard],
                 interval: float = 60.0, rng=None,
                 transport: Optional[Transport] = None,
                 metrics: Any = NULL_METRICS, spans: Any = NULL_SPANS):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if len(shards) < 2:
            raise ValueError("gossip needs at least two shards")
        self.sim = sim
        self.shards = list(shards)
        self.interval = interval
        self.rng = rng
        self.transport = transport
        self.metrics = metrics
        self.spans = spans
        self.rounds = 0
        self.records_exchanged = 0
        self.bytes_exchanged = 0
        self._ticker: Optional[Ticker] = None

    # -- one exchange -------------------------------------------------------
    def _pick_peer(self, puller_index: int) -> CollectionShard:
        if self.rng is not None:
            offset = 1 + int(self.rng.integers(0, len(self.shards) - 1))
        else:
            offset = 1 + self.rounds % (len(self.shards) - 1)
        return self.shards[(puller_index + offset) % len(self.shards)]

    def _pull(self, puller: CollectionShard, peer: CollectionShard) -> None:
        with self.spans.span_if_active(
                "federation.gossip.pull", puller=puller.shard_id,
                peer=peer.shard_id) as sp:
            digest = puller.digest()
            digest_bytes = estimate_digest_bytes(digest)
            try:
                if puller.forced_down or peer.forced_down:
                    raise NetworkError(
                        f"{peer.shard_id} unreachable (forced down)")
                if (self.transport is not None
                        and peer.location is not None):
                    delta = self.transport.invoke(
                        puller.location, peer.location, peer.delta_for,
                        puller.shard_id, digest, label="gossip-pull")
                else:
                    delta = peer.delta_for(puller.shard_id, digest)
            except NetworkError as exc:
                sp.set_status("error")
                sp.set_attribute("error", f"{type(exc).__name__}: {exc}")
                self.metrics.count("federation_gossip_exchanges_total",
                                   outcome="unreachable")
                return
            nbytes = digest_bytes + sum(estimate_record_bytes(r)
                                        for r in delta)
            changed = puller.merge_records(delta)
            self.records_exchanged += len(delta)
            self.bytes_exchanged += nbytes
            self.metrics.count("federation_gossip_exchanges_total",
                               outcome="ok")
            self.metrics.count("federation_gossip_records_total",
                               len(delta))
            self.metrics.count("federation_gossip_bytes_total", nbytes)
            if changed:
                self.metrics.count("federation_gossip_repairs_total",
                                   changed)
            sp.set_attribute("records", len(delta))
            sp.set_attribute("changed", changed)

    def sweep(self) -> None:
        """One gossip round: every shard pulls from one peer."""
        with self.spans.span("federation.gossip", round=self.rounds):
            for i, shard in enumerate(self.shards):
                self._pull(shard, self._pick_peer(i))
        self.rounds += 1
        self.metrics.count("federation_gossip_rounds_total")

    # -- kernel wiring -------------------------------------------------------
    def start(self) -> None:
        if self._ticker is None:
            self._ticker = Ticker(self.sim, self.interval)
            self._ticker.subscribe(self, self.sweep)

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.unsubscribe(self)
            self._ticker = None
