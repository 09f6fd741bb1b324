"""The federation facade: scatter-gather routing over peer Collections.

A :class:`FederatedCollection` presents the exact Fig. 4 interface —
Join / Leave / UpdateCollectionEntry / QueryCollection — so every
existing Scheduler, the Data Collection Daemon, the Monitor, and the
default placer run against a federation without a single call-site
change.  Behind the facade:

* **writes** (join/update/leave/pull) route to the record's *replica
  set* — the consistent-hash ring's home shard plus ``replication - 1``
  successors.  A write succeeds if any replica accepts it; a join or
  update that misses a replica (unreachable, or its message lost) is
  repaired later by anti-entropy gossip (:mod:`repro.federation.sync`)
  or the member's next push;
* **queries** scatter to every shard concurrently (located shards go
  through :meth:`Transport.parallel_invoke`, so the cost is the
  *slowest* shard, not the sum), gather every reply, and merge with
  dedup — for a member seen on several replicas the freshest
  ``(updated_at, update_count)`` version wins — in deterministic
  LOID-sorted order.  An unreachable shard degrades the result to a
  partial answer instead of failing the query;
* **caching** — an optional TTL-bounded, router-side query cache
  absorbs repeated identical queries (schedulers re-query the same
  viability expression every attempt) at an explicit staleness cost,
  which the metrics account for (cache age histogram, hit/miss
  counters).

With every shard healthy and no cache, a federated query returns
byte-for-byte the records a single monolithic Collection would — the
equivalence the acceptance test pins.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..collection.collection import Credential
from ..collection.records import CollectionRecord
from ..errors import (
    AuthenticationError,
    HostUnreachableError,
    NetworkError,
    NotAMemberError,
)
from ..naming.loid import LOID
from ..net.topology import NetLocation
from ..net.transport import Call, Transport
from ..obs.registry import DEFAULT_SIZE_BUCKETS, NULL_METRICS
from ..obs.spans import NULL_SPANS
from .ring import ConsistentHashRing
from .shard import CollectionShard

__all__ = ["FederatedCollection", "FederationConfig"]

#: histogram buckets for record/cache staleness (virtual seconds)
STALENESS_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 900.0, 3600.0)


@dataclass(frozen=True)
class FederationConfig:
    """The ``Metasystem(federation=...)`` knob, normalized.

    ``shards=0`` (or passing ``None``) means federation off — the
    Metasystem keeps its single monolithic Collection.
    """

    shards: int = 3
    replication: int = 2
    #: anti-entropy sweep period in virtual seconds; 0 disables gossip
    gossip_interval: float = 60.0
    #: router-side query cache TTL in virtual seconds; 0 disables
    cache_ttl: float = 0.0

    def __post_init__(self) -> None:
        if self.shards < 2:
            raise ValueError("federation needs at least 2 shards")
        if not 1 <= self.replication <= self.shards:
            raise ValueError("replication must be in [1, shards]")

    @classmethod
    def normalize(cls, value: Any) -> Optional["FederationConfig"]:
        """Accept ``None`` / int / (shards, replication) / config."""
        if value is None:
            return None
        if isinstance(value, FederationConfig):
            return value
        if isinstance(value, int):
            return cls(shards=value)
        if isinstance(value, tuple) and len(value) == 2:
            return cls(shards=int(value[0]), replication=int(value[1]))
        raise TypeError(
            f"federation must be None, an int shard count, a "
            f"(shards, replication) tuple, or a FederationConfig; "
            f"got {value!r}")


class FederatedCollection:
    """Fig. 4 interface over a ring of :class:`CollectionShard` peers."""

    def __init__(self, loid: LOID, shards: List[CollectionShard],
                 ring: ConsistentHashRing, replication: int,
                 transport: Optional[Transport] = None,
                 clock: Optional[Callable[[], float]] = None,
                 metrics: Any = NULL_METRICS,
                 require_auth: bool = True,
                 cache_ttl: float = 0.0,
                 spans: Any = NULL_SPANS):
        if not shards:
            raise ValueError("federation needs at least one shard")
        self.loid = loid
        self.shards = list(shards)
        self.shards_by_id = {s.shard_id: s for s in self.shards}
        self.ring = ring
        self.replication = replication
        self.transport = transport
        #: the router's network node, assigned by the placer
        self.location: Optional[NetLocation] = None
        self._clock = clock or (lambda: 0.0)
        self.metrics = metrics
        self.spans = spans
        self.require_auth = require_auth
        self.cache_ttl = cache_ttl
        #: per-(shard, member) write credentials held by the router
        self._credentials: Dict[Tuple[str, str], Credential] = {}
        #: member -> the credential handed back to the caller at join
        self._member_credentials: Dict[LOID, Credential] = {}
        self._computed: Dict[str, Callable[[Mapping], Any]] = {}
        #: query text -> (stored_at, results)
        self._cache: Dict[str, Tuple[float, List[CollectionRecord]]] = {}
        self.queries_served = 0
        self.updates_applied = 0
        self.partial_queries = 0
        #: query-cache lookups by outcome (hit / miss / expired)
        self.cache_events = {"hit": 0, "miss": 0, "expired": 0}

    # -- reachability --------------------------------------------------------
    def _shard_reachable(self, shard: CollectionShard) -> bool:
        if shard.forced_down:
            return False
        if shard.location is not None and self.transport is not None:
            return self.transport.topology.reachable(self.location,
                                                     shard.location)
        return True

    def healthy_shards(self) -> List[str]:
        return [s.shard_id for s in self.shards if self._shard_reachable(s)]

    def set_shard_down(self, shard_id: str, down: bool = True) -> None:
        """Fault injection for unlocated shards (located shards should be
        failed through the topology so the transport sees it too)."""
        self.shards_by_id[shard_id].forced_down = down

    # -- replica routing -----------------------------------------------------
    def replicas_for(self, member: LOID) -> List[CollectionShard]:
        """The record's replica set, home shard first."""
        return [self.shards_by_id[sid]
                for sid in self.ring.preference_list(str(member),
                                                     self.replication)]

    def home_shard(self, member: LOID) -> CollectionShard:
        return self.replicas_for(member)[0]

    def _write_call(self, shard: CollectionShard, fn: Callable, *args,
                    label: str) -> Any:
        """One replica write, through the transport when the shard is
        located (so the message is charged and can honestly fail)."""
        if shard.forced_down:
            raise HostUnreachableError(
                f"shard {shard.shard_id} unreachable (forced down)")
        if shard.location is not None and self.transport is not None:
            return self.transport.invoke(self.location, shard.location,
                                         fn, *args, label=label)
        return fn(*args)

    def _check_credential(self, member: LOID,
                          credential: Optional[Credential]) -> None:
        """Router-side authentication against the credential minted at
        join time — uniform whether or not the home shard is reachable."""
        if not self.require_auth:
            return
        stored = self._member_credentials.get(member)
        if (credential is None or stored is None
                or credential.member != member
                or not hmac.compare_digest(credential._mac, stored._mac)):
            self.metrics.count("federation_auth_failures_total")
            raise AuthenticationError(
                f"caller is not authorized to modify the record of "
                f"{member}")

    # -- the Fig. 4 write paths ----------------------------------------------
    def join(self, joiner: LOID,
             attributes: Optional[Mapping[str, Any]] = None) -> Credential:
        """JoinCollection, fanned out to the record's replica set.

        Succeeds if any replica accepts the join; the others are
        repaired by gossip.  Returns one credential valid for future
        updates through this router.
        """
        reached = 0
        for shard in self.replicas_for(joiner):
            try:
                cred = self._write_call(
                    shard, shard.collection.join, joiner,
                    attributes, label="JoinCollection")
            except NetworkError:
                self.metrics.count("federation_shard_unreachable_total",
                                   shard=shard.shard_id)
                continue
            self._credentials[(shard.shard_id, str(joiner))] = cred
            reached += 1
            self.metrics.count("federation_shard_writes_total",
                               shard=shard.shard_id, op="join")
        if not reached:
            raise HostUnreachableError(
                f"no replica of {joiner} reachable for join")
        member_cred = self._member_credentials.get(joiner)
        if member_cred is None:
            member_cred = Credential(
                joiner, self._credential_seed(joiner))
            self._member_credentials[joiner] = member_cred
        return member_cred

    def _credential_seed(self, member: LOID) -> bytes:
        """A router-scoped MAC derived from the home shard's secret, so
        the returned credential is as unforgeable as a shard's own."""
        home = self.home_shard(member)
        return home.collection._mac_for(member)

    def update_entry(self, member: LOID, attributes: Mapping[str, Any],
                     credential: Optional[Credential] = None) -> None:
        """UpdateCollectionEntry across the replica set."""
        self._check_credential(member, credential)
        reached = 0
        missing = 0
        for shard in self.replicas_for(member):
            cred = self._credentials.get((shard.shard_id, str(member)))
            try:
                if cred is None:
                    # replica missed the join (it was down); repair now
                    cred = self._write_call(
                        shard, shard.collection.join, member,
                        attributes, label="JoinCollection")
                    self._credentials[(shard.shard_id, str(member))] = cred
                else:
                    self._write_call(
                        shard, shard.collection.update_entry, member,
                        attributes, cred, label="UpdateCollectionEntry")
            except NetworkError:
                self.metrics.count("federation_shard_unreachable_total",
                                   shard=shard.shard_id)
                continue
            except NotAMemberError:
                missing += 1
                continue
            reached += 1
            self.metrics.count("federation_shard_writes_total",
                               shard=shard.shard_id, op="update")
        if missing and not reached:
            raise NotAMemberError(f"{member} is not a member")
        if not reached:
            raise HostUnreachableError(
                f"no replica of {member} reachable for update")
        self.updates_applied += 1

    def leave(self, leaver: LOID,
              credential: Optional[Credential] = None) -> None:
        """LeaveCollection across the replica set."""
        self._check_credential(leaver, credential)
        found = 0
        for shard in self.shards:
            if leaver not in shard.collection:
                continue
            cred = self._credentials.get((shard.shard_id, str(leaver)))
            try:
                self._write_call(shard, shard.collection.leave, leaver,
                                 cred, label="LeaveCollection")
            except HostUnreachableError:
                self.metrics.count("federation_shard_unreachable_total",
                                   shard=shard.shard_id)
                continue
            self._credentials.pop((shard.shard_id, str(leaver)), None)
            found += 1
        if not found:
            raise NotAMemberError(f"{leaver} is not a member")
        self._member_credentials.pop(leaver, None)

    def pull_from(self, source: Any) -> None:
        """Collection-initiated pull, fanned to the replica set."""
        for shard in self.replicas_for(source.loid):
            try:
                self._write_call(shard, shard.collection.pull_from,
                                 source, label="pull")
            except HostUnreachableError:
                self.metrics.count("federation_shard_unreachable_total",
                                   shard=shard.shard_id)
                continue
            self.metrics.count("federation_shard_writes_total",
                               shard=shard.shard_id, op="pull")
        self.updates_applied += 1

    # -- the Fig. 4 read path ------------------------------------------------
    def query(self, query: str) -> List[CollectionRecord]:
        """QueryCollection: cache, scatter, gather, merge.

        Raises :class:`HostUnreachableError` only when *every* shard is
        unreachable; any partial shard coverage degrades to a partial
        (still deterministic, still LOID-sorted) result instead.
        """
        self.queries_served += 1
        now = self._clock()
        if self.cache_ttl > 0:
            hit = self._cache.get(query)
            if hit is not None:
                stored_at, results = hit
                age = now - stored_at
                if age <= self.cache_ttl:
                    self.cache_events["hit"] += 1
                    self.metrics.count("federation_cache_events_total",
                                       outcome="hit")
                    self.metrics.observe("federation_cache_age_seconds",
                                         age, buckets=STALENESS_BUCKETS)
                    return list(results)
                del self._cache[query]
                self.cache_events["expired"] += 1
                self.metrics.count("federation_cache_events_total",
                                   outcome="expired")
            else:
                self.cache_events["miss"] += 1
                self.metrics.count("federation_cache_events_total",
                                   outcome="miss")
        with self.spans.span_if_active("federation.query", step="2",
                                       shards=len(self.shards)) as sp:
            merged, reached = self._scatter_gather(query)
            sp.set_attribute("reached", reached)
            sp.set_attribute("results", len(merged))
        if reached == 0:
            raise HostUnreachableError("no federation shard reachable")
        partial = reached < len(self.shards)
        if partial:
            self.partial_queries += 1
            self.metrics.count("federation_partial_queries_total")
        for record in merged:
            self.metrics.observe("federation_result_staleness_seconds",
                                 record.staleness(self._clock()),
                                 buckets=STALENESS_BUCKETS)
        self.metrics.observe("federation_query_results", len(merged),
                             buckets=DEFAULT_SIZE_BUCKETS)
        if self.cache_ttl > 0 and not partial:
            # partial answers are not cached: recovery should be seen
            # on the next query, not after a TTL
            self._cache[query] = (self._clock(), list(merged))
        return merged

    def _scatter_gather(self, query: str
                        ) -> Tuple[List[CollectionRecord], int]:
        """Fan the query out, count reachable shards, merge and dedup."""
        per_shard: List[Tuple[CollectionShard, List[CollectionRecord]]] = []
        reached = 0
        remote: List[Tuple[CollectionShard, Call]] = []
        for shard in self.shards:
            if shard.forced_down:
                self.metrics.count("federation_shard_unreachable_total",
                                   shard=shard.shard_id)
                continue
            if shard.location is not None and self.transport is not None:
                remote.append((shard, Call(
                    src=self.location, dst=shard.location,
                    fn=shard.collection.query, args=(query,),
                    label=f"QueryCollection@{shard.shard_id}",
                    context=self.spans.current_context())))
            else:
                per_shard.append((shard, shard.collection.query(query)))
                reached += 1
                self.metrics.count("federation_shard_queries_total",
                                   shard=shard.shard_id)
        if remote:
            outcomes = self.transport.parallel_invoke(
                [call for _, call in remote])
            for (shard, _), outcome in zip(remote, outcomes):
                self.metrics.count("federation_shard_queries_total",
                                   shard=shard.shard_id)
                if not outcome.ok:
                    self.metrics.count(
                        "federation_shard_unreachable_total",
                        shard=shard.shard_id)
                    continue
                per_shard.append((shard, outcome.value))
                reached += 1
        best: Dict[LOID, CollectionRecord] = {}
        for _shard, records in per_shard:
            for record in records:
                mine = best.get(record.member)
                if mine is None or record.version() > mine.version():
                    best[record.member] = record
        return [best[m] for m in sorted(best)], reached

    def query_loids(self, query: str) -> List[LOID]:
        return [r.member for r in self.query(query)]

    # -- guardrails -----------------------------------------------------------
    @property
    def exclude_down_members(self) -> bool:
        """Quarantine filter state (see Collection.exclude_down_members).

        Shards hold plain Collections, so the filter is applied where the
        records live — the scatter-gather merge never sees a DOWN record."""
        return all(s.collection.exclude_down_members for s in self.shards)

    @exclude_down_members.setter
    def exclude_down_members(self, value: bool) -> None:
        for shard in self.shards:
            shard.collection.exclude_down_members = bool(value)

    # -- function injection ---------------------------------------------------
    def inject_function(self, name: str, fn: Callable) -> None:
        for shard in self.shards:
            shard.collection.inject_function(name, fn)

    def inject_attribute(self, name: str,
                         fn: Callable[[Mapping], Any]) -> None:
        if not callable(fn):
            raise TypeError("computed attribute requires a callable")
        self._computed[name] = fn
        for shard in self.shards:
            shard.collection.inject_attribute(name, fn)

    def record_attr(self, record: CollectionRecord, name: str,
                    default: Any = None) -> Any:
        if name == "loid":
            return str(record.member)
        if name in record.attributes:
            return record.attributes[name]
        fn = self._computed.get(name)
        if fn is not None:
            return fn(record.attributes)
        return default

    # -- introspection ---------------------------------------------------------
    def data_version(self) -> Any:
        """Change token for the Scheduler's viable-hosts cache.

        Folds in every shard's mutation version *and* the reachable-shard
        fingerprint, so a shard outage (or recovery) — which changes what
        a scatter-gather query can see — invalidates cached placements
        even though no record was written."""
        return (tuple(s.collection.mutation_version for s in self.shards),
                tuple(self.healthy_shards()),
                self.exclude_down_members)

    def members(self) -> List[LOID]:
        seen = set()
        for shard in self.shards:
            seen.update(shard.collection.members())
        return sorted(seen)

    def record_of(self, member: LOID) -> CollectionRecord:
        """The freshest replica copy of one member's record."""
        best: Optional[CollectionRecord] = None
        for shard in self.shards:
            if member not in shard.collection:
                continue
            record = shard.collection.record_of(member)
            if best is None or record.version() > best.version():
                best = record
        if best is None:
            raise NotAMemberError(f"{member} is not a member")
        return best

    def mean_staleness(self, now: Optional[float] = None) -> float:
        members = self.members()
        if not members:
            return float("nan")
        t = self._clock() if now is None else now
        ages = [self.record_of(m).staleness(t) for m in members]
        return sum(ages) / len(ages)

    def cache_stats(self) -> Dict[str, float]:
        """Hit/miss/expired counts plus the derived hit ratio."""
        out: Dict[str, float] = dict(self.cache_events)
        lookups = sum(self.cache_events.values())
        out["hit_ratio"] = out["hit"] / lookups if lookups else 0.0
        return out

    def __len__(self) -> int:
        return len(self.members())

    def __contains__(self, member: LOID) -> bool:
        return any(member in s.collection for s in self.shards)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<FederatedCollection shards={len(self.shards)} "
                f"replication={self.replication} "
                f"members={len(self.members())}>")
