"""The Collection: the RMI's information database (paper section 3.2).

"The Collection acts as a repository for information describing the state of
the resources comprising the system.  Each record is stored as a set of
Legion object attributes. ... Collections provide methods to join (with an
optional installment of initial descriptive information) and update records,
thus facilitating a push model for data.  The security facilities of Legion
authenticate the caller to be sure that it is allowed to update the data in
the Collection.  As noted earlier, Collections may also pull data from
resources.  Users, or their agents, obtain information about resources by
issuing queries to a Collection."

Security model: joining yields an opaque HMAC credential bound to the member
LOID; updates and leaves must present it (unless the Collection is built
with ``require_auth=False`` for closed experiments).

Function injection (the planned extension the paper describes, needed for
Network-Weather-Service-style prediction) is implemented two ways:

* **injected query functions** — callable from query text,
  e.g. ``predicted_load($host_load) < 2``;
* **computed attributes** — virtual record fields evaluated at query time,
  e.g. ``$predicted_load < 2`` after ``inject_attribute("predicted_load",
  fn)``.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..errors import AuthenticationError, NotAMemberError
from ..naming.loid import LOID
from ..net.topology import NetLocation
from ..objects.base import LegionObject
from ..obs.registry import DEFAULT_SIZE_BUCKETS, NULL_METRICS
from ..obs.spans import NULL_SPANS
from .query.ast import Node
from .query.compile import CompiledQuery, compile_query
from .query.evaluate import QueryFunctions
from .query.parser import parse
from .records import CollectionRecord

__all__ = ["Collection", "Credential"]


class Credential:
    """Opaque capability authorizing updates to one member's record."""

    __slots__ = ("member", "_mac")

    def __init__(self, member: LOID, mac: bytes):
        self.member = member
        self._mac = mac

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Credential for {self.member}>"


class _RecordView(Mapping):
    """Read-only mapping over a record's attributes, layering the
    Collection's computed attributes and the implicit ``loid`` field.

    The view is cheap to rebind (:meth:`_bind`): the query loop reuses a
    single instance across all candidate records instead of allocating
    one per record."""

    __slots__ = ("_record", "_computed")

    def __init__(self, record: Optional[CollectionRecord],
                 computed: Dict[str, Callable[[Mapping], Any]]):
        self._record = record
        self._computed = computed

    def _bind(self, record: CollectionRecord) -> "_RecordView":
        self._record = record
        return self

    def __getitem__(self, key: str) -> Any:
        if key == "loid":
            return str(self._record.member)
        if key in self._record.attributes:
            return self._record.attributes[key]
        fn = self._computed.get(key)
        if fn is not None:
            return fn(self._record.attributes)
        raise KeyError(key)

    def get(self, key: str, default: Any = None) -> Any:
        # ``loid`` first (it shadows a stored attribute of the same name,
        # matching __getitem__), then the snapshot, then computed fields —
        # all without raising, since this is the query hot path.
        if key == "loid":
            return str(self._record.member)
        attrs = self._record.attributes
        if key in attrs:
            return attrs[key]
        fn = self._computed.get(key)
        if fn is not None:
            return fn(attrs)
        return default

    def __iter__(self):
        yield "loid"
        yield from self._record.attributes
        for k in self._computed:
            if k not in self._record.attributes:
                yield k

    def __len__(self) -> int:
        return 1 + len(self._record.attributes) + sum(
            1 for k in self._computed
            if k not in self._record.attributes)


class Collection(LegionObject):
    """An attribute-record database with the Fig. 4 interface."""

    def __init__(self, loid: LOID, require_auth: bool = True,
                 clock: Optional[Callable[[], float]] = None,
                 metrics: Any = NULL_METRICS, spans: Any = NULL_SPANS):
        super().__init__(loid)
        #: the Collection's network node, assigned by
        #: :meth:`~repro.metasystem.Metasystem.place_collection`
        self.location: Optional[NetLocation] = None
        self.require_auth = require_auth
        self._clock = clock or (lambda: 0.0)
        self.metrics = metrics
        self.spans = spans
        self._records: Dict[LOID, CollectionRecord] = {}
        #: guardrails knob: when True, records whose ``host_health``
        #: attribute says "down" are invisible to queries (the HealthMonitor
        #: publishes that attribute; see repro.guardrails.health)
        self.exclude_down_members = False
        self._secret = os.urandom(16)
        #: member -> expected MAC (a pure function of the secret and the
        #: LOID, so it is computed once per member, not once per update)
        self._macs: Dict[LOID, bytes] = {}
        self.functions = QueryFunctions()
        self._computed: Dict[str, Callable[[Mapping], Any]] = {}
        self._ast_cache: Dict[str, Node] = {}
        #: query text -> compiled closure plan (compiled once, reused for
        #: every record of every later identical query)
        self._plan_cache: Dict[str, CompiledQuery] = {}
        #: LOID-sorted member list, rebuilt lazily after membership changes
        self._members_cache: Optional[List[LOID]] = None
        #: bumped on every mutation that could change query results; the
        #: Scheduler's viable-hosts cache keys on it (see data_version)
        self.mutation_version = 0
        self.queries_served = 0
        self.updates_applied = 0
        self.auth_failures = 0
        self.plans_compiled = 0

    # -- credentials ---------------------------------------------------------
    def _mac_for(self, member: LOID) -> bytes:
        mac = self._macs.get(member)
        if mac is None:
            mac = self._macs[member] = hmac.new(
                self._secret, str(member).encode("utf-8"),
                hashlib.sha256).digest()
        return mac

    def _authenticate(self, member: LOID,
                      credential: Optional[Credential]) -> None:
        if not self.require_auth:
            return
        if (credential is None or credential.member != member
                or not hmac.compare_digest(credential._mac,
                                           self._mac_for(member))):
            self.auth_failures += 1
            self.metrics.count("collection_auth_failures_total")
            raise AuthenticationError(
                f"caller is not authorized to modify the record of "
                f"{member}")

    # -- the Fig. 4 interface ---------------------------------------------------
    def join(self, joiner: LOID,
             attributes: Optional[Mapping[str, Any]] = None) -> Credential:
        """JoinCollection — with optional initial descriptive information.

        Joining an existing member refreshes its record.  Returns the
        credential required for future updates.
        """
        now = self._clock()
        record = self._records.get(joiner)
        if record is None:
            record = CollectionRecord(member=joiner, joined_at=now,
                                      updated_at=now)
            self._records[joiner] = record
            self._members_cache = None
        if attributes:
            record.apply_update(attributes, now)
        self.mutation_version += 1
        self.metrics.set_gauge("collection_members", len(self._records))
        return Credential(joiner, self._mac_for(joiner))

    def leave(self, leaver: LOID,
              credential: Optional[Credential] = None) -> None:
        """LeaveCollection."""
        if leaver not in self._records:
            raise NotAMemberError(f"{leaver} is not a member")
        self._authenticate(leaver, credential)
        del self._records[leaver]
        self._members_cache = None
        self.mutation_version += 1
        self.metrics.set_gauge("collection_members", len(self._records))

    def update_entry(self, member: LOID, attributes: Mapping[str, Any],
                     credential: Optional[Credential] = None) -> None:
        """UpdateCollectionEntry — the push model's data path."""
        record = self._records.get(member)
        if record is None:
            raise NotAMemberError(f"{member} is not a member")
        self._authenticate(member, credential)
        record.apply_update(attributes, self._clock())
        self.mutation_version += 1
        self.updates_applied += 1
        self.metrics.count("collection_updates_total", path="push")

    def _plan_for(self, query: str) -> CompiledQuery:
        """The compiled closure plan for ``query`` (parse + compile once)."""
        plan = self._plan_cache.get(query)
        if plan is None:
            ast = self._ast_cache.get(query)
            if ast is None:
                ast = parse(query)
                self._ast_cache[query] = ast
            plan = compile_query(ast, self.functions)
            self._plan_cache[query] = plan
            self.plans_compiled += 1
        return plan

    def _sorted_members(self) -> List[LOID]:
        members = self._members_cache
        if members is None:
            members = self._members_cache = sorted(self._records)
        return members

    def query(self, query: str) -> List[CollectionRecord]:
        """QueryCollection — records whose attributes satisfy the query.

        Matching is evaluated over each record's attribute snapshot plus any
        injected computed attributes; results are returned in deterministic
        (LOID-sorted) order.
        """
        plan = self._plan_for(query)
        self.queries_served += 1
        out: List[CollectionRecord] = []
        records = self._records
        quarantine = self.exclude_down_members
        matches_fn = plan.matches
        # Plans that read only stored attributes (no $loid, no function
        # calls, no computed attributes installed) can match against the
        # raw attribute dict; everything else goes through one reused view.
        raw = not self._computed and not plan.uses_loid and not plan.has_calls
        view = None if raw else _RecordView(None, self._computed)
        with self.spans.span_if_active("collection.serve", step="2",
                                       path="scan") as sp:
            for member in self._sorted_members():
                record = records[member]
                if quarantine and \
                        record.attributes.get("host_health") == "down":
                    continue
                subject = record.attributes if raw else view._bind(record)
                if matches_fn(subject):
                    out.append(record)
            sp.set_attribute("results", len(out))
        self._record_query_metrics("scan", len(records), len(out))
        return out

    def _quarantined(self, record: CollectionRecord) -> bool:
        """Should this record be hidden from query results?

        Shared by the scan path above and the index path in
        :class:`~repro.collection.indexing.IndexedCollection` so both
        honor the guardrails quarantine."""
        return (self.exclude_down_members
                and record.attributes.get("host_health") == "down")

    def _record_query_metrics(self, path: str, candidates: int,
                              results: int) -> None:
        """One query's worth of observability (path = scan | index)."""
        self.metrics.count("collection_queries_total", path=path)
        self.metrics.observe("collection_query_candidates", candidates,
                             buckets=DEFAULT_SIZE_BUCKETS, path=path)
        self.metrics.observe("collection_query_results", results,
                             buckets=DEFAULT_SIZE_BUCKETS, path=path)

    def query_loids(self, query: str) -> List[LOID]:
        return [r.member for r in self.query(query)]

    # -- pull model ----------------------------------------------------------------
    def pull_from(self, source: Any) -> None:
        """Pull fresh attributes directly from a resource object.

        ``source`` must expose ``loid`` and an ``attributes`` database (all
        Legion objects do).  Non-members are auto-joined: the pull path is
        Collection-initiated and trusted.

        Pulls are idempotent: re-pulling a snapshot identical to the
        stored record is a no-op — no timestamp churn, no update-count
        bump, no staleness reset — so a tight daemon sweep over an idle
        host cannot masquerade as fresh information.
        """
        now = self._clock()
        snapshot = source.attributes.snapshot()
        record = self._records.get(source.loid)
        if record is not None and record.covers(snapshot):
            self.metrics.count("collection_updates_total", path="pull-noop")
            return
        if record is None:
            record = CollectionRecord(member=source.loid, joined_at=now,
                                      updated_at=now)
            self._records[source.loid] = record
            self._members_cache = None
        record.apply_update(snapshot, now)
        self.mutation_version += 1
        self.updates_applied += 1
        self.metrics.count("collection_updates_total", path="pull")
        self.metrics.set_gauge("collection_members", len(self._records))

    # -- replication ---------------------------------------------------------------
    def merge_record(self, incoming: CollectionRecord) -> bool:
        """Adopt a peer Collection's record if it is fresher than ours.

        This is the anti-entropy write path (``repro.federation.sync``):
        versions are compared by ``(updated_at, update_count)``, the
        incoming timestamps are *copied* rather than reset to the local
        clock, and merging an identical or older record is a no-op —
        so repeated gossip exchanges of the same record converge instead
        of churning.  Returns True when the local record changed.
        """
        mine = self._records.get(incoming.member)
        if mine is None:
            self._records[incoming.member] = CollectionRecord(
                member=incoming.member,
                attributes=dict(incoming.attributes),
                joined_at=incoming.joined_at,
                updated_at=incoming.updated_at,
                update_count=incoming.update_count)
            self._members_cache = None
            self.mutation_version += 1
            self.metrics.count("collection_updates_total", path="merge")
            self.metrics.set_gauge("collection_members", len(self._records))
            return True
        if incoming.version() <= mine.version():
            return False
        mine.attributes.update(incoming.attributes)
        mine.updated_at = incoming.updated_at
        mine.update_count = incoming.update_count
        self.mutation_version += 1
        self.metrics.count("collection_updates_total", path="merge")
        return True

    # -- function injection ------------------------------------------------------
    def inject_function(self, name: str,
                        fn: Callable[[List[Any], Mapping[str, Any]], Any]
                        ) -> None:
        """Install a query-callable function (section 3.2 extension).

        Compiled plans resolve functions at call time through the shared
        registry, so plans compiled before this call see the new function.
        """
        self.functions.register(name, fn)
        self.mutation_version += 1

    def inject_attribute(self, name: str,
                         fn: Callable[[Mapping[str, Any]], Any]) -> None:
        """Install a computed attribute visible to queries as ``$name``."""
        if not callable(fn):
            raise TypeError("computed attribute requires a callable")
        self._computed[name] = fn
        self.mutation_version += 1

    def record_attr(self, record: CollectionRecord, name: str,
                    default: Any = None) -> Any:
        """An attribute value with this Collection's computed attributes
        layered in — what a query's ``$name`` would see for ``record``."""
        return _RecordView(record, self._computed).get(name, default)

    # -- introspection -------------------------------------------------------------
    def members(self) -> List[LOID]:
        return list(self._sorted_members())

    def data_version(self) -> Any:
        """An opaque token that changes whenever query results could.

        The Scheduler's viable-hosts cache compares tokens for equality;
        it must never serve a stale placement, so every result-affecting
        mutation (record writes, membership churn, injected functions or
        attributes, the quarantine knob) rolls the token.
        """
        return (self.mutation_version, self.exclude_down_members)

    def record_of(self, member: LOID) -> CollectionRecord:
        record = self._records.get(member)
        if record is None:
            raise NotAMemberError(f"{member} is not a member")
        return record

    def mean_staleness(self, now: Optional[float] = None) -> float:
        """Average record age — the E6 staleness metric."""
        if not self._records:
            return float("nan")
        t = self._clock() if now is None else now
        ages = [r.staleness(t) for r in self._records.values()]
        return sum(ages) / len(ages)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, member: LOID) -> bool:
        return member in self._records
