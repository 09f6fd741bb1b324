"""Scheduler framework (paper sections 3.3 and 4).

"The Scheduler computes the mapping of objects to resources.  At a minimum,
the Scheduler knows how many instances of each class must be started. ...
The Scheduler obtains resource description information by querying the
Collection, and then computes a mapping of object instances to resources.
This mapping is passed on to the Enactor for implementation."

:class:`Scheduler` provides the substrate pieces every placement policy
needs — querying classes for implementations, building the viability query,
querying the Collection (through the transport, so information costs are
charged), and the negotiate/enact wrapper loop — so that concrete policies
(Random, IRS, load-aware, stencil-aware, ...) implement only
:meth:`compute_schedule`.  This realizes the paper's "cost that scales with
capability" claim: the Random Scheduler is 22 lines on top of this base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..collection.collection import Collection
from ..collection.records import CollectionRecord
from ..enactor.enactor import Enactor, EnactResult
from ..errors import InvalidLOIDError, SchedulingError
from ..naming.loid import LOID
from ..net.topology import NetLocation
from ..net.transport import Transport
from ..objects.class_object import ClassObject, Implementation
from ..obs.spans import SpanTracer
from ..schedule.mapping import ScheduleMapping
from ..schedule.schedule import ScheduleFeedback, ScheduleRequestList

__all__ = [
    "ObjectClassRequest",
    "SchedulingOutcome",
    "Scheduler",
    "implementation_query",
]


@dataclass(frozen=True)
class ObjectClassRequest:
    """How many instances of one class must be started."""

    class_obj: ClassObject
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass
class SchedulingOutcome:
    """What the scheduling wrapper returns to the application."""

    ok: bool
    created: List[LOID] = field(default_factory=list)
    feedback: Optional[ScheduleFeedback] = None
    enact_result: Optional[EnactResult] = None
    schedule_tries: int = 0
    enact_tries: int = 0
    collection_queries: int = 0
    elapsed: float = 0.0
    detail: str = ""


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def implementation_query(implementations: Sequence[Implementation],
                         require_up: bool = True) -> str:
    """Build the Collection query matching hosts that can run any of the
    given implementations (the Fig. 7 "query Collection for Hosts matching
    available implementations" step)."""
    if not implementations:
        raise SchedulingError("class has no implementations to match")
    clauses = []
    seen = set()
    for impl in implementations:
        key = (impl.arch, impl.os_name)
        if key in seen:
            continue
        seen.add(key)
        clauses.append(f"($host_arch == {_quote(impl.arch)} and "
                       f"$host_os_name == {_quote(impl.os_name)})")
    query = "(" + " or ".join(clauses) + ")"
    if require_up:
        query += " and $host_up == true"
    return query


class Scheduler:
    """Base class: substrate access + the negotiate/enact wrapper."""

    #: subclass knob: how many times the wrapper recomputes schedules
    sched_try_limit = 3
    #: subclass knob: how many times each schedule is offered to the Enactor
    enact_try_limit = 2

    def __init__(self, collection: Collection, enactor: Enactor,
                 transport: Transport,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "", viable_cache: bool = True):
        self.collection = collection
        self.enactor = enactor
        self.transport = transport
        #: the Scheduler's network node; None calls from a free endpoint
        self.location: Optional[NetLocation] = None
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.name = name or type(self).__name__
        self.collection_queries = 0
        #: incremental viable-hosts cache (keyed by query text, validated
        #: against the Collection's data_version token); disable to pin
        #: the paper's uncached lookup-economy baseline
        self.viable_cache = viable_cache
        self._viable_cache: dict = {}
        #: class LOID -> (implementations, the query text built from them)
        self._class_queries: dict = {}
        #: vault text -> parsed LOID, for the cache entries' vault lists
        self._vault_loids: Dict[str, LOID] = {}
        self.viable_cache_hits = 0
        self.viable_cache_misses = 0

    @property
    def spans(self) -> SpanTracer:
        return self.transport.spans

    # -- substrate access --------------------------------------------------
    def query_collection(self, query: str) -> List[CollectionRecord]:
        """Query the Collection through the transport (charged latency)."""
        self.collection_queries += 1
        with self.spans.span_if_active("collection.query", step="2") as sp:
            if self.collection.location is not None:
                results = self.transport.invoke(
                    self.location, self.collection.location,
                    self.collection.query, query, label="QueryCollection",
                    idempotent=True)
            else:
                results = self.collection.query(query)
            sp.set_attribute("results", len(results))
        return results

    def viable_hosts(self, class_obj: ClassObject,
                     extra_query: str = "") -> List[CollectionRecord]:
        """Hosts able to run some implementation of ``class_obj``.

        Results are cached per query text and revalidated against the
        Collection's ``data_version`` token, so repeated lookups between
        Collection mutations cost nothing — any record update, membership
        change, health transition, or federation-shard outage rolls the
        token and forces a fresh query.  Records the HealthMonitor marked
        DOWN are dropped here as well as at the Collection — a
        belt-and-braces filter for results that arrive through a stale
        federation query cache."""
        return self.viable_hosts_and_vaults(class_obj, extra_query)[0]

    def viable_hosts_and_vaults(
            self, class_obj: ClassObject, extra_query: str = ""
    ) -> Tuple[List[CollectionRecord],
               Optional[List[Optional[List[LOID]]]]]:
        """:meth:`viable_hosts` plus the parsed-vault view of a cached
        lookup, shared by every hit on it: ``vaults[i]`` is None until
        a reader parses ``records[i]`` and stores
        ``_vaults_of(records[i], _vault_loid)`` there (a parse is pure,
        and any record write rolls the token).  ``vaults`` is None for
        an uncached lookup — parse the records you use."""
        implementations = class_obj.get_implementations()
        memo = self._class_queries.get(class_obj.loid)
        if memo is None or memo[0] != implementations:
            memo = self._class_queries[class_obj.loid] = (
                implementations, implementation_query(implementations))
        query = memo[1]
        if extra_query:
            query = f"({query}) and ({extra_query})"
        token = None
        if self.viable_cache:
            version_of = getattr(self.collection, "data_version", None)
            token = version_of() if version_of is not None else None
            if token is not None:
                entry = self._viable_cache.get(query)
                if entry is not None and entry[0] == token:
                    self.viable_cache_hits += 1
                    return list(entry[1]), entry[2]
        results = [r for r in self.query_collection(query)
                   if r.get("host_health") != "down"]
        if token is None:
            return results, None
        vaults = [None] * len(results)
        self._viable_cache[query] = (token, results, vaults)
        self.viable_cache_misses += 1
        return list(results), vaults

    def _vault_loid(self, text: str) -> LOID:
        """``LOID.parse(text)``, parsed once per distinct vault text."""
        loid = self._vault_loids.get(text)
        if loid is None:
            loid = self._vault_loids[text] = LOID.parse(text)
        return loid

    @staticmethod
    def compatible_vaults_of(record: CollectionRecord) -> List[LOID]:
        """Extract the host's compatible-vault list from its Collection
        record ("extract list of compatible vaults from H", Fig. 7)."""
        return Scheduler._vaults_of(record, LOID.parse)

    @staticmethod
    def _vaults_of(record: CollectionRecord, parse) -> List[LOID]:
        raw = record.get("compatible_vaults", [])
        if not isinstance(raw, list):
            raw = [raw]
        vaults: List[LOID] = []
        for item in raw:
            try:
                vaults.append(parse(str(item)))
            except InvalidLOIDError:
                continue
        return vaults

    @staticmethod
    def host_loid_of(record: CollectionRecord) -> LOID:
        return record.member

    # -- what every policy shares -------------------------------------------
    @staticmethod
    def require_hosts(records: List[CollectionRecord],
                      class_obj: ClassObject) -> List[CollectionRecord]:
        """``records``, refused when no host can run ``class_obj``."""
        if not records:
            raise SchedulingError(
                f"no viable hosts for class {class_obj.name!r}")
        return records

    @staticmethod
    def require_vaults(record: CollectionRecord,
                       vaults: List[LOID]) -> List[LOID]:
        """``vaults``, refused when the host ``record`` names has none."""
        if not vaults:
            raise SchedulingError(
                f"host {record.member} advertises no compatible vaults")
        return vaults

    @staticmethod
    def _rate_of(record: CollectionRecord) -> float:
        """Expected per-job service rate: ``speed / (1 + load)``."""
        speed = float(record.get("host_speed", 1.0))
        load = float(record.get("host_load", 0.0))
        return speed / (1.0 + max(0.0, load))

    def mapping_for(self, class_obj: ClassObject, record: CollectionRecord,
                    vault: LOID) -> ScheduleMapping:
        """The mapping of one instance of ``class_obj`` to ``record``'s
        host and ``vault``; a policy that pins binaries overrides it."""
        return ScheduleMapping(class_obj.loid, record.member, vault)

    def candidates_for(self, class_obj: ClassObject,
                       ranked: Sequence[CollectionRecord]
                       ) -> List[ScheduleMapping]:
        """One entry's ranked candidates for
        :meth:`~repro.schedule.schedule.MasterSchedule.from_candidates`,
        each host with its first compatible vault: ``ranked[0]`` is the
        master, refused when it advertises no vault; a later host
        without one is dropped."""
        vaults = [self.compatible_vaults_of(record) for record in ranked]
        self.require_vaults(ranked[0], vaults[0])
        return [self.mapping_for(class_obj, record, v[0])
                for record, v in zip(ranked, vaults) if v]

    @staticmethod
    def best_implementation_for(class_obj: ClassObject,
                                record: CollectionRecord
                                ) -> Optional[Implementation]:
        """The fastest of the class's implementations that matches the
        host described by ``record`` (section 3.3 future work: "this
        mapping process may also select from among the available
        implementations")."""
        arch = str(record.get("host_arch", ""))
        os_name = str(record.get("host_os_name", ""))
        best: Optional[Implementation] = None
        for impl in class_obj.get_implementations():
            if impl.matches(arch, os_name):
                if best is None or impl.relative_speed > best.relative_speed:
                    best = impl
        return best

    # -- the policy ------------------------------------------------------------
    def compute_schedule(self, requests: Sequence[ObjectClassRequest]
                         ) -> ScheduleRequestList:
        """Map object instances to resources.  Subclasses implement this."""
        raise NotImplementedError

    # -- the wrapper loop (generalized Fig. 9) -----------------------------------
    def run(self, requests: Sequence[ObjectClassRequest],
            reservation_duration: float = 3600.0) -> SchedulingOutcome:
        """Compute schedules, negotiate reservations, and enact.

        Mirrors the IRS wrapper (Fig. 9): up to ``sched_try_limit``
        recomputations, each offered to the Enactor up to
        ``enact_try_limit`` times.  A failed enactment is rolled back.
        """
        start = self.transport.sim.now
        queries_before = self.collection_queries
        metrics = self.transport.metrics
        outcome = SchedulingOutcome(ok=False)
        # the root of one placement trace: every protocol step below
        # (query, compute, negotiate, reserve, enact) parents under it
        with self.spans.span(
                "placement", scheduler=self.name,
                count=sum(r.count for r in requests)) as root:
            for s_try in range(self.sched_try_limit):
                outcome.schedule_tries = s_try + 1
                try:
                    with self.spans.span_if_active("scheduler.compute",
                                                   step="2-3",
                                                   attempt=s_try):
                        request_list = self.compute_schedule(requests)
                except SchedulingError as exc:
                    outcome.detail = f"schedule computation failed: {exc}"
                    continue
                for _e_try in range(self.enact_try_limit):
                    outcome.enact_tries += 1
                    feedback = self.enactor.make_reservations(
                        request_list, duration=reservation_duration)
                    outcome.feedback = feedback
                    if not feedback.ok:
                        outcome.detail = feedback.failure_detail
                        continue
                    result = self.enactor.enact_schedule(
                        feedback, rollback_on_failure=True)
                    outcome.enact_result = result
                    if result.ok:
                        outcome.ok = True
                        outcome.created = result.created
                        outcome.collection_queries = (
                            self.collection_queries - queries_before)
                        outcome.elapsed = self.transport.sim.now - start
                        root.set_attribute("ok", True)
                        metrics.count("placement_requests_total",
                                      ok="true")
                        metrics.observe("placement_seconds",
                                        outcome.elapsed, ok="true")
                        return outcome
                    outcome.detail = result.detail
            root.set_attribute("ok", False)
            root.set_status("error")
            metrics.count("placement_requests_total", ok="false")
            metrics.observe("placement_seconds",
                            self.transport.sim.now - start, ok="false")
        outcome.collection_queries = self.collection_queries - queries_before
        outcome.elapsed = self.transport.sim.now - start
        return outcome
