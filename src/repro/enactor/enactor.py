"""The Enactor: schedule implementation (paper section 3.4).

Interface (Fig. 6)::

    LegionScheduleFeedback  make_reservations(LegionScheduleList)
    int                     cancel_reservations(LegionScheduleRequestList)
    LegionScheduleRequestList enact_schedule(LegionScheduleRequestList)

Behaviour reproduced:

* master schedules are tried in order; "if all mappings in the master
  schedule succeed, then scheduling is complete.  If not, then a variant
  schedule is selected that contains a new entry for the failed mapping";
* variant selection uses the per-variant **bitmap** so the Enactor can
  "efficiently select the next variant schedule to try";
* "Our default Schedulers and Enactor work together to structure the
  variant schedules so as to avoid **reservation thrashing** (the canceling
  and subsequent remaking of the same reservation)" — when switching to a
  variant, reservations already held are kept unless the variant names a
  different target for that entry, and the replaced ones are released in
  one concurrent exchange before the replacements are requested, so a
  switch costs the slowest release.  The ``naive_variant_handling`` flag
  disables this (cancel everything, re-reserve the whole variant) for the
  E7 ablation, and :attr:`EnactorStats.thrash_count` counts remakes of a
  previously cancelled identical reservation;
* co-allocation across domains runs through
  :class:`~repro.enactor.coallocation.CoAllocator` (parallel negotiation);
* "k out of n" masters (``required_k``) succeed once k reservations hold,
  cancelling the surplus;
* after reservations succeed, the Scheduler confirms (simply by calling
  :meth:`enact_schedule`) and the Enactor instantiates objects through
  ``create_instance`` on the Class objects with directed placement, returning
  per-entry success/failure codes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import EnactmentError, MalformedScheduleError, NetworkError
from ..hosts.reservations import (
    INSTANTANEOUS,
    ReservationToken,
    ReservationType,
    REUSABLE_TIME,
)
from ..naming.loid import LOID
from ..net.topology import NetLocation
from ..net.transport import Call, CallOutcome, Transport
from ..objects.class_object import ClassObject, CreateResult, Placement
from ..schedule.mapping import ScheduleMapping
from ..schedule.schedule import (
    FailureKind,
    MasterSchedule,
    ScheduleFeedback,
    ScheduleRequestList,
    VariantSchedule,
)
from .coallocation import CoAllocator, ReservationOutcome

__all__ = ["Enactor", "EnactResult", "EnactorStats"]

Resolver = Callable[[LOID], Any]


@dataclass
class EnactorStats:
    """Counters for the E7/E8 experiments."""

    reservation_requests: int = 0
    reservations_granted: int = 0
    cancellations: int = 0
    #: cancel-then-remake of an identical (host, vault, class) reservation
    thrash_count: int = 0
    variant_attempts: int = 0
    master_attempts: int = 0
    enactments: int = 0
    enact_failures: int = 0
    #: re-issued reservation requests driven by the opt-in retry policy
    reservation_retries: int = 0
    #: reservation requests issued to hosts whose machine was down at
    #: issue time — the "wasted rounds" the guardrails layer shaves off
    #: (counted in every mode, guardrails or not, for the benchmark)
    wasted_reservation_attempts: int = 0
    #: entries skipped before issue because the health monitor classified
    #: the host SUSPECT/DOWN (guardrails load shedding)
    load_shed: int = 0
    #: instances created by an RPC whose success ack was lost, found and
    #: destroyed via their reservation token during rollback
    unacked_reaps: int = 0


@dataclass
class _Holding:
    mapping: ScheduleMapping
    token: ReservationToken


class _ReservationSet:
    """Opaque handle carried in ScheduleFeedback.reservation_handle."""

    _ids = itertools.count(1)

    def __init__(self, master_index: int,
                 entries: List[Tuple[int, ScheduleMapping]],
                 holdings: Dict[int, _Holding]):
        self.handle_id = next(self._ids)
        self.master_index = master_index
        self.entries = entries          # [(master entry index, mapping)]
        self.holdings = holdings        # index -> holding
        self.enacted = False


@dataclass
class EnactResult:
    """Outcome of enact_schedule: per-entry instance creation reports."""

    ok: bool
    created: List[LOID] = field(default_factory=list)
    entry_results: Dict[int, CreateResult] = field(default_factory=dict)
    detail: str = ""
    #: (class_obj, token) pairs whose create RPC died in transit — the
    #: create may have executed without its ack arriving, so rollback
    #: reaps by reservation token instead of by (unknown) LOID
    suspect: List[Tuple[Any, Any]] = field(default_factory=list)


class Enactor:
    """Negotiates reservations for schedules and instantiates objects."""

    def __init__(self, transport: Transport, resolver: Resolver,
                 location: Optional[NetLocation] = None,
                 requester_domain: str = "",
                 naive_variant_handling: bool = False,
                 sequential_coallocation: bool = False,
                 max_variant_attempts: int = 32):
        self.transport = transport
        self.resolver = resolver
        self.location = location
        self.metrics = transport.metrics
        self.spans = transport.spans
        self.coallocator = CoAllocator(
            transport, resolver, src=location,
            requester_domain=requester_domain,
            sequential=sequential_coallocation)
        self.naive_variant_handling = naive_variant_handling
        self.max_variant_attempts = max_variant_attempts
        #: opt-in retry layer for transient reservation failures
        #: (duck-typed; see repro.chaos.retry.RetryPolicy)
        self.retry_policy = None
        #: opt-in health source for load shedding (duck-typed; see
        #: repro.guardrails.health.HealthMonitor)
        self.health = None
        self.stats = EnactorStats()
        self._cancelled_targets: set = set()

    # ------------------------------------------------------------------
    # make_reservations
    # ------------------------------------------------------------------
    def make_reservations(self, request: ScheduleRequestList,
                          rtype: ReservationType = REUSABLE_TIME,
                          duration: float = 3600.0,
                          start_time: float = INSTANTANEOUS,
                          timeout: float = 120.0) -> ScheduleFeedback:
        """Try each master schedule (with its variants) until one holds."""
        if not isinstance(request, ScheduleRequestList):
            raise MalformedScheduleError(
                f"make_reservations needs a ScheduleRequestList, got "
                f"{type(request).__name__}")
        self._cancelled_targets = set()
        last_errors: Dict[int, str] = {}
        last_detail = ""
        with self.spans.span_if_active("enactor.negotiate", step="4-6",
                                       masters=len(request.masters)
                                       ) as neg_span:
            with self.metrics.time("enactor_step_seconds", step="negotiate"):
                for m_idx, master in enumerate(request.masters):
                    self.stats.master_attempts += 1
                    self.metrics.count("enactor_master_attempts_total")
                    with self.spans.span_if_active(
                            "enactor.master", step="4",
                            master=m_idx) as m_span:
                        feedback = self._try_master(request, m_idx, master,
                                                    rtype, duration,
                                                    start_time, timeout)
                        m_span.set_attribute("ok", feedback.ok)
                        if not feedback.ok:
                            m_span.set_status("error")
                    if feedback.ok:
                        neg_span.set_attribute("master", m_idx)
                        return feedback
                    last_errors = feedback.entry_errors or last_errors
                    last_detail = feedback.failure_detail or last_detail
            neg_span.set_status("error")
        detail = "all master and variant schedules failed"
        if last_detail:
            detail += f" (last: {last_detail})"
        return ScheduleFeedback(
            request=request, ok=False,
            failure_kind=FailureKind.RESOURCES,
            failure_detail=detail,
            entry_errors=last_errors)

    def _shed(self, indexed: List[Tuple[int, ScheduleMapping]],
              have_fallback: bool
              ) -> Tuple[List[Tuple[int, ScheduleMapping]],
                         List[ReservationOutcome]]:
        """Drop entries whose host the HealthMonitor has quarantined.

        DOWN hosts are always skipped; SUSPECT hosts only when fallback
        schedules remain (``have_fallback``), so a last-ditch attempt
        still gets to try a merely-suspect host."""
        if self.health is None:
            return list(indexed), []
        kept: List[Tuple[int, ScheduleMapping]] = []
        shed: List[ReservationOutcome] = []
        for idx, mapping in indexed:
            state = self.health.state_of(mapping.host_loid)
            if state == "down" or (state == "suspect" and have_fallback):
                shed.append(ReservationOutcome(
                    index=idx, mapping=mapping,
                    error=f"shed: host {state}"))
                self.stats.load_shed += 1
                self.metrics.count("guardrail_load_shed_total", state=state)
            else:
                kept.append((idx, mapping))
        return kept, shed

    def _count_wasted(self,
                      indexed: List[Tuple[int, ScheduleMapping]]) -> None:
        """Benchmark ground truth: requests issued to machines that are
        down *right now* are wasted rounds (counted in every mode)."""
        for _idx, mapping in indexed:
            host = self.resolver(mapping.host_loid)
            if host is not None and not host.machine.up:
                self.stats.wasted_reservation_attempts += 1
                self.metrics.count("guardrail_wasted_reservations_total")

    def _reserve(self, indexed: List[Tuple[int, ScheduleMapping]],
                 rtype: ReservationType, duration: float,
                 start_time: float, timeout: float,
                 have_fallback: bool = False
                 ) -> List[ReservationOutcome]:
        indexed, shed = self._shed(indexed, have_fallback)
        self._count_wasted(indexed)
        with self.spans.span_if_active("enactor.reserve", step="5",
                                       entries=len(indexed)):
            with self.metrics.time("enactor_step_seconds", step="reserve"):
                outcomes = self.coallocator.reserve_batch(
                    indexed, rtype=rtype, duration=duration,
                    start_time=start_time, timeout=timeout)
                outcomes = self._retry_failed(outcomes, rtype, duration,
                                              start_time, timeout)
        outcomes.extend(shed)
        self.stats.reservation_requests += len(indexed)
        self.metrics.count("enactor_reservation_requests_total",
                           len(indexed))
        cancelled = self._cancelled_targets
        for o in outcomes:
            if o.ok:
                self.stats.reservations_granted += 1
                self.metrics.count("enactor_reservations_granted_total")
                # nothing cancelled yet (the usual case): nothing to hash
                if cancelled and (o.mapping.host_loid, o.mapping.vault_loid,
                                  o.mapping.class_loid) in cancelled:
                    self.stats.thrash_count += 1
                    self.metrics.count("enactor_thrash_total")
        return outcomes

    def _retry_failed(self, outcomes: List[ReservationOutcome],
                      rtype: ReservationType, duration: float,
                      start_time: float, timeout: float
                      ) -> List[ReservationOutcome]:
        """Re-issue reservations that failed transiently (lost messages),
        under the installed :attr:`retry_policy`.  Without a policy (the
        default) this is a no-op."""
        policy = self.retry_policy
        if policy is None:
            return outcomes
        first_try = self.transport.sim.now
        attempt = 0
        while True:
            failed = [(pos, o) for pos, o in enumerate(outcomes)
                      if not o.ok and o.exception is not None
                      and policy.is_retryable(o.exception)]
            if not failed:
                return outcomes
            attempt += 1
            delay = policy.next_delay(failed[0][1].exception, attempt,
                                      self.transport.sim.now - first_try)
            if delay is None:
                return outcomes
            self.stats.reservation_retries += len(failed)
            self.metrics.count("enactor_reservation_retries_total",
                               len(failed))
            self.transport.sim.run_until(self.transport.sim.now + delay)
            self._count_wasted([(o.index, o.mapping) for _, o in failed])
            redo = self.coallocator.reserve_batch(
                [(o.index, o.mapping) for _, o in failed],
                rtype=rtype, duration=duration,
                start_time=start_time, timeout=timeout)
            for (pos, _), new_outcome in zip(failed, redo):
                outcomes[pos] = new_outcome

    def _cancel_holdings(self, holdings: Dict[int, _Holding]) -> None:
        if not holdings:
            return
        pairs = [(h.mapping, h.token) for h in holdings.values()]
        for mapping, _tok in pairs:
            self._cancelled_targets.add(
                (mapping.host_loid, mapping.vault_loid, mapping.class_loid))
        with self.spans.span_if_active("enactor.cancel",
                                       entries=len(pairs)):
            with self.metrics.time("enactor_step_seconds", step="cancel"):
                cancelled = self.coallocator.cancel_batch(pairs)
        self.stats.cancellations += cancelled
        self.metrics.count("enactor_cancellations_total", cancelled)

    def _try_master(self, request: ScheduleRequestList, m_idx: int,
                    master: MasterSchedule, rtype: ReservationType,
                    duration: float, start_time: float,
                    timeout: float) -> ScheduleFeedback:
        entries = master.resolve()
        indexed = list(enumerate(entries))
        holdings: Dict[int, _Holding] = {}
        errors: Dict[int, str] = {}

        outcomes = self._reserve(
            indexed, rtype, duration, start_time, timeout,
            have_fallback=bool(master.variants)
            or master.required_k is not None)
        for o in outcomes:
            if o.ok:
                holdings[o.index] = _Holding(o.mapping, o.token)
            else:
                errors[o.index] = o.error

        # -- k-of-n masters ------------------------------------------------
        if master.required_k is not None:
            if len(holdings) >= master.required_k:
                keep = sorted(holdings)[: master.required_k]
                surplus = {i: holdings[i] for i in holdings
                           if i not in keep}
                self._cancel_holdings(surplus)
                kept = {i: holdings[i] for i in keep}
                return self._success(request, m_idx, None, kept)
            self._cancel_holdings(holdings)
            return ScheduleFeedback(
                request=request, ok=False,
                failure_kind=FailureKind.RESOURCES,
                failure_detail=(f"k-of-n: only {len(holdings)} of "
                                f"{master.required_k} required entries "
                                f"reserved"),
                entry_errors=errors)

        failed = sorted(set(range(len(entries))) - set(holdings))
        if not failed:
            return self._success(request, m_idx, None, holdings)

        # -- variant fallback ------------------------------------------------
        tried: List[VariantSchedule] = []
        current_entries = entries
        while failed and len(tried) < self.max_variant_attempts:
            variant = master.select_variant(failed, exclude=tried)
            if variant is None:
                break
            tried.append(variant)
            self.stats.variant_attempts += 1
            self.metrics.count("enactor_variant_attempts_total")
            new_entries = master.resolve(variant)

            with self.spans.span_if_active("enactor.variant", step="6",
                                           label=variant.label) as v_span:
                if self.naive_variant_handling:
                    # ablation: cancel everything and re-reserve the variant
                    self._cancel_holdings(holdings)
                    holdings = {}
                    to_reserve = list(enumerate(new_entries))
                else:
                    to_reserve = []
                    replaced: Dict[int, _Holding] = {}
                    for idx, replacement in variant.replacements.items():
                        held = holdings.get(idx)
                        if held is not None:
                            if held.mapping.same_target(replacement):
                                # anti-thrashing: keep the reservation
                                continue
                            replaced[idx] = holdings.pop(idx)
                        to_reserve.append((idx, replacement))
                    # one release exchange, landing before any replacement
                    # request leaves; failed entries not replaced cannot
                    # exist (covers() holds)
                    self._cancel_holdings(replaced)

                outcomes = self._reserve(to_reserve, rtype, duration,
                                         start_time, timeout)
                for o in outcomes:
                    if o.ok:
                        holdings[o.index] = _Holding(o.mapping, o.token)
                        errors.pop(o.index, None)
                    else:
                        errors[o.index] = o.error
                current_entries = new_entries
                failed = sorted(set(range(len(current_entries)))
                                - set(holdings))
                v_span.set_attribute("ok", not failed)
                if failed:
                    v_span.set_status("error")
            if not failed:
                return self._success(request, m_idx, variant, holdings)

        self._cancel_holdings(holdings)
        return ScheduleFeedback(
            request=request, ok=False,
            failure_kind=FailureKind.RESOURCES,
            failure_detail=f"master {m_idx}: entries {failed} unreservable "
                           f"after {len(tried)} variant(s)",
            entry_errors=errors)

    def _success(self, request: ScheduleRequestList, m_idx: int,
                 variant: Optional[VariantSchedule],
                 holdings: Dict[int, _Holding]) -> ScheduleFeedback:
        entries = [(i, holdings[i].mapping) for i in sorted(holdings)]
        handle = _ReservationSet(m_idx, entries, dict(holdings))
        return ScheduleFeedback(
            request=request, ok=True, master_index=m_idx, variant=variant,
            reserved_entries=[m for _, m in entries],
            reservation_handle=handle)

    # ------------------------------------------------------------------
    # cancel_reservations
    # ------------------------------------------------------------------
    def cancel_reservations(self, feedback: ScheduleFeedback) -> int:
        """Release every reservation held by a successful feedback."""
        handle = self._handle_of(feedback)
        n = len(handle.holdings)
        self._cancel_holdings(handle.holdings)
        handle.holdings.clear()
        return n

    # ------------------------------------------------------------------
    # enact_schedule
    # ------------------------------------------------------------------
    def _handle_of(self, feedback: ScheduleFeedback) -> _ReservationSet:
        handle = feedback.reservation_handle
        if not isinstance(handle, _ReservationSet):
            raise EnactmentError(
                "feedback carries no reservation handle — call "
                "make_reservations first and check feedback.ok")
        return handle

    def enact_schedule(self, feedback: ScheduleFeedback,
                       rollback_on_failure: bool = False) -> EnactResult:
        """Instantiate objects on the reserved resources (steps 7-11).

        Invokes ``create_instance`` with directed placement (LOID +
        reservation token) on each entry's Class object.  "The class objects
        report success/failure codes, and the Enactor returns the result to
        the Scheduler."
        """
        handle = self._handle_of(feedback)
        if handle.enacted:
            raise EnactmentError("this reservation set was already enacted")
        result = EnactResult(ok=True)
        with self.spans.span_if_active("enactor.enact", step="7-11",
                                       entries=len(handle.entries)
                                       ) as e_span:
            with self.metrics.time("enactor_step_seconds", step="enact"):
                self._enact_entries(handle, result)
            e_span.set_attribute("ok", result.ok)
            if not result.ok:
                e_span.set_status("error")
        handle.enacted = True
        if result.ok:
            self.stats.enactments += 1
        else:
            self.stats.enact_failures += 1
            result.detail = "; ".join(
                f"entry {i}: {r.reason}"
                for i, r in sorted(result.entry_results.items())
                if not r.ok)
            if rollback_on_failure and result.created:
                for loid in result.created:
                    class_obj = self.resolver(loid.class_loid())
                    if isinstance(class_obj, ClassObject):
                        try:
                            class_obj.destroy_instance(
                                loid, now=self.transport.sim.now)
                        except Exception:
                            pass
                result.created = []
            if rollback_on_failure and result.suspect:
                # unacked creates: resolve each suspect token to the
                # instances the Class actually started under it
                reaped = 0
                for class_obj, token in result.suspect:
                    reaped += len(class_obj.reap_reserved(
                        token, now=self.transport.sim.now))
                if reaped:
                    self.stats.unacked_reaps += reaped
                    self.metrics.count(
                        "enactor_unacked_creates_reaped_total", reaped)
        self.metrics.count("enactor_enactments_total",
                           ok=str(result.ok).lower())
        return result

    def _enact_entries(self, handle: _ReservationSet,
                       result: EnactResult) -> None:
        """Steps 7-11: create instances for each held entry in place.

        The remote creates go out as one batch, so enactment costs the
        slowest create round trip, as negotiation does; each executes at
        its own arrival instant and its ack can still be lost.  A batch of
        one is a plain ``invoke``."""
        entries: List[Tuple[int, Any, Any]] = []  # (idx, class, token)
        outcomes: List[Optional[CallOutcome]] = []  # one per entry
        calls: List[Call] = []
        call_slots: List[int] = []
        for idx, mapping in handle.entries:
            holding = handle.holdings.get(idx)
            if holding is None:
                continue  # cancelled out from under us
            class_obj = self.resolver(mapping.class_loid)
            if not isinstance(class_obj, ClassObject):
                entries.append((idx, None, None))
                outcomes.append(CallOutcome(True, value=CreateResult(
                    False, reason=f"unknown class {mapping.class_loid}")))
                continue
            entries.append((idx, class_obj, holding.token))
            host = self.resolver(mapping.host_loid)
            placement = Placement(host_loid=mapping.host_loid,
                                  vault_loid=mapping.vault_loid,
                                  reservation_token=holding.token,
                                  implementation=mapping.implementation)

            def create(p=placement, n=mapping.gang, c=class_obj):
                return c.create_instances(p, n, now=self.transport.sim.now)

            if host is None:
                try:
                    outcomes.append(CallOutcome(True, value=create()))
                except Exception as exc:
                    outcomes.append(CallOutcome(False, error=exc))
                continue
            call_slots.append(len(outcomes))
            outcomes.append(None)
            calls.append(Call(self.location, host.location, create,
                              label="create_instance", acked=True))

        issue = (self.transport.invoke_each if len(calls) == 1
                 else self.coallocator.issue)
        for pos, outcome in zip(call_slots, issue(calls)):
            outcomes[pos] = outcome
        for (idx, class_obj, token), outcome in zip(entries, outcomes):
            if outcome.ok:
                created = outcome.value
            else:
                exc = outcome.error
                created = CreateResult(
                    False, reason=f"{type(exc).__name__}: {exc}")
                if isinstance(exc, NetworkError):
                    # the create may have executed with its ack lost —
                    # remember the token so rollback can reap blind
                    result.suspect.append((class_obj, token))
            result.entry_results[idx] = created
            if created.ok and created.loid is not None:
                result.created.extend(created.loids or [created.loid])
            else:
                result.ok = False
