"""Co-allocation: concurrent reservation negotiation across domains.

"Note that this may require the Enactor to negotiate with several resources
from different administrative domains to perform co-allocation" (section 3).

:class:`CoAllocator` turns a set of schedule entries into one parallel batch
of ``make_reservation`` calls through the transport, so the wall-clock cost
of a multi-domain negotiation is the *slowest* domain's round trip, not the
sum (experiment E8 measures this against sequential negotiation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..hosts.reservations import ReservationToken, ReservationType
from ..naming.loid import LOID
from ..net.topology import NetLocation
from ..net.transport import Call, CallOutcome, Transport
from ..schedule.mapping import ScheduleMapping

__all__ = ["CoAllocator", "ReservationOutcome"]

Resolver = Callable[[LOID], Any]


@dataclass
class ReservationOutcome:
    """Result of one reservation request within a batch."""

    index: int
    mapping: ScheduleMapping
    token: Optional[ReservationToken] = None
    error: str = ""
    #: the raw failure, kept so retry layers can classify retryability
    exception: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        return self.token is not None


class CoAllocator:
    """Issues reservation batches and cancellations through the transport."""

    def __init__(self, transport: Transport, resolver: Resolver,
                 src: Optional[NetLocation] = None,
                 requester_domain: str = "",
                 offered_price: float = 0.0,
                 sequential: bool = False):
        self.transport = transport
        self.resolver = resolver
        self.src = src
        self.requester_domain = requester_domain
        self.offered_price = offered_price
        #: ablation knob — negotiate one resource at a time (E8 baseline)
        self.sequential = sequential
        self.requests_issued = 0

    # -- reservation ---------------------------------------------------------
    def reserve_batch(self, indexed_entries: Sequence[Tuple[int,
                                                            ScheduleMapping]],
                      rtype: ReservationType,
                      duration: float,
                      start_time: float,
                      timeout: float) -> List[ReservationOutcome]:
        """Request a reservation for each (index, mapping) pair."""
        outcomes: List[ReservationOutcome] = []
        calls: List[Call] = []
        call_slots: List[int] = []
        # one kwargs dict and one context for the batch: the callee only
        # reads them
        kwargs = dict(rtype=rtype, start_time=start_time,
                      duration=duration, timeout=timeout,
                      requester_domain=self.requester_domain,
                      offered_price=self.offered_price)
        context = self.transport.spans.current_context()
        for pos, (idx, mapping) in enumerate(indexed_entries):
            outcome = ReservationOutcome(index=idx, mapping=mapping)
            outcomes.append(outcome)
            host = self.resolver(mapping.host_loid)
            if host is None:
                outcome.error = f"unknown host {mapping.host_loid}"
                continue
            calls.append(Call(
                src=self.src, dst=host.location,
                fn=host.make_reservation,
                args=(mapping.vault_loid, mapping.class_loid),
                kwargs=kwargs, label=f"make_reservation[{idx}]",
                context=context))
            call_slots.append(pos)
        self.requests_issued += len(calls)

        for raw, pos in zip(self.issue(calls), call_slots):
            if raw.ok:
                outcomes[pos].token = raw.value
            else:
                error = raw.error
                outcomes[pos].error = (f"{type(error).__name__}: {error}"
                                       if error is not None else "failed")
                outcomes[pos].exception = error
        return outcomes

    def issue(self, calls: Sequence[Call]) -> List[CallOutcome]:
        """Send one batch: concurrently, or one call after another under
        the sequential ablation (E8's baseline, for reservations and
        creates alike)."""
        if self.sequential:
            return self.transport.invoke_each(calls)
        return self.transport.parallel_invoke(calls)

    # -- cancellation -----------------------------------------------------------
    def cancel_batch(self, holdings: Sequence[Tuple[ScheduleMapping,
                                                    ReservationToken]]
                     ) -> int:
        """Cancel reservations; returns how many cancellations were sent.

        Cancellation failures are swallowed — a dead host's reservation will
        simply expire.
        """
        calls: List[Call] = []
        context = self.transport.spans.current_context()
        for mapping, token in holdings:
            host = self.resolver(mapping.host_loid)
            if host is None:
                continue
            calls.append(Call(src=self.src, dst=host.location,
                              fn=host.cancel_reservation, args=(token,),
                              label="cancel_reservation", context=context))
        if not calls:
            return 0
        self.transport.parallel_invoke(calls)
        return len(calls)

    def domains_involved(self,
                         entries: Sequence[ScheduleMapping]) -> List[str]:
        """Distinct administrative domains named by a schedule."""
        domains = set()
        for mapping in entries:
            host = self.resolver(mapping.host_loid)
            if host is not None:
                domains.add(host.domain)
        return sorted(domains)
