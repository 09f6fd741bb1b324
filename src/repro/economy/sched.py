"""Economic schedulers: optimize time or cost inside a budget/deadline box.

Nimrod/G's two classic optimization modes (PAPERS.md), built on
:class:`~repro.accounting.cost_sched.CostAwareScheduler`'s estimate
machinery and cleared through the sealed-bid
:class:`~repro.economy.auction.SealedBidAuction`:

* ``mode="cost"`` — **cost-minimize within deadline**: among hosts whose
  estimated completion meets the user's remaining deadline, award the
  reservation to the lowest ask (the auction's natural clearing).  As the
  deadline shrinks the feasible set drains toward faster, pricier hosts
  on its own.
* ``mode="time"`` — **time-minimize within budget**: among hosts whose
  ask fits under the current bid ceiling, take the fastest estimated
  completion; the auction clears among the tied-fastest tier so the user
  still pays the cheapest price that buys that speed.

Both modes bid under a **DBC-style adaptive ceiling**: early in the
user's deadline window the scheduler offers only a thrifty fraction
``1 / (1 + BID_ESCALATION)`` of the affordable rate, then escalates
linearly to the full affordable rate once ``ESCALATION_ONSET`` of the
deadline has elapsed — spend reluctantly while there is slack, pay
whatever the budget allows when time runs out.

Budget discipline: every awarded entry takes a **hold** of
``cleared_rate x advertised_work`` before reservations are negotiated
(raising :class:`~repro.errors.BudgetExceededError` when the account
cannot cover it); the wrapper releases all holds of a failed attempt and
binds each created instance to its cleared rate on success, so the
:class:`~repro.economy.budget.BudgetManager` charges actual cycles at
auction prices and never lets spend + holds exceed the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..accounting.cost_sched import CostAwareScheduler
from ..collection.records import CollectionRecord
from ..errors import BudgetExceededError
from ..naming.loid import LOID
from ..schedule.mapping import ScheduleMapping
from ..schedule.schedule import MasterSchedule, ScheduleRequestList
from ..scheduler.base import ObjectClassRequest, SchedulingOutcome
from .auction import Ask
from .budget import BudgetManager
from .market import DEMAND_BUMP

__all__ = ["EconomyScheduler"]

#: DBC-style bid escalation: the affordable ceiling is multiplied by up
#: to ``1 + BID_ESCALATION`` as the user's deadline approaches
BID_ESCALATION = 0.5
#: fraction of the deadline elapsed before escalation starts
ESCALATION_ONSET = 0.5


@dataclass
class _PendingBid:
    """One awarded entry, not yet enacted: the money at stake."""

    user: str
    work: float
    hold: float                      # committed = rate x work
    rate: float                      # cleared price per cycle (master host)
    #: affordable rates per candidate host (price-protects variant swaps)
    rate_by_host: Dict[str, float] = field(default_factory=dict)


class EconomyScheduler(CostAwareScheduler):
    """Budget/deadline-boxed placement cleared by sealed-bid auction."""

    def __init__(self, *args, budgets: BudgetManager, auction,
                 market=None, user: str = "default", mode: str = "cost",
                 deadline_safety: float = 0.6, **kwargs):
        super().__init__(*args, **kwargs)
        if mode not in ("cost", "time"):
            raise ValueError("mode must be 'cost' or 'time'")
        if not 0 < deadline_safety <= 1.0:
            raise ValueError("deadline_safety must be in (0, 1]")
        self.budgets = budgets
        self.auction = auction
        self.market = market
        #: completion estimates must fit inside this fraction of the
        #: remaining deadline — headroom for estimate error, background
        #: load growth, and (under chaos) a re-run after a host crash
        self.deadline_safety = deadline_safety
        self.user = user
        self.mode = mode
        #: virtual time the user's deadline clock started (first run)
        self._t0: Optional[float] = None
        #: bids awaiting enactment, in master-schedule entry order
        self._pending: List[_PendingBid] = []
        self.escalations = 0

    # -- deadline pressure --------------------------------------------------
    def _now(self) -> float:
        return self.transport.sim.now

    def deadline_remaining(self) -> float:
        """Virtual seconds left on the user's deadline."""
        deadline = self.budgets.account(self.user).deadline
        if deadline == float("inf"):
            return float("inf")
        t0 = self._t0 if self._t0 is not None else self._now()
        return deadline - (self._now() - t0)

    def bid_ceiling_factor(self) -> float:
        """DBC escalation: fraction of the affordable rate we bid now."""
        thrift = 1.0 / (1.0 + BID_ESCALATION)
        deadline = self.budgets.account(self.user).deadline
        if deadline == float("inf"):
            return 1.0
        t0 = self._t0 if self._t0 is not None else self._now()
        elapsed = (self._now() - t0) / deadline
        if elapsed <= ESCALATION_ONSET:
            return thrift
        pressure = min(1.0, (elapsed - ESCALATION_ONSET)
                       / (1.0 - ESCALATION_ONSET))
        if pressure > 0:
            self.escalations += 1
        return thrift + (1.0 - thrift) * pressure

    # -- asks ----------------------------------------------------------------
    def _ask_of(self, record: CollectionRecord) -> float:
        value = record.get("host_ask_price")
        if value is None:
            value = record.get("host_price", 0.0)
        return float(value)

    def _round_ask(self, record: CollectionRecord,
                   assigned: Dict[LOID, int]) -> float:
        """The record's ask inflated by this round's own awards to the
        same host — the local mirror of the market's demand bump, since
        the Collection record we hold is a snapshot."""
        ask = self._ask_of(record)
        n = assigned.get(record.member, 0)
        if n and self.market is not None:
            ask *= (1.0 + DEMAND_BUMP) ** n
        return round(ask, 6)

    # -- hold bookkeeping ----------------------------------------------------
    def release_pending(self) -> None:
        """Refund every hold of a not-yet-enacted attempt."""
        for bid in self._pending:
            self.budgets.release(bid.user, bid.hold)
        self._pending = []

    # -- placement ------------------------------------------------------------
    def compute_schedule(self, requests: Sequence[ObjectClassRequest]
                         ) -> ScheduleRequestList:
        # a recomputation abandons the previous attempt's holds first,
        # otherwise the wrapper's retries would bleed the budget dry
        self.release_pending()
        if self._t0 is None:
            self._t0 = self._now()
        account = self.budgets.account(self.user)
        remaining_deadline = self.deadline_remaining()
        ceiling_factor = self.bid_ceiling_factor()

        candidates: List[List[ScheduleMapping]] = []
        pending: List[_PendingBid] = []
        assigned: Dict[LOID, int] = {}
        metrics = self.transport.metrics
        try:
            for request in requests:
                class_obj = request.class_obj
                records = self.viable_hosts(
                    class_obj, extra_query="$host_slots_free > 0")
                records = self.require_hosts(
                    [r for r in records if r.get("host_health") != "down"],
                    class_obj)
                work = self._work_of(request)
                self.budgets.register_class(class_obj.loid, self.user)
                for _i in range(request.count):
                    # the budget box: most we can pay per cycle right now
                    affordable = account.available / max(work, 1e-9)
                    ceiling = affordable * ceiling_factor
                    tier, pool = self._candidates(
                        records, work, assigned, remaining_deadline,
                        ceiling)
                    if not tier:
                        # escalate once to the full affordable rate
                        # before giving up (deadline-pressure override)
                        if ceiling < affordable:
                            self.escalations += 1
                            tier, pool = self._candidates(
                                records, work, assigned,
                                remaining_deadline, affordable)
                            ceiling = affordable
                    if not tier:
                        raise BudgetExceededError(
                            f"user {self.user!r}: no host asks <= "
                            f"affordable rate {affordable:.6f} "
                            f"(budget available {account.available:.4f}, "
                            f"work {work:.2f})")
                    result = self.auction.clear(
                        [Ask(r.member, self._round_ask(r, assigned),
                             record=r)
                         for r in tier],
                        ceiling=ceiling)
                    best = result.winner.record
                    rate = result.clearing_price
                    # alternates: next-best from the ranked affordable
                    # pool, price-protected at the cleared rate (a
                    # variant swap never costs the user more than the
                    # agreed master rate); a refused master takes no hold
                    runners = [r for r in pool
                               if r.member != best.member][: self.N_VARIANTS]
                    candidates.append(self.candidates_for(
                        class_obj, [best, *runners]))
                    hold = round(rate * work, 6)
                    self.budgets.hold(self.user, hold)
                    assigned[best.member] = assigned.get(best.member, 0) + 1
                    if self.market is not None:
                        # demand signal: republish the winner's ask so
                        # concurrent bidders see the award immediately
                        self.market.note_award(best.member)
                    rate_by_host = {str(best.member): rate}
                    for record in runners:
                        rate_by_host[str(record.member)] = round(
                            min(self._ask_of(record), rate), 6)
                    pending.append(_PendingBid(
                        user=self.user, work=work, hold=hold, rate=rate,
                        rate_by_host=rate_by_host))
                    metrics.count("economy_bids_total", mode=self.mode,
                                  user=self.user)
        except Exception:
            # abandon this attempt's holds before propagating
            for bid in pending:
                self.budgets.release(bid.user, bid.hold)
            raise
        self._pending = pending

        label = f"economy-{self.mode}"
        master = MasterSchedule.from_candidates(candidates, label,
                                                label + "-alt-{}")
        return ScheduleRequestList([master], label=label)

    def _candidates(self, records, work, assigned, remaining_deadline,
                    ceiling):
        """Mode-dependent auction tier plus the ranked fallback pool.

        Returns ``(tier, pool)``: ``tier`` is the candidate set handed to
        the auction; ``pool`` is every affordable record ranked by the
        mode's preference, from which variant schedules are drawn (the
        tier can be a single host, but enactment still needs fallbacks).
        """
        # never overcommit a host past its advertised free slots: piling
        # this round's award onto an already-chosen cheap host slows every
        # job there AND drives its ask up before the work even lands
        records = [r for r in records
                   if assigned.get(r.member, 0)
                   < int(r.get("host_slots_free", 1))]
        # risk spreading: while untouched hosts remain this round, don't
        # stack a second award on one — a single host failure then costs
        # at most one instance (and the stacked jobs would contend anyway)
        fresh = [r for r in records if not assigned.get(r.member, 0)]
        if fresh:
            records = fresh
        affordable = [r for r in records
                      if self._round_ask(r, assigned) <= ceiling]
        if not affordable:
            return [], []

        def completion(r):
            return self.estimated_completion(r, work,
                                             assigned.get(r.member, 0))

        feasible = [r for r in affordable
                    if completion(r)
                    <= remaining_deadline * self.deadline_safety]
        if self.mode == "cost":
            tier = feasible
            pool = sorted(feasible or affordable,
                          key=lambda r: (self._round_ask(r, assigned),
                                         completion(r), str(r.member)))
            if not tier:
                # deadline unreachable: degrade to the fastest affordable
                # tier so the run still completes (matching the parent's
                # degrade semantics)
                pool = sorted(affordable,
                              key=lambda r: (completion(r),
                                             self._round_ask(r, assigned),
                                             str(r.member)))
                tier = feasible
        else:
            pool = sorted(feasible or affordable,
                          key=lambda r: (completion(r),
                                         self._round_ask(r, assigned),
                                         str(r.member)))
            tier = []
        if not tier:
            # fastest tier: everything tied with the front of the pool
            best_t = completion(pool[0])
            tier = [r for r in pool if completion(r) <= best_t + 1e-9]
        return tier, pool

    # -- the wrapper, with refund/bind hooks --------------------------------
    def run(self, requests: Sequence[ObjectClassRequest],
            reservation_duration: float = 3600.0) -> SchedulingOutcome:
        outcome = super().run(requests,
                              reservation_duration=reservation_duration)
        metrics = self.transport.metrics
        if outcome.ok and outcome.feedback is not None:
            reserved = outcome.feedback.reserved_entries
            for bid, mapping, loid in zip(self._pending, reserved,
                                          outcome.created):
                rate = bid.rate_by_host.get(str(mapping.host_loid),
                                            bid.rate)
                self.budgets.bind_instance(loid, bid.user, rate, bid.hold)
            self._pending = []
            metrics.count("economy_placements_total", mode=self.mode,
                          outcome="ok")
        else:
            # failed or partially-failed placement: refund everything
            self.release_pending()
            metrics.count("economy_placements_total", mode=self.mode,
                          outcome="failed")
        return outcome
