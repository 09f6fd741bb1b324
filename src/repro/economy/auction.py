"""Sealed-bid reservation auctions: clearing ask prices deterministically.

A placement round is a **reverse auction**: every feasible host submits
its published ask (sealed — asks are set by the market daemon, not
adjusted per-round), and the auctioneer awards the reservation to the
*lowest* ask, breaking ties deterministically by ``(price, str(loid))``.

Two pricing rules, selected by :class:`SealedBidAuction`'s ``pricing``:

* **first-price** — the winner is paid its own ask;
* **second-price** (default) — the winner is paid the runner-up's ask
  (reverse-Vickrey: truthful asking is dominant because undercutting
  cannot change what you are paid, only whether you win).

The cleared price becomes the rate the user's budget hold is taken at;
``efficiency`` (minimum feasible ask / cleared price, summed across
rounds) measures how much the pricing rule cost users relative to the
theoretical cheapest clearing — 1.0 for first-price, <= 1.0 for
second-price.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from ..obs.registry import NULL_METRICS

__all__ = ["Ask", "AuctionResult", "SealedBidAuction"]


@dataclass(frozen=True)
class Ask:
    """One host's sealed ask for a reservation round."""

    host_loid: Any
    price: float
    #: the Collection record the ask came from (carried for the winner)
    record: Any = None

    @property
    def sort_key(self):
        return (self.price, str(self.host_loid))


@dataclass
class AuctionResult:
    """Outcome of one clearing round."""

    winner: Optional[Ask]
    #: price the winner is actually paid (== rate the user is charged)
    clearing_price: float = 0.0
    #: lowest feasible ask in the round (efficiency numerator)
    min_ask: float = 0.0
    #: number of feasible asks considered
    n_asks: int = 0

    @property
    def cleared(self) -> bool:
        return self.winner is not None


class SealedBidAuction:
    """Deterministic sealed-bid clearing with running efficiency stats."""

    def __init__(self, pricing: str = "second",
                 metrics: Any = NULL_METRICS):
        if pricing not in ("first", "second"):
            raise ValueError("pricing must be 'first' or 'second'")
        self.pricing = pricing
        self.metrics = metrics
        self.rounds = 0
        self.cleared_rounds = 0
        self.sum_min_ask = 0.0
        self.sum_clearing = 0.0

    def clear(self, asks: Sequence[Ask],
              ceiling: float = float("inf")) -> AuctionResult:
        """Run one round over ``asks``; only asks <= ``ceiling`` (the
        bidder's affordable price) are feasible."""
        self.rounds += 1
        feasible = sorted((a for a in asks if a.price <= ceiling),
                          key=lambda a: a.sort_key)
        if not feasible:
            self.metrics.count("economy_auction_rounds_total",
                               outcome="uncleared")
            return AuctionResult(winner=None, n_asks=0)
        winner = feasible[0]
        if self.pricing == "first" or len(feasible) == 1:
            price = winner.price
        else:
            # reverse second-price: pay the runner-up's ask, but never
            # more than the bidder declared affordable
            price = min(feasible[1].price, ceiling)
        price = round(price, 6)
        self.cleared_rounds += 1
        self.sum_min_ask += winner.price
        self.sum_clearing += price
        self.metrics.count("economy_auction_rounds_total",
                           outcome="cleared")
        self.metrics.observe("economy_clearing_price", price,
                             buckets=(0.005, 0.01, 0.02, 0.04,
                                      0.08, 0.16))
        return AuctionResult(winner=winner, clearing_price=price,
                             min_ask=winner.price, n_asks=len(feasible))

    @property
    def efficiency(self) -> float:
        """sum(min feasible ask) / sum(cleared price) across all cleared
        rounds — 1.0 means users paid the theoretical minimum."""
        if self.sum_clearing <= 0:
            return 1.0
        return min(1.0, self.sum_min_ask / self.sum_clearing)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pricing": self.pricing,
            "rounds": self.rounds,
            "cleared_rounds": self.cleared_rounds,
            "efficiency": round(self.efficiency, 6),
            "sum_clearing": round(self.sum_clearing, 6),
        }
