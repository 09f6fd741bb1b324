"""Resource price discovery: hosts publish ask prices into the Collection.

The supply side of the computational economy.  Each enrolled host gets a
**base ask** derived from its hardware (faster machines charge a speed
premium, the GRACE "resource owners set prices" idea from Nimrod/G), and
a seeded, deterministic **repricing daemon** adjusts the ask with demand:

    ask = base x (1 + load_factor x load) x (1 + util_factor x busy/slots)
              x (1 +- jitter)

The adjusted ask is written to ``host.price`` (so the accounting Ledger
meters at the market rate) and published as ``host_ask_price`` in the
host's Collection record (so Schedulers can bid against it at query
time).  All randomness draws from the dedicated ``("economy", "market")``
stream; asks are rounded to 6 decimals, keeping every exported report
byte-stable for a fixed seed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..obs.registry import NULL_METRICS
from ..sim.kernel import Ticker

__all__ = ["Market"]


class Market:
    """Per-host ask pricing plus the periodic repricing daemon."""

    def __init__(self, sim: Any, rng: Any = None,
                 base_price: float = 0.01,
                 speed_premium: float = 1.0,
                 load_factor: float = 0.25,
                 util_factor: float = 0.5,
                 repricing_interval: float = 60.0,
                 repricing_jitter: float = 0.05,
                 demand_bump: float = 0.25,
                 metrics: Any = NULL_METRICS):
        if base_price <= 0:
            raise ValueError("base_price must be positive")
        self.sim = sim
        self.rng = rng
        self.base_price = base_price
        self.speed_premium = speed_premium
        self.load_factor = load_factor
        self.util_factor = util_factor
        self.repricing_interval = repricing_interval
        self.repricing_jitter = repricing_jitter
        self.demand_bump = demand_bump
        self.metrics = metrics
        self._hosts: List[Any] = []
        self._by_loid: Dict[Any, Any] = {}
        self._base: Dict[Any, float] = {}
        self.repricings = 0
        self.awards = 0
        self._ticker: Optional[Ticker] = None

    # -- enrollment ---------------------------------------------------------
    def base_ask_for(self, host: Any) -> float:
        """The demand-independent floor price for one host: a speed-1.0
        machine asks ``base_price`` per cycle; faster hardware charges a
        linear premium per unit of extra speed."""
        speed = float(host.machine.spec.speed)
        return round(self.base_price
                     * (1.0 + self.speed_premium * max(0.0, speed - 1.0)),
                     6)

    def enroll(self, host: Any) -> float:
        """Price a host into the market and publish its initial ask."""
        base = self.base_ask_for(host)
        self._base[host.loid] = base
        self._hosts.append(host)
        self._by_loid[host.loid] = host
        self._publish(host, base)
        return base

    def _publish(self, host: Any, ask: float) -> None:
        host.price = ask
        host.attributes.set("host_ask_price", ask, now=self.sim.now)
        # refresh the Collection record so queries see the new ask
        host.reassess()

    def ask_of(self, host: Any) -> float:
        return float(host.price)

    def note_award(self, host_loid: Any) -> None:
        """Demand signal: a reservation auction just awarded this host,
        so its *advertised ask* rises immediately (before the work even
        lands) and the refreshed Collection record steers concurrent
        bidders elsewhere.  Only the ask moves — ``host.price``, the
        metered billing rate, stays anchored to real load/utilization by
        the repricing sweeps, which also re-anchor the ask once the
        awarded job *is* the load."""
        host = self._by_loid.get(host_loid)
        if host is None or self.demand_bump <= 0:
            return
        self.awards += 1
        ask = float(host.attributes.get("host_ask_price", host.price))
        host.attributes.set("host_ask_price",
                            round(ask * (1.0 + self.demand_bump), 6),
                            now=self.sim.now)
        host.reassess()
        self.metrics.count("economy_demand_bumps_total")

    # -- repricing ----------------------------------------------------------
    def reprice(self) -> None:
        """One repricing sweep over every enrolled, live host."""
        for host in self._hosts:
            if not host.machine.up:
                continue
            base = self._base.get(host.loid)
            if base is None:
                continue
            load = max(0.0, float(host.machine.load_average))
            busy = 1.0 - host.free_slots / max(1, host.slots)
            ask = base * (1.0 + self.load_factor * load) \
                       * (1.0 + self.util_factor * busy)
            if self.repricing_jitter > 0 and self.rng is not None:
                ask *= 1.0 + float(self.rng.uniform(
                    -self.repricing_jitter, self.repricing_jitter))
            ask = round(max(ask, base * 0.5), 6)
            self._publish(host, ask)
            self.metrics.observe("economy_ask_price", ask,
                                 buckets=(0.005, 0.01, 0.02, 0.04,
                                          0.08, 0.16))
        self.repricings += 1
        self.metrics.count("economy_repricings_total")

    def start(self) -> "Market":
        """Begin periodic repricing on the simulator (idempotent)."""
        if self._ticker is not None or self.repricing_interval <= 0:
            return self
        self._ticker = Ticker(self.sim, self.repricing_interval)
        self._ticker.subscribe(self, self.reprice)
        return self

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.unsubscribe(self)
            self._ticker = None

    def __len__(self) -> int:
        return len(self._hosts)
