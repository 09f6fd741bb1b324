"""Accounting: metered charging for consumed cycles.

Paper section 3.1 lists, among the rich information a Host can export,
"the amount charged per CPU cycle consumed"; section 1 frames users as
optimizing "throughput, turnaround time, **or cost**".  The ledger closes
that loop: hosts meter the cycles each placed object actually consumed
(completion, kill, or deactivation) and post charges at their advertised
price; Schedulers can then optimize against *real* costs, and experiments
can audit them (E20).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..hosts.host_object import HostObject
from ..naming.loid import LOID
from ..objects.base import LegionObject

__all__ = ["ChargeRecord", "Ledger"]


@dataclass(frozen=True)
class ChargeRecord:
    """One posted charge."""

    time: float
    host_loid: LOID
    instance_loid: LOID
    class_loid: LOID
    cycles: float
    price_per_cycle: float

    @property
    def amount(self) -> float:
        return self.cycles * self.price_per_cycle


class Ledger:
    """Collects charges from attached hosts."""

    def __init__(self, clock=None):
        self._clock = clock or (lambda: 0.0)
        self.records: List[ChargeRecord] = []
        self._attached: List[HostObject] = []
        #: optional post hook, called with each ChargeRecord as it lands —
        #: the economy's BudgetManager installs itself here to turn
        #: metered cycles into per-user spend
        self.on_post = None

    # -- attachment -----------------------------------------------------------
    def attach(self, host: HostObject) -> None:
        """Install this ledger as the host's billing hook."""
        def bill(instance: LegionObject, cycles: float,
                 h: HostObject = host) -> None:
            self.post(h, instance, cycles)
        host.billing = bill
        self._attached.append(host)

    def attach_all(self, hosts) -> None:
        for host in hosts:
            self.attach(host)

    # -- posting --------------------------------------------------------------
    def post(self, host: HostObject, instance: LegionObject,
             cycles: float) -> ChargeRecord:
        # the rate quoted when the instance was admitted wins over the
        # host's *current* price: with a live market the ask may have
        # moved while the job ran, but the fare was agreed at the start
        price = instance.attributes.get("price_at_start")
        if price is None:
            price = host.price
        record = ChargeRecord(
            time=self._clock(),
            host_loid=host.loid,
            instance_loid=instance.loid,
            class_loid=instance.class_loid,
            cycles=float(cycles),
            price_per_cycle=float(price))
        self.records.append(record)
        if self.on_post is not None:
            self.on_post(record)
        return record

    # -- reporting --------------------------------------------------------------
    @property
    def total(self) -> float:
        return sum(r.amount for r in self.records)

    def cycles_by_host(self) -> Dict[LOID, float]:
        out: Dict[LOID, float] = {}
        for r in self.records:
            out[r.host_loid] = out.get(r.host_loid, 0.0) + r.cycles
        return out

    def __len__(self) -> int:
        return len(self.records)
