"""The execution Monitor (paper sections 3 and 3.5).

"After the objects are running, the execution Monitor may request a
recomputation of the schedule, perhaps based on the progress of the
computation and the load on the hosts in the system."  "Using [the RGE]
mechanism, the Monitor can register an outcall with the Host Objects; this
outcall will be performed when a trigger's guard evaluates to true. ...
In our actual implementation, we have no separate monitor objects; the
Enactor or Scheduler perform the monitoring, with the outcall registered
appropriately."

:class:`ExecutionMonitor` is that optional component: it watches a set of
hosts via their load triggers (steps 12-13 of Fig. 3), and when a host
reports overload it selects a victim object and asks the rescheduling policy
for a new placement, then drives the :class:`~repro.monitor.migration.
Migrator`.  The default rescheduling policy queries the Collection for the
least-loaded viable host — a user can substitute any Scheduler, which is the
paper's modularity story applied to monitoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from ..collection.collection import Collection
from ..hosts.host_object import HostObject
from ..hosts.unix_host import UnixHost
from ..naming.loid import LOID
from ..objects.rge import TriggerFiring
from .migration import MigrationReport, Migrator

__all__ = ["ExecutionMonitor", "MonitorStats"]

Resolver = Callable[[LOID], Any]


@dataclass
class MonitorStats:
    outcalls_received: int = 0
    reschedules_attempted: int = 0
    migrations_succeeded: int = 0
    migrations_failed: int = 0
    reports: List[MigrationReport] = field(default_factory=list)


#: victim objects moved off a host per overload outcall
MAX_MIGRATIONS_PER_EVENT = 1


class ExecutionMonitor:
    """Trigger-driven rescheduling agent.

    Rescheduling decisions are delegated to a pluggable
    :class:`~repro.monitor.policies.ReschedulePolicy`; the default is
    greedy least-loaded, and :class:`~repro.monitor.policies.
    SchedulerBacked` recomputes placements with any real Scheduler.
    """

    def __init__(self, migrator: Migrator, collection: Collection,
                 resolver: Resolver,
                 min_load_advantage: float = 1.0,
                 enabled: bool = True,
                 policy: Optional["ReschedulePolicy"] = None):
        from .policies import GreedyLeastLoaded, ReschedulePolicy
        self.migrator = migrator
        self.collection = collection
        self.resolver = resolver
        #: destination must be at least this much less loaded than source
        #: (consumed by the default policy)
        self.min_load_advantage = min_load_advantage
        self.enabled = enabled
        self.policy: ReschedulePolicy = policy or GreedyLeastLoaded(
            collection, resolver, min_load_advantage=min_load_advantage)
        self.stats = MonitorStats()
        self._watched: List[HostObject] = []

    # -- registration (step 12: outcall to the Monitor) ----------------------
    def watch(self, host: HostObject) -> None:
        """Register this monitor's outcall with a host's high-load
        trigger (:attr:`UnixHost.LOAD_EVENT`)."""
        host.rge.register_outcall(UnixHost.LOAD_EVENT, self._on_overload)
        self._watched.append(host)

    def watch_all(self, hosts: Sequence[HostObject]) -> None:
        for host in hosts:
            self.watch(host)

    # -- the outcall -------------------------------------------------------------
    def _on_overload(self, firing: TriggerFiring) -> None:
        """Step 13: notify that rescheduling should be performed."""
        self.stats.outcalls_received += 1
        if not self.enabled:
            return
        host = firing.source
        if not isinstance(host, HostObject):
            return
        self.rebalance_host(host)

    # -- rescheduling (delegated to the policy) ---------------------------------
    def _pick_victims(self, host: HostObject) -> List[LOID]:
        return self.policy.pick_victims(host, MAX_MIGRATIONS_PER_EVENT)

    def rebalance_host(self, host: HostObject) -> List[MigrationReport]:
        """Move victim objects from an overloaded host to better homes."""
        reports: List[MigrationReport] = []
        for victim in self._pick_victims(host):
            placed = host.placed.get(victim)
            if placed is None:
                continue
            dest = self.policy.pick_destination(
                placed.instance.class_loid, host)
            if dest is None:
                continue
            self.stats.reschedules_attempted += 1
            report = self.migrator.migrate(victim, dest)
            reports.append(report)
            self.stats.reports.append(report)
            if report.ok:
                self.stats.migrations_succeeded += 1
            else:
                self.stats.migrations_failed += 1
        return reports
