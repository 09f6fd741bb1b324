"""The four resource-management layering schemes (paper Fig. 2).

(a) **Application + Scheduler + RM services in the app** — the application
    does it all: probes resources directly, decides placement, negotiates
    reservations itself.
(b) **Application + Scheduler in the app, RM services separate** — the
    application makes its own placement decision (from Collection data) but
    uses the provided RM services (the Enactor) to negotiate with resources.
(c) **Combined Scheduler + RM services module** — the application hands the
    request to a single combined placement-and-negotiation module (a la
    MESSIAHS).
(d) **Separate Scheduler and RM services** — each function in its own
    module: the most flexible layering, and the one the rest of the paper
    (and this library) assumes.

"Any of these layerings is possible in Legion; the choice of which to use is
up to the individual application writer."  Experiment E2 runs the same
workload through all four and reports the message and latency cost of each
— the modularity tax the paper's design accepts for flexibility.

Inter-module hops are charged through the transport using each module's
service location, so separating modules costs real (simulated) latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..collection.collection import Collection
from ..enactor.enactor import Enactor
from ..errors import LegionError, SchedulingError
from ..hosts.host_object import HostObject
from ..naming.loid import LOID
from ..net.topology import NetLocation
from ..net.transport import Transport
from ..objects.class_object import Placement
from ..schedule.mapping import ScheduleMapping
from ..schedule.schedule import MasterSchedule, ScheduleRequestList
from .base import ObjectClassRequest, Scheduler

__all__ = [
    "APP_LOCATION",
    "LayeringOutcome",
    "LayeringStrategy",
    "AppDoesItAll",
    "AppWithRMServices",
    "CombinedSchedulerRM",
    "SeparateLayers",
]

#: where the application's calls leave from: no node of its own (a free
#: endpoint), so an app hop costs only the callee's side
APP_LOCATION: Optional[NetLocation] = None


@dataclass
class LayeringOutcome:
    ok: bool
    created: List[LOID] = field(default_factory=list)
    messages: int = 0
    elapsed: float = 0.0
    detail: str = ""


class LayeringStrategy:
    """Common harness: measure messages and virtual time around place()."""

    name = "abstract"

    def __init__(self, transport: Transport):
        self.transport = transport

    def place(self, requests: Sequence[ObjectClassRequest]
              ) -> LayeringOutcome:
        before_msgs = self.transport.messages_sent
        before_time = self.transport.sim.now
        outcome = self._place(requests)
        outcome.messages = self.transport.messages_sent - before_msgs
        outcome.elapsed = self.transport.sim.now - before_time
        return outcome

    def _place(self, requests: Sequence[ObjectClassRequest]
               ) -> LayeringOutcome:
        raise NotImplementedError


class AppDoesItAll(LayeringStrategy):
    """Fig. 2(a): the application probes and negotiates with every resource
    itself — no Collection, no Enactor."""

    name = "(a) app does it all"

    def __init__(self, transport: Transport, hosts: Sequence[HostObject],
                 rng: Optional[np.random.Generator] = None):
        super().__init__(transport)
        self.hosts = list(hosts)
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def _place(self, requests: Sequence[ObjectClassRequest]
               ) -> LayeringOutcome:
        outcome = LayeringOutcome(ok=True)
        for request in requests:
            class_obj = request.class_obj
            # direct probing: one RPC per host to read its state
            probed = []
            for host in self.hosts:
                try:
                    attrs = self.transport.invoke(
                        APP_LOCATION, host.location,
                        host.attributes.snapshot, label="probe")
                except LegionError:
                    continue
                if class_obj.supports_platform(
                        str(attrs.get("host_arch", "")),
                        str(attrs.get("host_os_name", ""))):
                    probed.append((host, attrs))
            if not probed:
                return LayeringOutcome(False, detail="no viable host probed")
            # least-loaded viable host, per the app's own logic
            probed.sort(key=lambda p: float(p[1].get("host_load", 0.0)))
            for _i in range(request.count):
                placed = False
                for host, _attrs in probed:
                    vaults = host.get_compatible_vaults()
                    if not vaults:
                        continue
                    try:
                        token = self.transport.invoke(
                            APP_LOCATION, host.location,
                            host.make_reservation, vaults[0],
                            class_obj.loid, label="make_reservation")
                    except LegionError:
                        continue
                    placement = Placement(host.loid, vaults[0], token)
                    created = self.transport.invoke(
                        APP_LOCATION, host.location,
                        class_obj.create_instance, placement,
                        now=self.transport.sim.now,
                        label="create_instance")
                    if created.ok:
                        outcome.created.append(created.loid)
                        placed = True
                        break
                if not placed:
                    outcome.ok = False
                    outcome.detail = "direct negotiation failed"
                    return outcome
        return outcome


class AppWithRMServices(LayeringStrategy):
    """Fig. 2(b): the application decides placement from Collection data but
    delegates negotiation to the RM services (Enactor)."""

    name = "(b) app placement + RM services"

    def __init__(self, transport: Transport, collection: Collection,
                 enactor: Enactor,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(transport)
        self.collection = collection
        self.enactor = enactor
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def _place(self, requests: Sequence[ObjectClassRequest]
               ) -> LayeringOutcome:
        from .base import implementation_query
        entries: List[ScheduleMapping] = []
        for request in requests:
            class_obj = request.class_obj
            query = implementation_query(class_obj.get_implementations())
            if self.collection.location is not None:
                records = self.transport.invoke(
                    APP_LOCATION, self.collection.location,
                    self.collection.query, query, label="QueryCollection")
            else:
                records = self.collection.query(query)
            if not records:
                return LayeringOutcome(False, detail="no viable hosts")
            for _i in range(request.count):
                record = records[self.rng.integers(0, len(records))]
                vaults = Scheduler.compatible_vaults_of(record)
                if not vaults:
                    return LayeringOutcome(False, detail="host without "
                                                         "vaults")
                entries.append(ScheduleMapping(
                    class_loid=class_obj.loid, host_loid=record.member,
                    vault_loid=vaults[0]))
        request_list = ScheduleRequestList(
            [MasterSchedule(entries, label="app-chosen")], label="(b)")
        feedback = self.enactor.make_reservations(request_list)
        if not feedback.ok:
            return LayeringOutcome(False, detail=feedback.failure_detail)
        result = self.enactor.enact_schedule(feedback)
        return LayeringOutcome(result.ok, created=result.created,
                               detail=result.detail)


class CombinedSchedulerRM(LayeringStrategy):
    """Fig. 2(c): one combined placement + negotiation module at a service
    location; the application makes a single request to it."""

    name = "(c) combined Scheduler + RM module"

    def __init__(self, transport: Transport, scheduler: Scheduler,
                 module_location: Optional[NetLocation] = None):
        super().__init__(transport)
        self.scheduler = scheduler
        self.module_location = module_location

    def _place(self, requests: Sequence[ObjectClassRequest]
               ) -> LayeringOutcome:
        def run_module():
            return self.scheduler.run(requests)
        if self.module_location is not None:
            outcome = self.transport.invoke(
                APP_LOCATION, self.module_location, run_module,
                label="combined-module")
        else:
            outcome = run_module()
        return LayeringOutcome(outcome.ok, created=outcome.created,
                               detail=outcome.detail)


class SeparateLayers(LayeringStrategy):
    """Fig. 2(d): application -> Scheduler -> Enactor -> resources, each in
    its own module with its own location."""

    name = "(d) separate Scheduler / Enactor / RM"

    def __init__(self, transport: Transport, scheduler: Scheduler,
                 scheduler_location: Optional[NetLocation] = None,
                 enactor_location: Optional[NetLocation] = None):
        super().__init__(transport)
        self.scheduler = scheduler
        self.scheduler_location = scheduler_location
        self.enactor_location = enactor_location

    def _place(self, requests: Sequence[ObjectClassRequest]
               ) -> LayeringOutcome:
        # app -> Scheduler hop
        def compute():
            return self.scheduler.compute_schedule(requests)
        try:
            if self.scheduler_location is not None:
                request_list = self.transport.invoke(
                    APP_LOCATION, self.scheduler_location, compute,
                    label="compute_schedule")
            else:
                request_list = compute()
        except SchedulingError as exc:
            return LayeringOutcome(False, detail=str(exc))

        enactor = self.scheduler.enactor
        # Scheduler -> Enactor hop for make_reservations
        def negotiate():
            return enactor.make_reservations(request_list)
        if self.enactor_location is not None:
            feedback = self.transport.invoke(
                self.scheduler_location, self.enactor_location, negotiate,
                label="make_reservations")
        else:
            feedback = negotiate()
        if not feedback.ok:
            return LayeringOutcome(False, detail=feedback.failure_detail)

        # Scheduler confirms, then Enactor enacts (second hop)
        def enact():
            return enactor.enact_schedule(feedback)
        if self.enactor_location is not None:
            result = self.transport.invoke(
                self.scheduler_location, self.enactor_location, enact,
                label="enact_schedule")
        else:
            result = enact()
        return LayeringOutcome(result.ok, created=result.created,
                               detail=result.detail)
