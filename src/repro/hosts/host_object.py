"""Host Objects — the arbiters of machine capability (paper section 3.1).

The resource-management interface (Table 1)::

  Reservation Management   Process Management     Information Reporting
  ----------------------   -------------------    ----------------------
  make_reservation()       startObject()          get_compatible_vaults()
  check_reservation()      killObject()           vault_OK()
  cancel_reservation()     deactivateObject()

plus the attribute database all Legion objects carry: the Host "reassesses
its local state periodically, and repopulates its attributes", and under a
push model "deposit[s] information into its known Collection(s)".

This base class implements the full interface with an internal reservation
table ("the standard Unix Host Object maintains a reservation table in the
Host Object, because the Unix OS has no notion of reservations") — concrete
subclasses (:class:`~repro.hosts.unix_host.UnixHost`,
:class:`~repro.hosts.batch_host.BatchQueueHost`) refine admission and
execution.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..errors import (
    InsufficientResourcesError,
    InvalidReservationError,
    ObjectStateError,
    PlacementPolicyError,
    ReservationDeniedError,
    VaultIncompatibleError,
)
from ..naming.loid import LOID
from ..objects.base import LegionObject
from ..obs.registry import NULL_METRICS
from ..obs.spans import NULL_SPANS
from ..sim.kernel import Simulator, Ticker
from .machine import SimJob, SimMachine
from .policy import AcceptAll, PlacementPolicy, PlacementRequest
from .reservations import (
    INSTANTANEOUS,
    ReservationTable,
    ReservationToken,
    ReservationType,
    REUSABLE_TIME,
)

__all__ = ["HostObject", "StartResult", "PlacedObject"]


@dataclass
class StartResult:
    """Outcome of startObject (success/failure code, protocol step 10)."""

    ok: bool
    reason: str = ""
    loids: List[LOID] = field(default_factory=list)


@dataclass
class PlacedObject:
    """Bookkeeping for one object running on this host."""

    instance: LegionObject
    vault_loid: LOID
    job: Optional[SimJob] = None
    started_at: float = 0.0


class HostObject(LegionObject):
    """Guardian object for one machine."""

    __slots__ = ("machine", "sim", "metrics", "spans", "policy", "slots",
                 "price", "_compatible_vaults", "reservations", "admission",
                 "placed", "reassess_interval", "_push_targets",
                 "on_object_complete", "billing", "starts", "start_failures",
                 "reassessments", "_descriptor_sources_written",
                 "_reassess_ticker")

    def __init__(self, loid: LOID, machine: SimMachine, sim: Simulator,
                 compatible_vaults: Optional[List[LOID]] = None,
                 policy: Optional[PlacementPolicy] = None,
                 slots: int = 0,
                 price_per_cpu_second: float = 0.0,
                 reassess_interval: float = 30.0,
                 metrics: Any = NULL_METRICS, spans: Any = NULL_SPANS):
        super().__init__(loid)
        self.machine = machine
        self.sim = sim
        self.metrics = metrics
        self.spans = spans
        self.policy = policy or AcceptAll()
        self.slots = slots or max(2 * machine.spec.cpus, 2)
        self.price = price_per_cpu_second
        self._compatible_vaults: List[LOID] = list(compatible_vaults or [])
        self.reservations = ReservationTable(
            loid, secret=os.urandom(16), slots=self.slots)
        #: opt-in load-aware admission control (duck-typed; see
        #: repro.guardrails.admission.AdmissionController)
        self.admission = None
        self.placed: Dict[LOID, PlacedObject] = {}
        self.reassess_interval = reassess_interval
        self._push_targets: List[Callable[["HostObject", float], None]] = []
        self.on_object_complete: Optional[
            Callable[[LegionObject, float], None]] = None
        #: accounting hook: called with (instance, cycles_consumed) when a
        #: placed object completes, is killed, or is deactivated — the
        #: paper's "amount charged per CPU cycle consumed"
        self.billing: Optional[
            Callable[[LegionObject, float], None]] = None
        self.starts = 0
        self.start_failures = 0
        self.reassessments = 0
        #: what :meth:`reassess` last wrote the descriptor attributes from
        self._descriptor_sources_written: tuple = ()
        self._reassess_ticker: Optional[Ticker] = None
        self.reassess(now=sim.now)

    # -- identity / location --------------------------------------------------
    @property
    def location(self):
        return self.machine.location

    @property
    def domain(self) -> str:
        return self.machine.location.domain

    # ==========================================================================
    # Reservation management (Table 1, column 1)
    # ==========================================================================
    def make_reservation(self, vault_loid: LOID, class_loid: LOID,
                         rtype: ReservationType = REUSABLE_TIME,
                         start_time: float = INSTANTANEOUS,
                         duration: float = 3600.0,
                         timeout: float = 60.0,
                         requester_domain: str = "",
                         offered_price: float = 0.0,
                         now: Optional[float] = None) -> ReservationToken:
        """Grant a reservation for future service.

        "When asked for a reservation, the Host is responsible for ensuring
        that the vault is reachable, that sufficient resources are available,
        and that its local placement policy permits instantiating the
        object."

        Grants and denials are reported to the metrics registry; the
        admission logic itself lives in :meth:`_grant_reservation`, which
        subclasses override.
        """
        with self.spans.span_if_active("host.reserve", step="5",
                                       host=str(self.loid),
                                       vault=str(vault_loid)):
            try:
                token = self._grant_reservation(
                    vault_loid, class_loid, rtype=rtype,
                    start_time=start_time, duration=duration,
                    timeout=timeout, requester_domain=requester_domain,
                    offered_price=offered_price, now=now)
            except Exception as exc:
                self.metrics.count("host_reservations_rejected_total",
                                   reason=type(exc).__name__)
                raise
            self.metrics.count("host_reservations_granted_total",
                               rtype=str(token.rtype))
            return token

    def _grant_reservation(self, vault_loid: LOID, class_loid: LOID,
                           rtype: ReservationType = REUSABLE_TIME,
                           start_time: float = INSTANTANEOUS,
                           duration: float = 3600.0,
                           timeout: float = 60.0,
                           requester_domain: str = "",
                           offered_price: float = 0.0,
                           now: Optional[float] = None) -> ReservationToken:
        now = self.sim.now if now is None else now
        if not self.machine.up:
            raise ReservationDeniedError(f"host {self.loid}: machine down")
        if self.admission is not None:
            # load-aware site autonomy: refuse before touching the ledger
            self.admission.check(self, now)
        if not self.vault_ok(vault_loid):
            raise VaultIncompatibleError(
                f"host {self.loid}: vault {vault_loid} not reachable")
        decision = self.policy.decide(
            self, PlacementRequest(class_loid=class_loid,
                                   requester_domain=requester_domain,
                                   offered_price=offered_price), now)
        if not decision:
            raise PlacementPolicyError(
                f"host {self.loid}: policy refused: {decision.reason}")
        if len(self.placed) >= self.slots:
            raise ReservationDeniedError(
                f"host {self.loid}: all {self.slots} slots occupied")
        return self.reservations.make_reservation(
            vault_loid=vault_loid, class_loid=class_loid, rtype=rtype,
            now=now, start_time=start_time, duration=duration,
            timeout=timeout)

    def check_reservation(self, token: ReservationToken,
                          now: Optional[float] = None) -> bool:
        now = self.sim.now if now is None else now
        return self.reservations.check_reservation(token, now)

    def cancel_reservation(self, token: ReservationToken,
                           now: Optional[float] = None) -> None:
        now = self.sim.now if now is None else now
        self.reservations.cancel_reservation(token, now)

    # ==========================================================================
    # Process management (Table 1, column 2)
    # ==========================================================================
    def _admit(self, instance: LegionObject, vault_loid: LOID,
               token: Optional[ReservationToken], now: float) -> None:
        """Common admission checks for startObject."""
        if not self.machine.up:
            raise ObjectStateError(f"host {self.loid}: machine down")
        if not self.vault_ok(vault_loid):
            raise VaultIncompatibleError(
                f"host {self.loid}: vault {vault_loid} not compatible")
        if token is not None:
            if token.host_loid != self.loid:
                raise InvalidReservationError(
                    f"token {token.token_id} was issued by "
                    f"{token.host_loid}, not {self.loid}")
            if token.vault_loid != vault_loid:
                raise InvalidReservationError(
                    f"token {token.token_id} reserves vault "
                    f"{token.vault_loid}, not {vault_loid}")
            if self.reservations.timed_out(token, now):
                self.metrics.count("host_reservation_timeouts_total")
            self.reservations.redeem(token, now)
        else:
            # Un-reserved direct placement (the Class default path) still
            # passes policy.
            decision = self.policy.decide(
                self, PlacementRequest(class_loid=instance.class_loid), now)
            if not decision:
                raise PlacementPolicyError(
                    f"host {self.loid}: policy refused: {decision.reason}")
        if len(self.placed) >= self.slots:
            raise InsufficientResourcesError(
                f"host {self.loid}: all {self.slots} slots occupied")

    def _execute(self, instance: LegionObject, vault_loid: LOID,
                 now: float) -> PlacedObject:
        """Start the instance running on the machine.  Overridable."""
        work = instance.attributes.get("work_units")
        memory = float(instance.attributes.get("memory_mb", 8.0))
        # a tuned implementation does the same job in fewer machine cycles
        speedup = float(instance.attributes.get("impl_speedup", 1.0))
        job: Optional[SimJob] = None
        if work is not None:
            work = float(work) / max(speedup, 1e-9)
            job = SimJob(float(work), memory,
                         on_complete=lambda j, o=instance:
                         self._job_finished(o, j),
                         name=str(instance.loid))
            self.machine.start_job(job)
        placed = PlacedObject(instance=instance, vault_loid=vault_loid,
                              job=job, started_at=now)
        return placed

    def start_object(self, instance: LegionObject, vault_loid: LOID,
                     reservation_token: Optional[ReservationToken] = None,
                     now: Optional[float] = None) -> StartResult:
        """StartObject(): place one object instance on this host.

        Presenting a reservation token implicitly confirms the reservation.
        Failures return a coded :class:`StartResult` rather than raising —
        the Class reports these codes back to the Enactor (steps 10-11).
        """
        now = self.sim.now if now is None else now
        with self.spans.span_if_active("host.start", step="10",
                                       host=str(self.loid)) as sp:
            try:
                self._admit(instance, vault_loid, reservation_token, now)
                placed = self._execute(instance, vault_loid, now)
            except Exception as exc:
                self.start_failures += 1
                self.metrics.count("host_starts_total", ok="false")
                sp.set_attribute("ok", False)
                sp.set_attribute("error", f"{type(exc).__name__}: {exc}")
                sp.set_status("error")
                return StartResult(False,
                                   reason=f"{type(exc).__name__}: {exc}")
            self.placed[instance.loid] = placed
            instance.host_loid = self.loid
            instance.vault_loid = vault_loid
            # quote the metered rate at admission: billing (Ledger.post)
            # charges this price even if the market reprices the host
            # while the job runs — the fare is agreed when service starts
            instance.attributes.set("price_at_start", self.price, now=now)
            self.starts += 1
            self.metrics.count("host_starts_total", ok="true")
            sp.set_attribute("ok", True)
            return StartResult(True, loids=[instance.loid])

    def start_objects(self, instances: List[LegionObject], vault_loid: LOID,
                      reservation_token: Optional[ReservationToken] = None,
                      now: Optional[float] = None) -> StartResult:
        """The multi-create form: "The StartObject function can create one or
        more objects; this is important to support efficient object creation
        for multiprocessor systems."  A reusable token admits the batch; a
        one-shot token admits only a single object."""
        now = self.sim.now if now is None else now
        if (reservation_token is not None
                and not reservation_token.rtype.reuse
                and len(instances) > 1):
            self.start_failures += 1
            self.metrics.count("host_starts_total", ok="false")
            return StartResult(
                False, reason="one-shot token cannot start multiple objects")
        started: List[LOID] = []
        for i, instance in enumerate(instances):
            # the token is redeemed on each presentation; reusable tokens
            # allow every object after the first
            tok = reservation_token if (reservation_token is not None
                                        and (i == 0
                                             or reservation_token.rtype.reuse)
                                        ) else None
            result = self.start_object(instance, vault_loid, tok, now=now)
            if not result.ok:
                for loid in started:
                    self.kill_object(loid, now=now)
                return StartResult(False,
                                   reason=f"batch member {i}: {result.reason}")
            started.extend(result.loids)
        return StartResult(True, loids=started)

    def _bill(self, instance: LegionObject, job: Optional[SimJob]) -> None:
        if self.billing is None or job is None:
            return
        cycles = max(0.0, job.work - job.remaining)
        if cycles > 0:
            self.billing(instance, cycles)

    def kill_object(self, loid: LOID, now: Optional[float] = None) -> None:
        """killObject(): hard-stop and discard a placed object."""
        placed = self.placed.pop(loid, None)
        if placed is None:
            return
        if placed.job is not None and not placed.job.done:
            self.machine.remove_job(placed.job)
        self._bill(placed.instance, placed.job)

    def deactivate_object(self, loid: LOID,
                          now: Optional[float] = None):
        """deactivateObject(): stop execution, persist state to an OPR.

        Returns the ``(opr, remaining_work)`` pair; the Monitor/Enactor moves
        the OPR to a (possibly different) Vault and reactivates elsewhere.
        """
        now = self.sim.now if now is None else now
        placed = self.placed.pop(loid, None)
        if placed is None:
            raise ObjectStateError(f"{loid} is not placed on {self.loid}")
        remaining = 0.0
        if placed.job is not None and not placed.job.done:
            remaining = self.machine.remove_job(placed.job)
        self._bill(placed.instance, placed.job)
        instance = placed.instance
        # persist progress so the object resumes, not restarts; convert
        # machine cycles back to implementation-neutral work units
        if placed.job is not None:
            speedup = float(instance.attributes.get("impl_speedup", 1.0))
            instance.attributes.set("work_units", remaining * speedup,
                                    now=now)
        opr = instance.deactivate(now=now)
        return opr, remaining

    def _job_finished(self, instance: LegionObject, job: SimJob) -> None:
        now = self.sim.now
        instance.attributes.set("completed_at", now, now=now)
        self.placed.pop(instance.loid, None)
        self._bill(instance, job)
        if self.on_object_complete is not None:
            self.on_object_complete(instance, now)

    # ==========================================================================
    # Information reporting (Table 1, column 3)
    # ==========================================================================
    def get_compatible_vaults(self) -> List[LOID]:
        return list(self._compatible_vaults)

    def vault_ok(self, vault_loid: LOID) -> bool:
        return vault_loid in self._compatible_vaults

    def add_compatible_vault(self, vault_loid: LOID) -> None:
        if vault_loid not in self._compatible_vaults:
            self._compatible_vaults.append(vault_loid)

    # -- attribute reassessment & push model -----------------------------------
    def _descriptor_sources(self) -> tuple:
        """What :meth:`_descriptor_attributes` is computed from: plain
        attributes that the market, tests and examples assign, so
        ``reassess`` compares them every tick instead of being told."""
        machine = self.machine
        return (machine.name, machine.spec, machine.location.domain,
                self.slots, self.price, self.policy.describe(),
                tuple(self._compatible_vaults))

    def _descriptor_attributes(self) -> Dict[str, Any]:
        """Attributes describing the host, not its current state; written
        only when :meth:`_descriptor_sources` changed.  The dict also
        fixes the key order of every Collection record: a dynamic
        attribute is listed as ``None`` where it belongs and filled in
        from :meth:`_dynamic_attributes`."""
        spec = self.machine.spec
        return {
            "host_name": self.machine.name,
            "host_arch": spec.arch,
            "host_os_name": spec.os_name,
            "host_os_version": spec.os_version,
            "host_cpus": spec.cpus,
            "host_speed": spec.speed,
            "host_memory_mb": spec.memory_mb,
            "host_available_memory_mb": None,
            "host_load": None,
            "host_domain": self.domain,
            "host_slots": self.slots,
            "host_slots_free": None,
            "host_price": self.price,
            "host_up": None,
            "host_policy": self.policy.describe(),
            "compatible_vaults": [str(v) for v in self._compatible_vaults],
        }

    def _dynamic_attributes(self, load: float) -> Dict[str, Any]:
        """Attributes of the host's current state, written every tick
        (``load``: the machine's load average, read once per tick)."""
        return {
            "host_available_memory_mb": self.machine.available_memory_mb,
            "host_load": round(load, 4),
            "host_slots_free": max(0, self.slots - len(self.placed)),
            "host_up": self.machine.up,
        }

    def reassess(self, now: Optional[float] = None) -> None:
        """Repopulate the attribute database from current machine state,
        poll RGE triggers, and push to known Collections — once, after
        every attribute of this tick is in the database."""
        now = self.sim.now if now is None else now
        load = self.machine.load_average
        attributes = self._dynamic_attributes(load)
        sources = self._descriptor_sources()
        if sources != self._descriptor_sources_written:
            attributes = {**self._descriptor_attributes(), **attributes}
        self.attributes.update(attributes, now=now)
        self._descriptor_sources_written = sources
        self.reassessments += 1
        # sweep the reservation ledger so long campaigns don't grow it
        # unboundedly (expired/cancelled entries are dead weight)
        purged = self.reservations.purge(now)
        if purged:
            self.metrics.count("host_reservations_purged_total", purged)
        self.rge.poll(now, host=str(self.loid), load=load)
        for push in list(self._push_targets):
            push(self, now)

    def add_push_target(self,
                        push: Callable[["HostObject", float], None]) -> None:
        """Register a push-model sink (e.g. a Collection updater)."""
        self._push_targets.append(push)

    def start_periodic_reassessment(self) -> None:
        """Begin the periodic reassess cycle, on the ticker every host
        on this interval shares (idempotent)."""
        if self._reassess_ticker is None:
            self._reassess_ticker = self.sim.ticker(self.reassess_interval)
            self._reassess_ticker.subscribe(self, self._reassess_tick)

    def _reassess_tick(self) -> None:
        if self.machine.up:
            self.reassess()

    # -- convenience --------------------------------------------------------------
    @property
    def free_slots(self) -> int:
        return max(0, self.slots - len(self.placed))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<{type(self).__name__} {self.loid} on {self.machine.name} "
                f"placed={len(self.placed)}/{self.slots}>")
