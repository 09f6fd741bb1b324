"""Object migration: shutdown / move OPR / restart (paper section 2.1).

"All Legion objects automatically support shutdown and restart, and
therefore any active object can be migrated by shutting it down, moving the
passive state to a new Vault if necessary, and activating the object on
another host."

The :class:`Migrator` performs exactly those three steps, charging transport
costs for the OPR movement, and re-reserving on the destination host before
committing (migration is itself a small negotiation — the destination's
autonomy still applies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..errors import LegionError, NetworkError
from ..hosts.host_object import HostObject
from ..hosts.reservations import REUSABLE_TIME
from ..naming.loid import LOID
from ..net.transport import Transport
from ..vaults.vault_object import VaultObject

__all__ = ["Migrator", "MigrationReport"]

#: how long the destination host holds the reservation a move takes
RESERVATION_DURATION = 3600.0

Resolver = Callable[[LOID], Any]


@dataclass
class MigrationReport:
    ok: bool
    instance: Optional[LOID] = None
    from_host: Optional[LOID] = None
    to_host: Optional[LOID] = None
    opr_bytes: int = 0
    elapsed: float = 0.0
    detail: str = ""


class Migrator:
    """Executes the deactivate / move-OPR / reactivate protocol."""

    def __init__(self, transport: Transport, resolver: Resolver):
        self.transport = transport
        self.resolver = resolver
        self.migrations = 0
        self.failures = 0

    def migrate(self, instance_loid: LOID, to_host_loid: LOID,
                to_vault_loid: Optional[LOID] = None) -> MigrationReport:
        """Move one active object to another host (and optionally vault).

        Each migration is the root of its own trace (steps 12-13 of the
        placement protocol run as their own request)."""
        with self.transport.spans.span(
                "migration", step="12-13", instance=str(instance_loid),
                to_host=str(to_host_loid)) as root:
            report = self._migrate(instance_loid, to_host_loid,
                                   to_vault_loid)
            root.set_attribute("ok", report.ok)
            if not report.ok:
                root.set_status("error")
            return report

    def _migrate(self, instance_loid: LOID, to_host_loid: LOID,
                 to_vault_loid: Optional[LOID]) -> MigrationReport:
        sim = self.transport.sim
        start = sim.now
        report = MigrationReport(ok=False, instance=instance_loid,
                                 to_host=to_host_loid)

        # resolve the moving parts
        class_obj = self.resolver(instance_loid.class_loid())
        if class_obj is None:
            report.detail = f"unknown class for {instance_loid}"
            self.failures += 1
            return report
        try:
            instance = class_obj.get_instance(instance_loid)
        except LegionError as exc:
            report.detail = str(exc)
            self.failures += 1
            return report
        from_host: Optional[HostObject] = (
            self.resolver(instance.host_loid)
            if instance.host_loid is not None else None)
        if from_host is None:
            report.detail = f"{instance_loid} is not running anywhere"
            self.failures += 1
            return report
        report.from_host = from_host.loid
        to_host: Optional[HostObject] = self.resolver(to_host_loid)
        if to_host is None:
            report.detail = f"unknown destination host {to_host_loid}"
            self.failures += 1
            return report

        old_vault_loid = instance.vault_loid
        new_vault_loid = to_vault_loid or old_vault_loid
        if new_vault_loid is None or not to_host.vault_ok(new_vault_loid):
            # fall back to any vault the destination can reach
            usable = to_host.get_compatible_vaults()
            if not usable:
                report.detail = (f"destination {to_host_loid} has no "
                                 f"compatible vault")
                self.failures += 1
                return report
            new_vault_loid = usable[0]

        # 1. reserve on the destination first — don't stop the object until
        #    we know it has somewhere to go
        try:
            token = self.transport.invoke(
                from_host.location, to_host.location,
                to_host.make_reservation, new_vault_loid,
                instance.class_loid, rtype=REUSABLE_TIME,
                duration=RESERVATION_DURATION, label="migrate-reserve")
        except LegionError as exc:
            report.detail = f"destination refused: {exc}"
            self.failures += 1
            return report

        # 2. shut down and persist
        try:
            opr, _remaining = from_host.deactivate_object(instance_loid)
        except LegionError as exc:
            try:
                to_host.cancel_reservation(token)
            except LegionError:
                pass
            report.detail = f"deactivation failed: {exc}"
            self.failures += 1
            return report
        report.opr_bytes = opr.size_bytes

        # 3. move the passive state to the new vault if necessary.  Any
        # failure here must roll the object back onto its source host —
        # "accommodate failure at any step in the scheduling process".
        def rollback(reason: str) -> MigrationReport:
            try:
                to_host.cancel_reservation(token)
            except LegionError:
                pass
            instance.reactivate(opr, host_loid=from_host.loid,
                                vault_loid=old_vault_loid
                                or new_vault_loid,
                                now=sim.now)
            restarted = from_host.start_object(
                instance, old_vault_loid or new_vault_loid, None,
                now=sim.now)
            report.detail = reason + (
                "" if restarted.ok
                else f"; rollback also failed: {restarted.reason}")
            self.failures += 1
            return report

        old_vault: Optional[VaultObject] = (
            self.resolver(old_vault_loid)
            if old_vault_loid is not None else None)
        new_vault: Optional[VaultObject] = self.resolver(new_vault_loid)
        if new_vault is None:
            return rollback(f"unknown vault {new_vault_loid}")
        moved = old_vault is not None and old_vault.loid != new_vault.loid
        try:
            if moved:
                self.transport.transfer(old_vault.location,
                                        new_vault.location,
                                        opr.size_bytes, label="opr-move")
            new_vault.store_opr(opr)
        except LegionError as exc:
            return rollback(f"OPR move failed: {exc}")

        # 4. reactivate on the destination.  A start the destination
        # refused, or whose request was lost, rolls back as step 3 does; a
        # start that ran but whose reply was lost is a completed move.
        instance.reactivate(new_vault.retrieve_opr(instance_loid),
                            host_loid=to_host.loid,
                            vault_loid=new_vault.loid, now=sim.now)
        try:
            started = self.transport.invoke(
                None, to_host.location, to_host.start_object, instance,
                new_vault.loid, reservation_token=token,
                label="migrate-start")
            failure = None if started.ok else started.reason
        except NetworkError as exc:
            failure = None if instance_loid in to_host.placed else str(exc)
        if failure is not None:
            instance.cancel_activation()
            if moved:  # the object stays with its old vault
                new_vault.delete_opr(instance_loid)
            return rollback(f"reactivation failed: {failure}")
        if moved and old_vault.has_opr(instance_loid):
            old_vault.delete_opr(instance_loid)

        report.ok = True
        report.elapsed = sim.now - start
        self.migrations += 1
        return report
