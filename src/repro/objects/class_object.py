"""Class objects: type definers *and* active instance managers.

"Classes are also active entities, and act as managers for their instances.
Thus, a Class is the final authority in matters pertaining to its instances,
including object placement.  The Class exports the create_instance() method,
which is responsible for placing an instance on a viable host.
create_instance takes an optional argument suggesting a placement, which is
necessary to implement external Schedulers.  In the absence of this argument,
the Class makes a quick (and almost certainly non-optimal) placement
decision." (paper section 2.1)

The directed-placement argument carries a reservation token (section 3.4):
"This method has an optional argument containing an LOID and a reservation
token. ... The Class object is still responsible for checking the placement
for validity and conformance to local policy, but the Class does not have to
go through the standard placement steps."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..errors import NoImplementationError, UnknownObjectError
from ..naming.loid import LOID, LOIDMinter
from .base import LegionObject, ObjectState

__all__ = ["Implementation", "ClassObject", "Placement", "CreateResult"]


@dataclass(frozen=True)
class Implementation:
    """One available binary implementation of a class.

    Schedulers "query the class for available implementations" (Fig. 7); a
    Host is viable only if some implementation matches its architecture and
    operating system.
    """

    arch: str
    os_name: str
    memory_mb: float = 16.0
    binary_mb: float = 1.0
    relative_speed: float = 1.0  # per-arch tuning factor for runtime models

    def matches(self, arch: str, os_name: str) -> bool:
        return self.arch == arch and self.os_name == os_name


@dataclass(frozen=True)
class Placement:
    """A directed-placement suggestion passed to ``create_instance``."""

    host_loid: LOID
    vault_loid: LOID
    reservation_token: Optional[Any] = None
    #: optional pinned implementation (section 3.3 future work)
    implementation: Optional[Implementation] = None


@dataclass
class CreateResult:
    """Success/failure report from ``create_instance`` (protocol steps 10-11)."""

    ok: bool
    loid: Optional[LOID] = None
    host_loid: Optional[LOID] = None
    vault_loid: Optional[LOID] = None
    reason: str = ""
    #: all created instances (gang creation returns several)
    loids: List[LOID] = field(default_factory=list)


# A resolver maps a LOID to the live object implementing it (wired by the
# Metasystem's object registry); a default placer produces a Placement when
# the caller supplied none.
Resolver = Callable[[LOID], Any]
DefaultPlacer = Callable[["ClassObject", Any], Optional[Placement]]
InstanceFactory = Callable[[LOID, LOID], LegionObject]


def _default_factory(loid: LOID, class_loid: LOID) -> LegionObject:
    return LegionObject(loid, class_loid)


class ClassObject(LegionObject):
    """Manager for a family of instances of one type."""

    def __init__(self, loid: LOID, name: str, minter: LOIDMinter,
                 resolver: Resolver,
                 implementations: Optional[List[Implementation]] = None,
                 instance_factory: InstanceFactory = _default_factory,
                 default_placer: Optional[DefaultPlacer] = None):
        super().__init__(loid, class_loid=loid)
        self.name = name
        self._minter = minter
        self._resolver = resolver
        self._implementations: List[Implementation] = list(
            implementations or [])
        self._instance_factory = instance_factory
        self._default_placer = default_placer
        self.instances: Dict[LOID, LegionObject] = {}
        #: host -> token_id -> loids created under that reservation; lets
        #: the Enactor reap creates whose success ack was lost in transit
        #: (token ids count per host, so the id alone is not unique)
        self._creations_by_token: Dict[LOID, Dict[int, List[LOID]]] = {}
        self.attributes.set("class_name", name)
        self.create_attempts = 0
        self.create_failures = 0

    # -- type information (queried by Schedulers, Fig. 7 step 1) -------------
    def add_implementation(self, impl: Implementation) -> None:
        self._implementations.append(impl)

    def get_implementations(self) -> List[Implementation]:
        """The available implementations of this class."""
        return list(self._implementations)

    def resource_requirements(self) -> Dict[str, float]:
        """Minimum resources any implementation needs (scheduler hint)."""
        if not self._implementations:
            return {"memory_mb": 0.0}
        return {
            "memory_mb": min(i.memory_mb for i in self._implementations),
        }

    def implementation_for(self, arch: str, os_name: str) -> Implementation:
        for impl in self._implementations:
            if impl.matches(arch, os_name):
                return impl
        raise NoImplementationError(
            f"class {self.name!r} has no implementation for "
            f"({arch}, {os_name})")

    def supports_platform(self, arch: str, os_name: str) -> bool:
        return any(i.matches(arch, os_name) for i in self._implementations)

    # -- instance management ---------------------------------------------------
    def create_instance(self, placement: Optional[Placement] = None,
                        now: float = 0.0) -> CreateResult:
        """Place and start one instance: a gang of one.

        With ``placement`` (the external-Scheduler path) the Class validates
        the suggestion and presents the reservation token to the Host.
        Without it, the Class falls back to its quick default placer.
        """
        return self.create_instances(placement, 1, now=now)

    def create_instances(self, placement: Optional[Placement], count: int,
                         now: float = 0.0) -> CreateResult:
        """Gang creation: start ``count`` instances on one (Host, Vault)
        with a single multi-object StartObject call (paper section 3.1:
        "important to support efficient object creation for multiprocessor
        systems").  Requires a reusable reservation token when more than
        one instance is requested."""
        if count < 1:
            raise ValueError("count must be >= 1")
        self.create_attempts += 1
        if placement is None:
            if self._default_placer is None:
                self.create_failures += 1
                return CreateResult(False, reason="no placement and no "
                                                  "default placer configured")
            placement = self._default_placer(self, None)
            if placement is None:
                self.create_failures += 1
                return CreateResult(False,
                                    reason="default placer found no host")

        host = self._resolver(placement.host_loid)
        if host is None:
            self.create_failures += 1
            return CreateResult(False, reason=f"unknown host "
                                              f"{placement.host_loid}")

        # Class-side validity check: do we have an implementation for the
        # host's platform?  (The Host re-checks policy and resources itself.)
        arch = host.attributes.get("host_arch", "")
        os_name = host.attributes.get("host_os_name", "")
        impl = placement.implementation
        if impl is not None:
            # a pinned implementation must be ours and must fit the host
            if impl not in self._implementations:
                self.create_failures += 1
                return CreateResult(
                    False, reason=f"implementation {impl.arch}/"
                                  f"{impl.os_name} is not provided by "
                                  f"class {self.name!r}")
            if not impl.matches(arch, os_name):
                self.create_failures += 1
                return CreateResult(
                    False, reason=f"pinned implementation {impl.arch}/"
                                  f"{impl.os_name} does not match host "
                                  f"platform ({arch}, {os_name})")
        else:
            # the Class's default choice: the first matching binary
            try:
                impl = self.implementation_for(arch, os_name)
            except NoImplementationError:
                self.create_failures += 1
                return CreateResult(
                    False,
                    reason=f"no implementation for ({arch}, {os_name})")

        instances: List[LegionObject] = []
        for _ in range(count):
            loid = self._minter.mint_instance(self.loid)
            instance = self._instance_factory(loid, self.loid)
            if impl.relative_speed != 1.0:
                instance.attributes.set("impl_speedup",
                                        impl.relative_speed)
            instance.host_loid = placement.host_loid
            instance.vault_loid = placement.vault_loid
            instances.append(instance)

        if count == 1:
            started = host.start_object(
                instances[0], vault_loid=placement.vault_loid,
                reservation_token=placement.reservation_token, now=now)
        else:
            started = host.start_objects(
                instances, vault_loid=placement.vault_loid,
                reservation_token=placement.reservation_token, now=now)
        if not started.ok:
            self.create_failures += 1
            return CreateResult(False, reason=started.reason)
        loids = [i.loid for i in instances]
        for instance in instances:
            self.instances[instance.loid] = instance
        self._note_token(placement.reservation_token, loids)
        return CreateResult(True, loid=loids[0],
                            host_loid=placement.host_loid,
                            vault_loid=placement.vault_loid,
                            loids=loids)

    def get_instance(self, loid: LOID) -> LegionObject:
        try:
            return self.instances[loid]
        except KeyError:
            raise UnknownObjectError(f"{loid} is not an instance of "
                                     f"{self.name}") from None

    def ensure_active(self, loid: LOID, now: float = 0.0) -> LegionObject:
        """Implicit reactivation on access (paper section 3.1: "object
        reactivation is initiated by an attempt to access the object; no
        explicit Host Object method is necessary").

        If the instance is INERT, its OPR is fetched from its Vault, a
        host is chosen (the Class's quick default placement), and the
        object is restarted there before being returned.  ACTIVE instances
        are returned as-is; DEAD ones raise.
        """
        from ..errors import MigrationError, ObjectStateError
        instance = self.get_instance(loid)
        if instance.state == ObjectState.ACTIVE:
            return instance
        if instance.state == ObjectState.DEAD:
            raise ObjectStateError(f"{loid} is dead")
        vault = (self._resolver(instance.vault_loid)
                 if instance.vault_loid is not None else None)
        if vault is None or not vault.has_opr(loid):
            raise MigrationError(
                f"no OPR available to reactivate {loid}")
        if self._default_placer is None:
            raise MigrationError(
                f"no default placer configured to reactivate {loid}")
        # hint the placer with the object's vault: the chosen host must be
        # able to reach the OPR
        placement = self._default_placer(self, instance.vault_loid)
        if placement is None:
            raise MigrationError(
                f"no viable host found to reactivate {loid}")
        host = self._resolver(placement.host_loid)
        if host is None or not host.vault_ok(instance.vault_loid):
            raise MigrationError(
                f"default placement for {loid} cannot reach its vault "
                f"{instance.vault_loid}")
        instance.reactivate(vault.retrieve_opr(loid),
                            host_loid=host.loid,
                            vault_loid=instance.vault_loid, now=now)
        started = host.start_object(instance, instance.vault_loid,
                                    None, now=now)
        if not started.ok:
            instance.cancel_activation()
            raise MigrationError(
                f"reactivation of {loid} failed: {started.reason}")
        return instance

    def _note_token(self, token: Any, loids: List[LOID]) -> None:
        if token is not None:
            self._creations_by_token.setdefault(
                token.host_loid, {}).setdefault(
                    token.token_id, []).extend(loids)

    def reap_reserved(self, token: Any, now: float = 0.0) -> List[LOID]:
        """Destroy every live instance created under ``token``.

        The crash-safe half of the create protocol: when a
        ``create_instance`` RPC executes but its success reply is lost,
        the Enactor holds a reservation token for an instance it cannot
        name.  The Class — "the final authority in matters pertaining to
        its instances" — resolves the token to whatever it started under
        it, so the rollback is exact even for unacknowledged creates.
        """
        reaped: List[LOID] = []
        for loid in self._creations_by_token.get(
                token.host_loid, {}).pop(token.token_id, []):
            if loid in self.instances:
                self.destroy_instance(loid, now=now)
                reaped.append(loid)
        return reaped

    def destroy_instance(self, loid: LOID, now: float = 0.0) -> None:
        """Kill an instance and release its host slot."""
        instance = self.get_instance(loid)
        if instance.host_loid is not None:
            host = self._resolver(instance.host_loid)
            if host is not None:
                host.kill_object(loid, now=now)
        instance.kill()
        del self.instances[loid]

    def active_instances(self) -> List[LegionObject]:
        return [o for o in self.instances.values()
                if o.state == ObjectState.ACTIVE]

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<ClassObject {self.name!r} {self.loid} "
                f"instances={len(self.instances)}>")
