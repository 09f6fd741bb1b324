"""The Legion object base class: lifecycle, attributes, and RGE hooks.

"All Legion objects automatically support shutdown and restart, and therefore
any active object can be migrated by shutting it down, moving the passive
state to a new Vault if necessary, and activating the object on another host"
(paper section 2.1).

Lifecycle states::

      create_instance            deactivateObject            killObject
   (Class places object)   ACTIVE ------------------> INERT -----------> DEAD
                              ^                          |
                              +------- reactivate -------+
                               (triggered by method access)

While INERT, the object's state lives solely in its OPR on a Vault.  The
:class:`LegionObject` carries placement bookkeeping (current host and vault
LOIDs) used by the Enactor and the Monitor during migration.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import ObjectStateError
from ..naming.loid import LOID
from .attributes import AttributeDatabase
from .opr import OPR
from .rge import TriggerEngine

__all__ = ["LegionObject", "ObjectState"]


class ObjectState:
    """Lifecycle state constants."""

    ACTIVE = "active"
    INERT = "inert"
    DEAD = "dead"


class LegionObject:
    """Base class for every object in the (simulated) metasystem.

    Subclasses override :meth:`save_state` / :meth:`restore_state` to define
    what persists across deactivation, and may define triggers on their
    :attr:`rge` engine.  Its fields live in ``__slots__``, so an object
    a world holds once per host (a Host Object) carries no instance
    ``__dict__``; a subclass that declares no slots gets one, as usual.
    """

    __slots__ = ("loid", "class_loid", "attributes", "_rge", "state",
                 "host_loid", "vault_loid", "last_host_loid",
                 "_opr_version", "activation_count", "migration_count")

    def __init__(self, loid: LOID, class_loid: Optional[LOID] = None):
        self.loid = loid
        self.class_loid = class_loid if class_loid is not None else loid
        self.attributes = AttributeDatabase()
        self._rge: Optional[TriggerEngine] = None
        self.state = ObjectState.ACTIVE
        # placement bookkeeping, maintained by Class objects / the Enactor
        self.host_loid: Optional[LOID] = None
        self.vault_loid: Optional[LOID] = None
        #: home before the last deactivation (for migration accounting)
        self.last_host_loid: Optional[LOID] = None
        self._opr_version = 0
        self.activation_count = 1
        self.migration_count = 0

    @property
    def rge(self) -> TriggerEngine:
        """The object's trigger engine, made on first use: most placed
        instances never define a trigger."""
        engine = self._rge
        if engine is None:
            engine = self._rge = TriggerEngine(self)
        return engine

    # -- state persistence hooks --------------------------------------------
    def save_state(self) -> Dict[str, Any]:
        """Return the application state to persist in the OPR.

        The default persists nothing beyond metadata; stateful subclasses
        override this (and :meth:`restore_state`).
        """
        return {}

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Restore application state from an OPR snapshot."""

    # -- lifecycle ------------------------------------------------------------
    def make_opr(self, now: float = 0.0) -> OPR:
        """Snapshot the current state into a new OPR (object stays ACTIVE)."""
        if self.state == ObjectState.DEAD:
            raise ObjectStateError(f"{self.loid} is dead")
        self._opr_version += 1
        return OPR(
            loid=self.loid,
            class_loid=self.class_loid,
            state=self.save_state(),
            version=self._opr_version,
            saved_at=now,
        )

    def deactivate(self, now: float = 0.0) -> OPR:
        """Shut down: persist state to an OPR and become INERT."""
        if self.state != ObjectState.ACTIVE:
            raise ObjectStateError(
                f"cannot deactivate {self.loid} in state {self.state}")
        opr = self.make_opr(now)
        self.state = ObjectState.INERT
        self.last_host_loid = self.host_loid
        self.host_loid = None
        return opr

    def reactivate(self, opr: OPR, host_loid: LOID, vault_loid: LOID,
                   now: float = 0.0) -> None:
        """Restart from an OPR on a (possibly different) host."""
        if self.state == ObjectState.DEAD:
            raise ObjectStateError(f"{self.loid} is dead")
        if self.state == ObjectState.ACTIVE:
            raise ObjectStateError(f"{self.loid} is already active")
        if opr.loid != self.loid:
            raise ObjectStateError(
                f"OPR for {opr.loid} cannot reactivate {self.loid}")
        self.restore_state(opr.state)
        self._opr_version = opr.version
        self.state = ObjectState.ACTIVE
        previous = self.host_loid or self.last_host_loid
        if previous is not None and previous != host_loid:
            self.migration_count += 1
        self.host_loid = host_loid
        self.vault_loid = vault_loid
        self.activation_count += 1

    def cancel_activation(self) -> None:
        """Undo :meth:`reactivate` when the host did not start the object:
        INERT again, held by no host, neither the activation nor a move
        counted."""
        if self.last_host_loid not in (None, self.host_loid):
            self.migration_count -= 1
        self.activation_count -= 1
        self.state = ObjectState.INERT
        self.host_loid = None

    def kill(self) -> None:
        """Destroy the object; it can never be reactivated."""
        self.state = ObjectState.DEAD
        self.host_loid = None

    # -- convenience ------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        return self.state == ObjectState.ACTIVE

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.loid} {self.state}>"
