"""The standard Unix Host Object.

"The standard Unix Host Object maintains a reservation table in the Host
Object, because the Unix OS has no notion of reservations" (section 3.1).
The base :class:`~repro.hosts.host_object.HostObject` already implements
that table; this subclass adds the interactive-workstation flavour: a
default load-ceiling admission guard and the standard high-load RGE trigger
a Monitor can subscribe to.
"""

from __future__ import annotations

from typing import Any, Dict

from .host_object import HostObject

__all__ = ["UnixHost"]

#: machine load average above which :attr:`UnixHost.LOAD_EVENT` fires
LOAD_TRIGGER_LEVEL = 4.0
#: least virtual time between two firings of one load trigger
TRIGGER_MIN_INTERVAL = 60.0


def _load_high(host: "UnixHost") -> bool:
    """Guard of :attr:`UnixHost.LOAD_EVENT`, shared by every host."""
    return host.machine.load_average > LOAD_TRIGGER_LEVEL


def _load_ok(host: "UnixHost") -> bool:
    """Guard of :attr:`UnixHost.LOAD_OK_EVENT`, shared by every host."""
    return host.machine.load_average <= LOAD_TRIGGER_LEVEL


class UnixHost(HostObject):
    """Host Object for a single Unix workstation or SMP."""

    __slots__ = ()

    #: event name raised when the machine's load crosses the trigger level
    LOAD_EVENT = "host.load.high"
    #: event raised when the machine recovers below the trigger level
    LOAD_OK_EVENT = "host.load.ok"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rge.define_trigger(self.LOAD_EVENT, _load_high,
                                edge_triggered=True,
                                min_interval=TRIGGER_MIN_INTERVAL)
        self.rge.define_trigger(self.LOAD_OK_EVENT, _load_ok,
                                edge_triggered=True,
                                min_interval=TRIGGER_MIN_INTERVAL)

    def _descriptor_attributes(self) -> Dict[str, Any]:
        attributes = super()._descriptor_attributes()
        attributes["host_kind"] = "unix"
        return attributes
