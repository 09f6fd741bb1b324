"""Reflective Graph and Event (RGE) trigger mechanism.

The paper (sections 2.1, 3.5) uses RGE for exactly one RMI purpose: *event
triggers* — "guarded statements which raise events if the guard evaluates to
a boolean true", with externally registered *outcalls* performed when a
trigger fires (e.g. a Monitor asking a Host to notify it when load crosses a
threshold, so migration can be initiated).

We implement that contract: a :class:`TriggerEngine` owned by each Legion
object evaluates guards against the object's state whenever the object polls
(Hosts poll at their periodic state re-assessment), raises named events, and
performs registered outcalls.  Edge- vs level-triggered semantics are
selectable; edge-triggered (the default) fires only on a False→True guard
transition, preventing an outcall storm while a condition persists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

__all__ = ["Trigger", "TriggerEngine", "TriggerFiring"]

Guard = Callable[[Any], bool]
Outcall = Callable[["TriggerFiring"], None]


@dataclass(frozen=True)
class TriggerFiring:
    """Delivered to outcalls when a trigger's guard becomes true."""

    event_name: str
    source: Any            # the object owning the trigger engine (e.g. a Host)
    time: float
    details: Dict[str, Any] = field(default_factory=dict)


class Trigger:
    """A guarded event source."""

    __slots__ = ("event_name", "guard", "edge_triggered", "min_interval",
                 "_was_true", "_last_fire", "fire_count")

    def __init__(self, event_name: str, guard: Guard,
                 edge_triggered: bool = True,
                 min_interval: float = 0.0):
        """
        Parameters
        ----------
        event_name:
            Name of the event raised when the guard holds.
        guard:
            Callable receiving the owning object; returns truth of the guard.
        edge_triggered:
            Fire only on False→True transitions (default).  Level-triggered
            triggers fire on every poll while the guard holds.
        min_interval:
            Minimum virtual time between firings (rate limiting).
        """
        if not callable(guard):
            raise TypeError("guard must be callable")
        self.event_name = event_name
        self.guard = guard
        self.edge_triggered = edge_triggered
        self.min_interval = float(min_interval)
        self._was_true = False
        self._last_fire = float("-inf")
        self.fire_count = 0

    def evaluate(self, owner: Any, now: float) -> bool:
        """Poll the guard; return True when the trigger should fire."""
        holds = bool(self.guard(owner))
        should_fire = holds and (not self.edge_triggered or not self._was_true)
        if should_fire and now - self._last_fire < self.min_interval:
            # Rate-limited: defer the edge (leave _was_true unset) so the
            # pending transition still fires once the interval elapses.
            if not holds:
                self._was_true = False
            return False
        self._was_true = holds
        if should_fire:
            self._last_fire = now
            self.fire_count += 1
        return should_fire


class TriggerEngine:
    """Per-object registry of triggers and outcalls.

    Outcalls are registered per event name ("register an outcall with the
    Host Objects; this outcall will be performed when a trigger's guard
    evaluates to true", section 3.5).  Outcall exceptions are isolated: a
    failing Monitor must not corrupt the Host.
    """

    __slots__ = ("owner", "_triggers", "_outcalls", "_failed_outcalls",
                 "firings")

    def __init__(self, owner: Any):
        self.owner = owner
        self._triggers: List[Trigger] = []
        self._outcalls: Dict[str, List[Outcall]] = {}
        self._failed_outcalls = 0
        self.firings: List[TriggerFiring] = []

    # -- registration -----------------------------------------------------
    def add_trigger(self, trigger: Trigger) -> Trigger:
        self._triggers.append(trigger)
        return trigger

    def define_trigger(self, event_name: str, guard: Guard,
                       edge_triggered: bool = True,
                       min_interval: float = 0.0) -> Trigger:
        return self.add_trigger(
            Trigger(event_name, guard, edge_triggered, min_interval))

    def register_outcall(self, event_name: str, outcall: Outcall) -> None:
        if not callable(outcall):
            raise TypeError("outcall must be callable")
        self._outcalls.setdefault(event_name, []).append(outcall)

    def unregister_outcall(self, event_name: str, outcall: Outcall) -> None:
        callbacks = self._outcalls.get(event_name, [])
        if outcall in callbacks:
            callbacks.remove(outcall)

    # -- evaluation ---------------------------------------------------------
    def poll(self, now: float, **details: Any) -> List[TriggerFiring]:
        """Evaluate all guards; fire events and perform outcalls."""
        fired: List[TriggerFiring] = []
        for trig in self._triggers:
            if trig.evaluate(self.owner, now):
                firing = TriggerFiring(trig.event_name, self.owner, now,
                                       dict(details))
                fired.append(firing)
                self.firings.append(firing)
                for outcall in list(self._outcalls.get(trig.event_name, [])):
                    try:
                        outcall(firing)
                    except Exception:
                        self._failed_outcalls += 1
        return fired

    @property
    def failed_outcalls(self) -> int:
        return self._failed_outcalls

    @property
    def triggers(self) -> List[Trigger]:
        return list(self._triggers)
