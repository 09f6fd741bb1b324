"""Discrete-event simulation kernel.

The kernel drives the *world dynamics* of the simulated metasystem: background
load random walks on machines, job completions inside queue-management
systems, owner activity on cycle-scavenged workstations, host failures, and
periodic host attribute re-assessment (paper section 3.1).

Design
------
Processes are Python generators that ``yield`` waitable objects:

* :class:`Timeout` — resume after a virtual-time delay;
* :class:`Event` — resume when the event is succeeded (or failed);
* another :class:`Process` — resume when that process terminates.

The event queue is a binary heap ordered by ``(time, priority, seq)`` so that
simultaneous events fire in deterministic FIFO order.  This determinism — plus
the seeded RNG streams in :mod:`repro.sim.rng` — makes every experiment in the
benchmark harness exactly reproducible.

The RMI protocol itself (Scheduler/Enactor/Host negotiation) does *not* run as
generator processes; it executes on the Python stack via
:class:`repro.net.transport.Transport`, which advances the clock and calls
:meth:`Simulator.run_until` to bring the world up to date first.  See
DESIGN.md section 4 for the rationale.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from ..errors import ProcessError, SimTimeError

__all__ = [
    "Simulator",
    "Process",
    "Event",
    "Timeout",
    "Ticker",
    "GridTicker",
]


class Event:
    """A one-shot waitable occurrence.

    An event starts *pending*; exactly one call to :meth:`succeed` or
    :meth:`fail` resolves it, waking every waiting process.  Waiting on an
    already-resolved event resumes the waiter immediately (at the current
    simulation time).
    """

    PENDING = "pending"
    SUCCEEDED = "succeeded"
    FAILED = "failed"

    __slots__ = ("sim", "name", "state", "value", "_waiters")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.state = Event.PENDING
        self.value: Any = None
        self._waiters: List[Callable[["Event"], None]] = []

    # -- resolution --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Resolve the event successfully, delivering ``value`` to waiters."""
        if self.state != Event.PENDING:
            raise ProcessError(f"event {self.name!r} already {self.state}")
        self.state = Event.SUCCEEDED
        self.value = value
        self._notify()
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Resolve the event with an exception, raised inside each waiter."""
        if self.state != Event.PENDING:
            raise ProcessError(f"event {self.name!r} already {self.state}")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.state = Event.FAILED
        self.value = exc
        self._notify()
        return self

    @property
    def resolved(self) -> bool:
        return self.state != Event.PENDING

    @property
    def ok(self) -> bool:
        return self.state == Event.SUCCEEDED

    # -- waiting -----------------------------------------------------------
    def _add_waiter(self, callback: Callable[["Event"], None]) -> None:
        if self.resolved:
            # fire on the next kernel step at the current time
            self.sim.schedule(0.0, lambda: callback(self))
        else:
            self._waiters.append(callback)

    def _notify(self) -> None:
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            self.sim.schedule(0.0, lambda cb=callback: cb(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Event {self.name!r} {self.state}>"


class Timeout(Event):
    """An event that succeeds after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimTimeError(f"negative timeout delay {delay!r}")
        super().__init__(sim, name=f"timeout({delay})")
        self.delay = delay
        sim.schedule(delay, lambda: self.succeed(value))


class Process(Event):
    """A running generator process.

    A process is itself an :class:`Event` that resolves when the generator
    returns (success, with the return value) or raises (failure).
    """

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        if not hasattr(gen, "send"):
            raise ProcessError(f"process body must be a generator, got {gen!r}")
        self._gen = gen
        # First step happens as a scheduled kernel action so that creating a
        # process inside another process is safe.
        sim.schedule(0.0, lambda: self._step(None, None))

    # -- stepping ----------------------------------------------------------
    def _on_wakeup(self, ev: Event) -> None:
        if ev.state == Event.FAILED:
            self._throw(ev.value)
        else:
            self._step(ev.value, None)

    def _throw(self, exc: BaseException) -> None:
        if self.resolved:
            return
        self._step(None, exc)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.resolved:
            return
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        except Exception as err:
            self.fail(err)
            return
        if isinstance(target, (int, float)):
            target = Timeout(self.sim, float(target))
        if not isinstance(target, Event):
            self.fail(ProcessError(f"process yielded non-waitable {target!r}"))
            return
        target._add_waiter(self._on_wakeup)


class Ticker:
    """A periodic kernel event.  A firing bumps :attr:`count`, then runs
    the subscribed callbacks in subscription order, then re-arms at
    ``now + interval`` (the float a ``schedule(interval, tick)`` chain
    lands on) -- unless nobody rides it any more, in which case it does
    not reschedule itself.  A rider that only needs to know how many
    periods have passed takes no callback: it counts itself in
    :attr:`members` and compares :attr:`count` with what it last saw
    when next looked at.

    Built directly, ``Ticker(sim, interval)`` belongs to its builder: a
    periodic daemon owns one, subscribes its work method in ``start()``
    and unsubscribes it in ``stop()``.  Nothing else can find it, so it
    never merges with another event on the same grid.  The shared kind
    is :class:`GridTicker`, handed out by :meth:`Simulator.ticker`.
    """

    __slots__ = ("sim", "interval", "next_fire", "count", "members",
                 "_callbacks")

    def __init__(self, sim: "Simulator", interval: float):
        self.sim = sim
        self.interval = interval
        self.count = 0
        self.members = 0
        self._callbacks: dict = {}
        self._arm()

    def subscribe(self, key: Any, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at every firing (idempotent per ``key``)."""
        self._callbacks[key] = callback

    def unsubscribe(self, key: Any) -> None:
        self._callbacks.pop(key, None)

    def _arm(self) -> None:
        self.next_fire = self.sim._now + self.interval
        self.sim.schedule_at(self.next_fire, self._fire)

    def _fire(self) -> None:
        self.count += 1
        for callback in list(self._callbacks.values()):
            callback()
        if self.members or self._callbacks:
            self._arm()


class GridTicker(Ticker):
    """A :class:`Ticker` shared by everything on one time grid (see
    :meth:`Simulator.ticker`): one event per ``interval`` however many
    ride on it, findable under ``(next fire time, interval)`` while it
    is pending."""

    __slots__ = ()

    def _arm(self) -> None:
        super()._arm()
        # a ticker already findable under this key stays the one found;
        # both fire, in the order they were armed
        self.sim._tickers.setdefault((self.next_fire, self.interval), self)

    def _fire(self) -> None:
        tickers = self.sim._tickers
        key = (self.next_fire, self.interval)
        if tickers.get(key) is self:
            del tickers[key]
        super()._fire()


class Simulator:
    """The discrete-event simulation kernel and virtual clock.

    The clock unit is abstract; throughout this library one unit is one
    second of metasystem time.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        #: pending grid tickers by ``(next fire time, interval)``
        self._tickers: dict = {}
        self.events_processed = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def clock(self) -> float:
        """:attr:`now` as a callable: ``sim.clock`` is the clock argument
        tracers and registries take."""
        return self._now

    @property
    def queue_depth(self) -> int:
        """Number of actions currently scheduled on the event heap."""
        return len(self._heap)

    # -- scheduling primitives ----------------------------------------------
    def schedule(self, delay: float, action: Callable[[], None],
                 priority: int = 0) -> None:
        """Schedule ``action()`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimTimeError(f"cannot schedule in the past (delay={delay})")
        heappush(
            self._heap, (self._now + delay, priority, next(self._seq), action)
        )

    def schedule_at(self, when: float, action: Callable[[], None]) -> None:
        """Schedule ``action()`` at absolute virtual time ``when``."""
        if when < self._now:
            raise SimTimeError(
                f"cannot schedule at {when} before now={self._now}")
        heappush(self._heap, (when, 0, next(self._seq), action))

    def ticker(self, interval: float) -> Ticker:
        """The shared :class:`GridTicker` that next fires ``interval`` from
        now, started if nothing is on that grid yet."""
        if interval <= 0:
            raise ValueError("ticker interval must be positive")
        found = self._tickers.get((self._now + interval, interval))
        return found if found is not None else GridTicker(self, interval)

    # -- waitable factories --------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a generator as a simulated process."""
        return Process(self, gen, name=name)

    # -- execution -----------------------------------------------------------
    def step(self) -> bool:
        """Run the single next action.  Returns False when the heap is empty."""
        if not self._heap:
            return False
        when, _prio, _seq, action = heappop(self._heap)
        self._now = when
        self.events_processed += 1
        action()
        return True

    def run_until(self, until: float) -> None:
        """Process every action scheduled at or before ``until``.

        Advances the clock to exactly ``until`` (even if no event lands
        there), so the caller can interleave stack-based protocol execution
        with world dynamics.  ``until`` in the past is a no-op rather than an
        error, which lets zero-latency local calls remain cheap.

        This is the kernel's hottest entry point (the transport calls it
        for every message hop), so the dispatch loop is inlined: the heap
        list and heappop are bound locally, and an empty heap or a no-op
        advance falls through with no per-event work at all.  Scheduling
        from inside an action is safe — ``self._heap`` is the same list
        object the loop holds — and reentrant run_until calls each count
        their own pops into ``events_processed``.
        """
        heap = self._heap
        if heap and heap[0][0] <= until:
            pop = heappop
            processed = 0
            while heap and heap[0][0] <= until:
                when, _prio, _seq, action = pop(heap)
                self._now = when
                processed += 1
                action()
            self.events_processed += processed
        if until > self._now:
            self._now = until

    def run(self) -> None:
        """Run to quiescence."""
        while self.step():
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.3f} pending={len(self._heap)}>"
