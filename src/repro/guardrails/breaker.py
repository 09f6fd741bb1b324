"""Per-destination circuit breakers for :class:`~repro.net.transport.Transport`.

The classic three-state machine, driven entirely by the virtual clock::

            failure x threshold                cooldown elapsed
   CLOSED ----------------------->  OPEN  ------------------------> HALF_OPEN
     ^                               ^                                 |
     |        probe succeeds         |        probe fails              |
     +-------------------------------+---------------------------------+

* **CLOSED** — calls flow; consecutive transport failures are counted
  (any success resets the count).
* **OPEN** — calls are refused immediately with
  :class:`~repro.errors.CircuitOpenError` (non-retryable, so a
  RetryPolicy fails fast instead of burning its attempt budget).
* **HALF_OPEN** — after ``cooldown``, exactly one probe call is let
  through; success re-closes the breaker, failure re-opens it for
  another cooldown.

The :class:`BreakerBoard` keys breakers by destination
:class:`~repro.net.topology.NetLocation` string, emits ``guardrail_*``
metrics and breaker-state-transition spans, and forwards per-destination
success/failure evidence to an optional listener (the
:class:`~repro.guardrails.health.HealthMonitor`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..errors import CircuitOpenError
from ..obs import NULL_METRICS, NULL_SPANS

__all__ = ["CLOSED", "OPEN", "HALF_OPEN", "CircuitBreaker", "BreakerBoard"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: how long an open breaker rejects before allowing a half-open probe
BREAKER_COOLDOWN = 45.0


class CircuitBreaker:
    """One destination's breaker state machine."""

    __slots__ = ("dst", "failure_threshold", "cooldown", "state",
                 "consecutive_failures", "opened_at", "probe_in_flight",
                 "opens", "fast_fails", "_on_transition")

    def __init__(self, dst: str, failure_threshold: int = 3,
                 cooldown: float = BREAKER_COOLDOWN,
                 on_transition: Optional[Callable[["CircuitBreaker", str,
                                                   str, float], None]] = None):
        self.dst = dst
        self.failure_threshold = int(failure_threshold)
        self.cooldown = float(cooldown)
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: float = 0.0
        self.probe_in_flight = False
        self.opens = 0
        self.fast_fails = 0
        self._on_transition = on_transition

    def _transition(self, to: str, now: float) -> None:
        frm, self.state = self.state, to
        if to == OPEN:
            self.opens += 1
            self.opened_at = now
            self.probe_in_flight = False
        elif to == CLOSED:
            self.consecutive_failures = 0
            self.probe_in_flight = False
        if self._on_transition is not None:
            self._on_transition(self, frm, to, now)

    # -- admission ---------------------------------------------------------
    def allow(self, now: float) -> bool:
        """May a call to this destination be issued right now?

        In OPEN state, an elapsed cooldown flips to HALF_OPEN and admits
        the caller as the single probe; in HALF_OPEN only one probe may
        be in flight at a time (a parallel batch's remaining calls are
        refused).
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self.opened_at >= self.cooldown:
                self._transition(HALF_OPEN, now)
                self.probe_in_flight = True
                return True
            self.fast_fails += 1
            return False
        # HALF_OPEN
        if self.probe_in_flight:
            self.fast_fails += 1
            return False
        self.probe_in_flight = True
        return True

    # -- evidence ----------------------------------------------------------
    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        if self.state != CLOSED:
            self._transition(CLOSED, now)

    def record_failure(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self._transition(OPEN, now)
            return
        if self.state == CLOSED:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.failure_threshold:
                self._transition(OPEN, now)
        # failures reported while OPEN (calls admitted before the trip)
        # neither extend the cooldown nor re-count

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<CircuitBreaker {self.dst} {self.state} "
                f"failures={self.consecutive_failures}>")


class BreakerBoard:
    """All destinations' breakers, shared metrics, and the listener hook."""

    def __init__(self, clock: Callable[[], float],
                 failure_threshold: int = 3,
                 cooldown: float = BREAKER_COOLDOWN,
                 metrics: Any = NULL_METRICS, spans: Any = NULL_SPANS,
                 listener: Optional[Callable[[str, bool], None]] = None):
        self._clock = clock
        self.failure_threshold = int(failure_threshold)
        self.cooldown = float(cooldown)
        self.metrics = metrics
        self.spans = spans
        #: called with (dst, ok) on every recorded outcome — the
        #: HealthMonitor consumes this as per-host invoke evidence
        self.listener = listener
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker_for(self, dst: Any) -> CircuitBreaker:
        key = str(dst)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(key, self.failure_threshold,
                                     self.cooldown,
                                     on_transition=self._note_transition)
            self._breakers[key] = breaker
        return breaker

    def _note_transition(self, breaker: CircuitBreaker, frm: str, to: str,
                         now: float) -> None:
        self.metrics.count("guardrail_breaker_transitions_total",
                           from_state=frm, to_state=to)
        self.metrics.set_gauge("guardrail_breakers_open",
                               self.open_count())
        self.spans.record_span("guardrail:breaker", start=now, end=now,
                               dst=breaker.dst, from_state=frm,
                               to_state=to)
        if frm != CLOSED and to == CLOSED:
            # one span per completed quarantine window
            self.spans.record_span("guardrail:breaker_open",
                                   start=breaker.opened_at, end=now,
                                   dst=breaker.dst)

    # -- transport-facing API ----------------------------------------------
    def check(self, dst: Any) -> None:
        """Raise :class:`CircuitOpenError` when the destination is refused."""
        if not self.allow(dst):
            raise CircuitOpenError(f"circuit open for {dst}")

    def allow(self, dst: Any) -> bool:
        allowed = self.breaker_for(dst).allow(self._clock())
        if not allowed:
            self.metrics.count("guardrail_breaker_fast_fails_total")
        return allowed

    def record_success(self, dst: Any) -> None:
        self.breaker_for(dst).record_success(self._clock())
        if self.listener is not None:
            self.listener(str(dst), True)

    def record_failure(self, dst: Any) -> None:
        self.breaker_for(dst).record_failure(self._clock())
        if self.listener is not None:
            self.listener(str(dst), False)

    # -- introspection -----------------------------------------------------
    def open_count(self) -> int:
        return sum(1 for b in self._breakers.values() if b.state == OPEN)

    def total_opens(self) -> int:
        return sum(b.opens for b in self._breakers.values())

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Deterministic per-destination state for checkpoint audits."""
        return {dst: {"state": b.state,
                      "consecutive_failures": b.consecutive_failures,
                      "opened_at": b.opened_at,
                      "opens": b.opens,
                      "fast_fails": b.fast_fails}
                for dst, b in sorted(self._breakers.items())}

    def total_fast_fails(self) -> int:
        return sum(b.fast_fails for b in self._breakers.values())

    def __len__(self) -> int:
        return len(self._breakers)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<BreakerBoard breakers={len(self._breakers)} "
                f"open={self.open_count()}>")
