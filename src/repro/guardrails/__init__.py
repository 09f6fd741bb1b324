"""Guardrails: the reproduction's self-healing layer.

PR 4's chaos campaigns showed the placement path treating every host as
live and willing even while faults land; this package closes the loop —
**detect → quarantine → route around → probe → recover**:

* :mod:`~repro.guardrails.health` — HealthMonitor daemon classifying
  hosts LIVE/SUSPECT/DOWN from heartbeats + invoke outcomes, publishing
  ``host_health`` into Collection records so queries exclude quarantined
  hosts,
* :mod:`~repro.guardrails.breaker` — per-destination circuit breakers on
  ``Transport.invoke`` failing fast with ``CircuitOpenError``,
* :mod:`~repro.guardrails.admission` — load-aware admission control on
  Host Objects (``AdmissionRejected``), Table 1's accept/reject made
  dynamic,
* :mod:`~repro.guardrails.compare` — the off / guardrails+retries
  benchmark behind ``legion-sim guardrails``.

Everything is deterministic and RNG-free: enabling guardrails never
perturbs the seeded random streams of an existing scenario, so
with/without comparisons see identical fault timelines.
"""

from .admission import AdmissionController
from .breaker import CLOSED, HALF_OPEN, OPEN, BreakerBoard, CircuitBreaker
from .compare import GuardrailsComparison, run_comparison
from .config import GuardrailConfig
from .health import DOWN, LIVE, SUSPECT, HealthMonitor

__all__ = [
    "AdmissionController",
    "BreakerBoard",
    "CircuitBreaker",
    "GuardrailConfig",
    "GuardrailSuite",
    "GuardrailsComparison",
    "HealthMonitor",
    "run_comparison",
    "CLOSED", "OPEN", "HALF_OPEN",
    "LIVE", "SUSPECT", "DOWN",
]


class GuardrailSuite:
    """The wired-up guardrails of one Metasystem (what
    :meth:`~repro.metasystem.Metasystem.enable_guardrails` returns)."""

    def __init__(self, config: GuardrailConfig, monitor: HealthMonitor,
                 board: BreakerBoard, admission: AdmissionController):
        self.config = config
        self.monitor = monitor
        self.board = board
        self.admission = admission

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<GuardrailSuite breakers={len(self.board)} "
                f"watched={self.monitor.watched()}>")
