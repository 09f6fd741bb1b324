"""GuardrailConfig: one knob bundle for the self-healing layer.

Every threshold is expressed in virtual seconds (or counts) and has a
default sized against the Metasystem's default 30 s host reassessment
heartbeat: a host is SUSPECT after missing ~2 heartbeats and DOWN after
missing ~5.  The fixed parts of the layer are constants where they are
used: the health sweep period and the consecutive-failure thresholds
that fast-track a classification without waiting for staleness
(:mod:`~repro.guardrails.health`), and the open breaker's cooldown
(:mod:`~repro.guardrails.breaker`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["GuardrailConfig"]


@dataclass(frozen=True)
class GuardrailConfig:
    """Parameters for :meth:`repro.metasystem.Metasystem.enable_guardrails`."""

    # -- circuit breakers (per transport destination) ----------------------
    #: consecutive transport failures before a breaker opens
    breaker_failure_threshold: int = 3

    # -- health monitor ----------------------------------------------------
    #: heartbeat silence before a host is SUSPECT (~2.5 missed heartbeats)
    suspect_after: float = 75.0
    #: heartbeat silence before a host is DOWN (~5 missed heartbeats)
    down_after: float = 150.0

    # -- admission control (per Host Object) -------------------------------
    #: bound on granted-but-unredeemed reservations (None disables)
    admission_max_pending: Optional[int] = 16
    #: machine load average above which new reservations are refused
    #: (None disables)
    admission_load_limit: Optional[float] = 16.0

    def __post_init__(self) -> None:
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if not 0 < self.suspect_after <= self.down_after:
            raise ValueError(
                "need 0 < suspect_after <= down_after")
        if (self.admission_max_pending is not None
                and self.admission_max_pending < 1):
            raise ValueError("admission_max_pending must be >= 1")
        if (self.admission_load_limit is not None
                and self.admission_load_limit <= 0):
            raise ValueError("admission_load_limit must be positive")
