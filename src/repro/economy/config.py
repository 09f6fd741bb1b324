"""EconomyConfig: the one tunable of the computational-economy layer.

Prices are per-cycle (the Ledger's unit); deadlines are virtual
seconds.  The market's pricing constants live in
:mod:`~repro.economy.market`, the schedulers' bid escalation in
:mod:`~repro.economy.sched`.  A speed-1.0 machine asks 0.01/cycle at
idle, so a unit of work costs about a cent and the
``DEFAULT_BUDGET`` of 100 funds ~10k placements — roomy unless an
experiment deliberately starves it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DEFAULT_BUDGET", "DEFAULT_DEADLINE", "EconomyConfig"]

#: budget and deadline of a user account the economy schedulers
#: auto-provision (:meth:`~repro.metasystem.Metasystem.make_scheduler`)
DEFAULT_BUDGET = 100.0
DEFAULT_DEADLINE = 3600.0


@dataclass(frozen=True)
class EconomyConfig:
    """Parameters for :meth:`repro.metasystem.Metasystem.enable_economy`."""

    #: symmetric relative noise on each repricing (seeded, deterministic)
    repricing_jitter: float = 0.05

    def __post_init__(self) -> None:
        if self.repricing_jitter < 0:
            raise ValueError("repricing_jitter must be >= 0")
