"""Admission control for Host Objects: load-aware site autonomy.

Legion's Table 1 gives a Host Object the right to accept or reject any
request; the :class:`AdmissionController` makes that decision load-aware.
Before a reservation request reaches the ledger, the controller checks

* the **pending-reservation queue** — granted-but-unredeemed tokens are
  promises of future capacity; past ``max_pending`` the host refuses to
  over-promise, and
* the **machine load** — past ``load_limit`` the host sheds new work
  rather than degrade everything already placed on it.

Violations raise :class:`~repro.errors.AdmissionRejected` (non-retryable:
an immediate retry hits the same overloaded host — the Enactor should
fall back to a variant schedule instead).
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import AdmissionRejected
from ..obs.registry import NULL_METRICS

__all__ = ["AdmissionController"]


class AdmissionController:
    """Shared, stateless admission policy consulted by each Host Object."""

    def __init__(self, max_pending: Optional[int] = 16,
                 load_limit: Optional[float] = 16.0,
                 metrics: Any = NULL_METRICS):
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if load_limit is not None and load_limit <= 0:
            raise ValueError("load_limit must be positive")
        self.max_pending = max_pending
        self.load_limit = load_limit
        self.metrics = metrics
        self.rejections = 0

    def check(self, host: Any, now: float) -> None:
        """Raise :class:`AdmissionRejected` if ``host`` should refuse."""
        if self.max_pending is not None:
            pending = host.reservations.pending_count(now)
            if pending >= self.max_pending:
                self._reject("pending")
                raise AdmissionRejected(
                    f"{host.loid}: {pending} pending reservations "
                    f"(limit {self.max_pending})")
        if self.load_limit is not None:
            load = host.machine.load_average
            if load > self.load_limit:
                self._reject("load")
                raise AdmissionRejected(
                    f"{host.loid}: load {load:.2f} exceeds limit "
                    f"{self.load_limit:.2f}")

    def _reject(self, reason: str) -> None:
        self.rejections += 1
        self.metrics.count("guardrail_admission_rejected_total",
                           reason=reason)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<AdmissionController max_pending={self.max_pending} "
                f"load_limit={self.load_limit} "
                f"rejections={self.rejections}>")
