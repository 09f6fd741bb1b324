"""ServiceConfig: the knobs of the live service tier.

One frozen dataclass configures all three service components (gateway,
queue, worker pool) so :meth:`~repro.metasystem.Metasystem.start_service`
and ``TestbedSpec(service=...)`` take a single value, mirroring
``GuardrailConfig`` / ``EconomyConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ServiceConfig", "BACKPRESSURE_MODES"]

#: how the queue responds when the bounded backlog is full
BACKPRESSURE_MODES = ("shed", "reject", "defer")


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration for one live service tier."""

    #: worker daemons draining the placement queue
    workers: int = 4
    #: bounded backlog: queued requests past this are shed/rejected/
    #: deferred (0 = unbounded — shedding off, the overload baseline)
    queue_cap: int = 64
    #: what happens to a submit that finds the backlog full
    backpressure: str = "shed"
    #: virtual seconds a deferred request waits before re-offering
    defer_delay: float = 15.0
    #: re-offers before a deferred request is shed anyway
    max_defers: int = 3
    #: front-door load shedding: mean machine load past which the
    #: gateway refuses new work outright (None disables; reuses the
    #: guardrails admission semantics)
    load_limit: Optional[float] = None
    #: scheduler kind each worker drives (``Metasystem.make_scheduler``)
    scheduler: str = "irs"
    #: work units per placed instance of the service app class
    work: float = 10.0
    #: placement attempts per request before it fails (retry-on-transient)
    max_attempts: int = 3
    #: base backoff between placement attempts (virtual seconds; each
    #: retry draws jitter in [0.5, 1.5) from the worker's own seeded
    #: ``("service", "retry", i)`` RetryPolicy stream, so per-worker
    #: retry traces stay deterministic under interleaving changes)
    retry_backoff: float = 5.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_cap < 0:
            raise ValueError("queue_cap must be >= 0 (0 = unbounded)")
        if self.backpressure not in BACKPRESSURE_MODES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_MODES}, "
                f"got {self.backpressure!r}")
        if self.defer_delay <= 0:
            raise ValueError("defer_delay must be positive")
        if self.max_defers < 0:
            raise ValueError("max_defers must be >= 0")
        if self.load_limit is not None and self.load_limit <= 0:
            raise ValueError("load_limit must be positive (or None)")
        if self.work <= 0:
            raise ValueError("work must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.retry_backoff <= 0:
            raise ValueError("retry_backoff must be positive")

    @property
    def shedding_enabled(self) -> bool:
        """A bounded backlog is what makes backpressure possible."""
        return self.queue_cap > 0
