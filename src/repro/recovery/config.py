"""RecoveryConfig: knobs for the service-tier recovery layer.

The two timescales interlock: a worker heartbeats every
``heartbeat_interval`` virtual seconds while it owns a request, and each
heartbeat extends the lease to ``now + lease_ttl``.  A crashed worker
stops heartbeating, so its lease expires ``lease_ttl`` after the last
beat, and the Supervisor, whose timer is armed at the earliest lease
expiry, requeues the orphan at that instant.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RecoveryConfig"]


@dataclass(frozen=True)
class RecoveryConfig:
    """Parameters of the journal/lease/supervisor recovery layer."""

    #: lease lifetime: a worker's claim on a request expires this many
    #: virtual seconds after the last heartbeat renewal
    lease_ttl: float = 20.0
    #: how often a live worker renews its lease
    heartbeat_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_interval >= self.lease_ttl:
            raise ValueError(
                "heartbeat_interval must be shorter than lease_ttl "
                "(a live worker must renew before its lease expires)")

    def to_dict(self) -> dict:
        return {
            "lease_ttl": self.lease_ttl,
            "heartbeat_interval": self.heartbeat_interval,
        }
