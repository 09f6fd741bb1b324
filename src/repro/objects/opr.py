"""Object Persistent Representation (OPR).

"To be executed, a Legion object must have a Vault to hold its persistent
state in an Object Persistent Representation (OPR).  The OPR is used for
migration and for shutdown/restart purposes" (paper section 2.1).

An OPR is a snapshot of an object's application state plus enough metadata
(LOID, class LOID, version counter) to validate a restart.  Vaults store OPRs
keyed by LOID; migration moves the passive OPR between Vaults and reactivates
the object on a new Host.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict

from ..naming.loid import LOID

__all__ = ["OPR"]


@dataclass
class OPR:
    """A passive, self-contained snapshot of an object's state."""

    loid: LOID
    class_loid: LOID
    state: Dict[str, Any] = field(default_factory=dict)
    version: int = 0
    saved_at: float = 0.0
    size_bytes: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            # crude but deterministic size model: repr length of the state
            self.size_bytes = max(64, len(repr(self.state)))

    def clone(self) -> "OPR":
        """A deep copy, as if serialized and transferred between Vaults."""
        return OPR(
            loid=self.loid,
            class_loid=self.class_loid,
            state=copy.deepcopy(self.state),
            version=self.version,
            saved_at=self.saved_at,
            size_bytes=self.size_bytes,
        )
