"""Recovery layer: crash-tolerant request ownership for the service tier.

OAR (Capit et al., PAPERS.md) keeps its scheduler state in a database so
the brain can die and restart without losing a job; Legion's Class
objects re-instantiate failed members from persistent vault state.  This
package is the reproduction's equivalent for the live service tier of
:mod:`repro.service`:

* :mod:`~repro.recovery.journal` — a write-ahead **RequestJournal** of
  every request state transition, whose replay reconstructs the gateway
  registry and live queue byte-identically;
* :mod:`~repro.recovery.leases` — **lease-based ownership**: a worker
  claims a request under a TTL lease renewed by heartbeat, so a crashed
  worker's claim visibly expires instead of silently wedging;
* :mod:`~repro.recovery.supervisor` — the **Supervisor** daemon: wakes
  at each lease's expiry, destroys placements dead workers enacted but
  never reported (no duplicates), and re-enqueues each orphan exactly
  once (no losses);
* :mod:`~repro.recovery.checkpoint` — **checkpoint/restore**: snapshot
  the tier as pure JSON at a safe point, tear it down, rebuild it, and
  continue deterministically;
* :mod:`~repro.recovery.gameday` — **game-day campaigns**
  (``legion-sim gameday``): chaos kills workers/hosts/links under live
  traffic while the report counts ground truth — lost requests and
  duplicate placements must both be zero, and a mid-run
  checkpoint/restore must leave the run byte-identical
  (``BENCH_gameday.json``).

Enable it with ``Metasystem.start_service(config, recovery=True)`` (or a
tuned :class:`RecoveryConfig`).
"""

from .checkpoint import ServiceCheckpoint, capture_checkpoint, restore_service
from .config import RecoveryConfig
from .gameday import (
    GamedayComparison,
    GamedayReport,
    default_gameday_plan,
    run_gameday,
    run_gameday_comparison,
)
from .journal import JournalEntry, RequestJournal
from .leases import Lease, LeaseTable
from .supervisor import Supervisor

__all__ = [
    "RecoveryConfig",
    "RequestJournal",
    "JournalEntry",
    "LeaseTable",
    "Lease",
    "Supervisor",
    "ServiceCheckpoint",
    "capture_checkpoint",
    "restore_service",
    "GamedayReport",
    "GamedayComparison",
    "default_gameday_plan",
    "run_gameday",
    "run_gameday_comparison",
]
