"""The Data Collection Daemon.

Paper section 3.2, footnote 4: "We are implementing an intermediate agent,
the Data Collection Daemon, which pulls data from Hosts and pushes it into
Collections."  The daemon decouples resource objects from Collection
placement: hosts need not know where Collections live, and the daemon's
sweep interval gives the experimenter a single knob for information
staleness (experiment E6 compares push / pull / daemon freshness).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..obs.registry import NULL_METRICS
from ..sim.kernel import Simulator, Ticker
from .collection import Collection

__all__ = ["DataCollectionDaemon"]


class DataCollectionDaemon:
    """Periodically pulls attributes from sources and pushes to Collections."""

    def __init__(self, sim: Simulator, collections: Sequence[Collection],
                 interval: float = 60.0, metrics: Any = NULL_METRICS):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.collections: List[Collection] = list(collections)
        self.interval = interval
        self.metrics = metrics
        self._sources: List = []
        self._credentials = {}
        #: optional guardrails hookup (see attach_health)
        self._health = None
        self._evict_after: Optional[float] = None
        self.evictions = 0
        self.sweeps = 0
        self._ticker: Optional[Ticker] = None

    def watch(self, source) -> None:
        """Add a resource object (host, vault) to the pull set."""
        self._sources.append(source)
        for coll in self.collections:
            self._credentials[(id(coll), source.loid)] = coll.join(
                source.loid, source.attributes.snapshot())

    def attach_health(self, monitor: Any,
                      evict_after: Optional[float] = None) -> None:
        """Make sweeps health-aware (guardrails).

        Sources the monitor classifies DOWN are skipped (their stale
        snapshot must not overwrite the quarantine marker), and once a
        source has been DOWN longer than ``evict_after`` virtual seconds
        its records are evicted from every Collection so dead hosts stop
        polluting query results.  Eviction drops the cached credential,
        so a recovered source is re-joined on its next sweep.
        """
        if evict_after is not None and evict_after <= 0:
            raise ValueError("evict_after must be positive")
        self._health = monitor
        self._evict_after = evict_after

    def _evict(self, source) -> None:
        for coll in self.collections:
            cred = self._credentials.pop((id(coll), source.loid), None)
            try:
                coll.leave(source.loid, cred)
            except Exception:
                # already gone (or unauthenticated tombstone) — the point
                # is that the record no longer answers queries
                continue
        self.evictions += 1
        self.metrics.count("collection_evictions_total")

    def sweep(self) -> None:
        """One pull-all/push-all pass."""
        down = 0
        for source in self._sources:
            if self._health is not None:
                state = self._health.state_of(source.loid)
                if state == "down":
                    down += 1
                    since = self._health.down_since(source.loid)
                    if (self._evict_after is not None and since is not None
                            and self.sim.now - since >= self._evict_after):
                        self._evict(source)
                    continue
            snapshot = source.attributes.snapshot()
            for coll in self.collections:
                cred = self._credentials.get((id(coll), source.loid))
                if cred is None:
                    cred = coll.join(source.loid, snapshot)
                    self._credentials[(id(coll), source.loid)] = cred
                else:
                    coll.update_entry(source.loid, snapshot, cred)
        self.metrics.set_gauge("collection_down_members", down)
        self.sweeps += 1

    def start(self) -> None:
        """Begin periodic sweeps on the simulator."""
        if self._ticker is None:
            self._ticker = Ticker(self.sim, self.interval)
            self._ticker.subscribe(self, self.sweep)

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.unsubscribe(self)
            self._ticker = None
