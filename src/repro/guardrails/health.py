"""HealthMonitor: per-host liveness classification and quarantine publishing.

The monitor fuses two evidence streams:

* **heartbeats** — every Host Object reassessment push doubles as a
  liveness beacon (the monitor registers itself as a push target), and
* **invoke outcomes** — the :class:`~repro.guardrails.breaker.BreakerBoard`
  forwards per-destination success/failure results.

A periodic sweep classifies each watched host::

                 stale > suspect_after              stale > down_after
                 or failures >= FAIL_SUSPECT        or failures >= FAIL_DOWN
        LIVE  ------------------------------> SUSPECT -----------------> DOWN
          ^                                      |                        |
          |        fresh heartbeat /             |   fresh heartbeat /    |
          +---------- invoke success ------------+------ invoke success --+

and on every transition publishes ``host_health`` / ``host_health_since``
into the host's Collection record so Schedulers and the federation
router can exclude quarantined hosts *at query time*.  A heartbeat also
resets the consecutive-failure count — a quarantined host receives no
invokes, so without this the failure count could never decay and a
recovered host would stay quarantined forever.

Everything is driven by the virtual clock; the monitor draws **no**
random numbers, so enabling guardrails never perturbs the seeded RNG
streams of an existing scenario.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import HostUnreachableError, NetworkError, NotAMemberError
from ..obs import NULL_METRICS, NULL_SPANS
from ..sim.kernel import Ticker

__all__ = ["LIVE", "SUSPECT", "DOWN", "FAIL_DOWN", "FAIL_SUSPECT",
           "HEALTH_INTERVAL", "HealthMonitor"]

LIVE = "live"
SUSPECT = "suspect"
DOWN = "down"

#: classification sweep period on the virtual clock
HEALTH_INTERVAL = 15.0
#: consecutive invoke failures that force SUSPECT regardless of age
FAIL_SUSPECT = 2
#: consecutive invoke failures that force DOWN regardless of age
FAIL_DOWN = 5


class _HostHealth:
    """Mutable per-host evidence + classification."""

    __slots__ = ("loid", "host", "credential", "state", "since",
                 "last_seen", "consecutive_failures")

    def __init__(self, loid: Any, host: Any, credential: Any, now: float):
        #: the member's actual LOID object (Collection records key on it)
        self.loid = loid
        self.host = host
        self.credential = credential
        self.state = LIVE
        self.since = now
        self.last_seen = now
        self.consecutive_failures = 0


class HealthMonitor:
    """Classify watched hosts LIVE/SUSPECT/DOWN and publish quarantine."""

    def __init__(self, sim: Any, collection: Any, *,
                 suspect_after: float = 75.0, down_after: float = 150.0,
                 metrics: Any = NULL_METRICS, spans: Any = NULL_SPANS):
        self.sim = sim
        self.collection = collection
        self.suspect_after = float(suspect_after)
        self.down_after = float(down_after)
        self.metrics = metrics
        self.spans = spans
        self._hosts: Dict[str, _HostHealth] = {}
        self._by_location: Dict[str, str] = {}
        self.transitions = 0
        self.publish_failures = 0
        self._ticker: Optional[Ticker] = None

    # -- registration ------------------------------------------------------
    def watch(self, host: Any, credential: Any = None) -> None:
        """Track a Host Object's health, using ``credential`` to publish."""
        key = str(host.loid)
        if key in self._hosts:
            return
        self._hosts[key] = _HostHealth(host.loid, host, credential,
                                       self.sim.now)
        self._by_location[str(host.location)] = key
        host.add_push_target(self._heartbeat)

    def _heartbeat(self, host: Any, now: float) -> None:
        record = self._hosts.get(str(host.loid))
        if record is None:
            return
        record.last_seen = now
        record.consecutive_failures = 0

    # -- invoke evidence (BreakerBoard listener) ---------------------------
    def note_outcome(self, dst_key: str, ok: bool) -> None:
        loid = self._by_location.get(dst_key)
        if loid is None:
            return
        record = self._hosts[loid]
        if ok:
            record.last_seen = self.sim.now
            record.consecutive_failures = 0
        else:
            record.consecutive_failures += 1

    # -- classification ----------------------------------------------------
    def _classify(self, record: _HostHealth, now: float) -> str:
        stale = now - record.last_seen
        if stale > self.down_after or record.consecutive_failures >= FAIL_DOWN:
            return DOWN
        if stale > self.suspect_after or record.consecutive_failures >= FAIL_SUSPECT:
            return SUSPECT
        return LIVE

    def tick(self) -> None:
        now = self.sim.now
        for loid in sorted(self._hosts):
            record = self._hosts[loid]
            state = self._classify(record, now)
            if state != record.state:
                self._transition(record, state, now)
        counts = self.counts()
        self.metrics.set_gauge("guardrail_hosts_suspect", counts[SUSPECT])
        self.metrics.set_gauge("guardrail_hosts_down", counts[DOWN])

    def _transition(self, record: _HostHealth, to: str, now: float) -> None:
        frm, record.state = record.state, to
        prev_since, record.since = record.since, now
        self.transitions += 1
        self.metrics.count("guardrail_health_transitions_total",
                           from_state=frm, to_state=to)
        self.spans.record_span("guardrail:health", start=now, end=now,
                               host=str(record.loid), from_state=frm,
                               to_state=to)
        if frm != LIVE and to == LIVE:
            # one span per completed quarantine window
            self.spans.record_span("guardrail:quarantine",
                                   start=prev_since, end=now,
                                   host=str(record.loid), worst=frm)
        self._publish(record, now)

    def _publish(self, record: _HostHealth, now: float) -> None:
        """Write host_health into the host's Collection record.

        Health rides the Collection record directly (not the host's
        attribute snapshot), so ordinary reassessment pushes never
        clobber it and an evicted-then-rejoined record simply lacks the
        key (treated as live).
        """
        if record.credential is None:
            return
        update = {"host_health": record.state, "host_health_since": now}
        try:
            self.collection.update_entry(record.loid, update,
                                         record.credential)
        except (NotAMemberError, NetworkError, HostUnreachableError):
            # record was evicted, or the Collection is unreachable this
            # instant; the next transition (or re-join) republishes
            self.publish_failures += 1

    # -- queries -----------------------------------------------------------
    def state_of(self, loid: Any) -> str:
        record = self._hosts.get(str(loid))
        return record.state if record is not None else LIVE

    def down_since(self, loid: Any) -> Optional[float]:
        record = self._hosts.get(str(loid))
        if record is not None and record.state == DOWN:
            return record.since
        return None

    def counts(self) -> Dict[str, int]:
        out = {LIVE: 0, SUSPECT: 0, DOWN: 0}
        for record in self._hosts.values():
            out[record.state] += 1
        return out

    def watched(self) -> int:
        return len(self._hosts)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Deterministic per-host evidence for checkpoint audits."""
        return {loid: {"state": record.state,
                       "since": record.since,
                       "last_seen": record.last_seen,
                       "consecutive_failures": record.consecutive_failures}
                for loid, record in sorted(self._hosts.items())}

    # -- daemon ------------------------------------------------------------
    def start(self) -> None:
        if self._ticker is None:
            self._ticker = Ticker(self.sim, HEALTH_INTERVAL)
            self._ticker.subscribe(self, self.tick)

    def __repr__(self) -> str:  # pragma: no cover
        counts = self.counts()
        return (f"<HealthMonitor watched={len(self._hosts)} "
                f"suspect={counts[SUSPECT]} down={counts[DOWN]}>")
