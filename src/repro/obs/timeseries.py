"""Time-series telemetry: windowed metric history over the registry.

The registry (:mod:`repro.obs.registry`) answers "what happened in
total"; this module answers "how did the system behave *over time*".  A
:class:`MetricsSampler` is a kernel daemon that closes a fixed
virtual-time **window** every ``window`` seconds: it snapshots every
registry series, diffs it against the previous snapshot, and appends one
:class:`Window` row to a bounded ring.  The Network Weather Service
(PAPERS.md) is exactly such a time-series-of-measurements substrate for
grid resources; GridSim ships time-resolved statistics for the same
reason — aggregate totals cannot show a burst, a stall, or a recovery.

Per-series window semantics:

* **counter** — the delta accumulated inside the window plus the
  running total and a per-second ``rate`` (delta / window length);
* **gauge** — the instantaneous reading at window close (gauge-last);
* **histogram** — the *non-cumulative* per-bucket count deltas, the
  windowed observation count and sum, and the trace IDs of exemplars
  that first appeared (or moved) during the window — the hook the SLO
  engine uses to link a breached window to the causal trace that
  breached it.

Design points:

* **deterministic** — window boundaries are virtual-time multiples of
  the window length, rows iterate series in sorted key order, and the
  JSONL export sorts keys, so two identical seeded runs produce
  byte-identical histories (pinned by ``tests/test_timeseries.py``);
* **bounded** — the ring keeps the last ``max_windows`` rows and counts
  what it dropped, so soak runs cannot grow without limit;
* **opt-in** — nothing samples unless a sampler is started, so
  sampler-off runs schedule no extra kernel events and existing
  benchmark ledgers stay byte-identical.

The ASCII sparkline renderer (:func:`sparkline`) turns any per-window
numeric column into a one-line shape for terminal reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.kernel import Ticker

__all__ = [
    "Window",
    "MetricsSampler",
    "series_key",
    "sparkline",
    "windows_to_jsonl",
]

#: ascii ramp used by :func:`sparkline` (space = zero / no data)
SPARK_LEVELS = " .:-=+*#%@"


def series_key(name: str, labels: Dict[str, str]) -> str:
    """Canonical series key: ``name{k="v",...}`` with sorted label keys
    (prometheus selector syntax, and the key format of
    :attr:`Window.series`)."""
    if not labels:
        return name
    body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return name + "{" + body + "}"


@dataclass
class Window:
    """One closed sampling window: per-series deltas over [start, end)."""

    index: int
    start: float
    end: float
    #: series key -> row dict (see module docstring for per-kind shapes)
    series: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def length(self) -> float:
        return self.end - self.start

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return self.series.get(key)

    def matching(self, name: str,
                 labels: Optional[Dict[str, str]] = None
                 ) -> List[Dict[str, Any]]:
        """Rows for every series of metric ``name`` whose labels include
        ``labels`` (subset match; None/{} matches all series of the
        metric), in sorted key order."""
        out = []
        for key in sorted(self.series):
            row = self.series[key]
            if row["name"] != name:
                continue
            if labels:
                row_labels = row["labels"]
                if any(row_labels.get(k) != str(v)
                       for k, v in labels.items()):
                    continue
            out.append(row)
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "series": {key: dict(row) for key, row in
                       sorted(self.series.items())},
        }


class MetricsSampler:
    """Kernel daemon snapshotting registry deltas on a fixed window.

    ``start()`` schedules a tick every ``window`` virtual seconds; each
    tick closes the window ending at that boundary.  ``flush()`` closes
    the current partial window (end = now) — call it once at the end of
    a run so the tail of the history is not lost.  The ring keeps the
    last ``max_windows`` rows; older rows are dropped and counted.
    """

    def __init__(self, sim: Any, registry: Any, window: float = 30.0,
                 max_windows: int = 256):
        if window <= 0:
            raise ValueError("sampler window must be positive")
        if max_windows < 1:
            raise ValueError("max_windows must be at least 1")
        self.sim = sim
        self.registry = registry
        self.window = float(window)
        self.max_windows = int(max_windows)
        self.windows: List[Window] = []
        self.dropped = 0
        self.samples_taken = 0
        self._ticker: Optional[Ticker] = None
        self._next_index = 0
        self._last_close = 0.0
        #: (name, label_tuple) -> previous raw reading
        self._prev: Dict[Tuple[str, Tuple[str, ...]], Any] = {}

    # -- raw capture --------------------------------------------------------
    def _capture(self) -> Dict[Tuple[str, Tuple[str, ...]], Any]:
        """Raw per-series state: enough to diff, cheap to hold."""
        state: Dict[Tuple[str, Tuple[str, ...]], Any] = {}
        for name, family, labels, series in self.registry.series():
            key = (name, tuple(f"{k}={v}" for k, v in labels.items()))
            if family.kind == "histogram":
                state[key] = ("histogram", labels, list(series.counts),
                              series.count, float(series.sum),
                              series.bucket_labels(),
                              dict(series.exemplars))
            else:
                state[key] = (family.kind, labels, float(series.read()))
        return state

    def _diff_row(self, key: Tuple[str, Tuple[str, ...]], cur: Any,
                  prev: Any) -> Dict[str, Any]:
        name = key[0]
        kind = cur[0]
        labels = {k: str(v) for k, v in cur[1].items()}
        row: Dict[str, Any] = {"name": name, "kind": kind,
                               "labels": labels}
        length = max(self.window, 1e-12)
        if kind == "counter":
            total = cur[2]
            before = prev[2] if prev is not None else 0.0
            delta = max(0.0, total - before)
            row.update({"delta": delta, "total": total,
                        "rate": delta / length})
        elif kind == "gauge":
            row.update({"value": cur[2]})
        else:  # histogram
            counts, count, total_sum, bound_strs, exemplars = cur[2:]
            if prev is not None:
                prev_counts, prev_count, prev_sum = prev[2], prev[3], prev[4]
                prev_exemplars = prev[6]
            else:
                prev_counts = [0] * len(counts)
                prev_count, prev_sum = 0, 0.0
                prev_exemplars = {}
            deltas = [max(0, a - b)
                      for a, b in zip(counts, prev_counts)]
            fresh = sorted(
                trace_id
                for idx, (value, trace_id) in exemplars.items()
                if prev_exemplars.get(idx) != (value, trace_id)
                and trace_id)
            row.update({
                "count": max(0, count - prev_count),
                "sum": max(0.0, total_sum - prev_sum),
                "buckets": [[b, d] for b, d in zip(bound_strs, deltas)],
                "exemplars": fresh,
            })
        return row

    # -- window lifecycle ---------------------------------------------------
    def _close_window(self, end: float) -> Optional[Window]:
        """Diff the registry against the previous close and append a row."""
        if end <= self._last_close:
            return None
        state = self._capture()
        window = Window(index=self._next_index,
                        start=self._last_close, end=end)
        for key in sorted(state):
            cur = state[key]
            prev = self._prev.get(key)
            row = self._diff_row(key, cur, prev)
            window.series[series_key(key[0], row["labels"])] = row
        self._prev = state
        self._last_close = end
        self._next_index += 1
        self.samples_taken += 1
        self.windows.append(window)
        if len(self.windows) > self.max_windows:
            overflow = len(self.windows) - self.max_windows
            del self.windows[:overflow]
            self.dropped += overflow
        return window

    def start(self) -> "MetricsSampler":
        """Begin periodic window closes on the simulator."""
        if self._ticker is not None:
            return self
        self._last_close = self.sim.now
        self._prev = self._capture()
        self._ticker = Ticker(self.sim, self.window)
        self._ticker.subscribe(
            self, lambda: self._close_window(self.sim.now))
        return self

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.unsubscribe(self)
            self._ticker = None

    def flush(self) -> Optional[Window]:
        """Close the current partial window at the present virtual time
        (no-op when the clock sits exactly on the last boundary)."""
        return self._close_window(self.sim.now)

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.windows)

    def column(self, name: str, field_name: str = "rate",
               labels: Optional[Dict[str, str]] = None,
               reducer: Callable[[Sequence[float]], float] = sum
               ) -> List[float]:
        """One numeric value per retained window for metric ``name``:
        the ``field_name`` entries of every matching series, combined by
        ``reducer`` (default sum; 0.0 for windows without the series)."""
        out: List[float] = []
        for window in self.windows:
            values = [float(row.get(field_name, 0.0) or 0.0)
                      for row in window.matching(name, labels)]
            out.append(float(reducer(values)) if values else 0.0)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<MetricsSampler window={self.window} "
                f"windows={len(self.windows)} dropped={self.dropped}>")


def sparkline(values: Sequence[float], width: int = 0) -> str:
    """ASCII sparkline of ``values`` scaled to the observed maximum.

    Zero (and missing) values render as spaces so gaps are visible;
    ``width`` > 0 keeps only the most recent ``width`` values.
    """
    vals = [max(0.0, float(v)) for v in values]
    if width > 0:
        vals = vals[-width:]
    if not vals:
        return ""
    top = max(vals)
    if top <= 0:
        return " " * len(vals)
    out = []
    levels = len(SPARK_LEVELS) - 1
    for v in vals:
        idx = 0 if v <= 0 else max(1, int(round(levels * v / top)))
        out.append(SPARK_LEVELS[idx])
    return "".join(out)


def windows_to_jsonl(windows: Sequence[Window]) -> str:
    """One JSON object per window per line, byte-stable (sorted keys)."""
    lines = [json.dumps(w.to_dict(), sort_keys=True,
                        separators=(",", ":"), allow_nan=False)
             for w in windows]
    return "\n".join(lines) + ("\n" if lines else "")
