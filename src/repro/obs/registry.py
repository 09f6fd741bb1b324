"""The metrics registry: Counter / Gauge / Histogram / Timer instruments.

The paper leaves Legion unbenchmarked (section 6: "We are in the process
of benchmarking the current system"); this package supplies the missing
measurement substrate.  A :class:`MetricsRegistry` names a flat catalogue
of instruments; every hot path in the reproduction (Collection queries,
the Enactor's placement protocol, Host reservations, the transport, the
sim kernel) reports into the registry owned by its
:class:`~repro.metasystem.Metasystem`, and a deterministic
:meth:`~MetricsRegistry.snapshot` can be exported as JSON or
prometheus-style text (:mod:`repro.obs.export`).

Design points:

* **labeled children** — an instrument declared with ``labelnames``
  fans out into one *series* per label-value combination
  (``counter.labels(rtype="reusable timesharing").inc()``), mirroring
  prometheus client libraries;
* **virtual-clock timers** — :meth:`MetricsRegistry.time` measures spans
  of *simulated* time, so latency histograms report what the experiments
  measure, not wall-clock noise;
* **determinism** — snapshots iterate names and label keys in sorted
  order and contain no wall-clock input, so two identical seeded runs
  produce byte-identical exports (pinned by ``tests/test_determinism.py``);
* **quantiles** — :class:`Histogram` keeps cumulative bucket counts plus
  a :class:`~repro.sim.stats.RunningStats` accumulator, giving exact
  count/sum/min/max/mean and interpolated percentiles without storing
  samples;
* **exemplars** — a histogram remembers, per bucket, the trace ID of the
  max-latency observation that landed there (when an
  ``exemplar_provider`` is wired — the Metasystem connects it to the
  span tracer), so an outlier percentile links straight to the causal
  timeline that produced it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..sim.stats import RunningStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

#: default bucket upper bounds for virtual-time latencies (seconds)
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0)

#: default bucket upper bounds for set sizes / counts
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 1000.0)


class _Instrument:
    """Base: a named metric that may fan out into labeled child series."""

    kind = "abstract"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], "_Instrument"] = {}
        #: ``tuple(labels.items())`` exactly as a call site passed them ->
        #: leaf series; filled by :meth:`MetricsRegistry._leaf` after it
        #: has validated the labels once, so a repeat skips validation
        self._memo: Dict[tuple, "_Instrument"] = {}

    # -- labeled children ---------------------------------------------------
    def _make_child(self) -> "_Instrument":
        raise NotImplementedError

    def labels(self, **labels: Any) -> "_Instrument":
        """The child series for one label-value combination."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{sorted(self.labelnames)}, got {sorted(labels)}")
        key = tuple(str(labels[k]) for k in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def _series(self) -> List[Tuple[Dict[str, str], "_Instrument"]]:
        """(labels, leaf) pairs in deterministic (sorted key) order."""
        if not self.labelnames:
            return [({}, self)]
        return [(dict(zip(self.labelnames, key)), self._children[key])
                for key in sorted(self._children)]


class Counter(_Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Counter":
        return Counter(self.name, self.help)

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += n

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Instrument):
    """An instantaneous value; optionally computed by a callback at
    snapshot time (for cheap kernel introspection like queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def _make_child(self) -> "Gauge":
        return Gauge(self.name, self.help)

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        self._value += n

    def dec(self, n: float = 1.0) -> None:
        self._value -= n

    def set_function(self, fn: Callable[[], float]) -> None:
        """Evaluate ``fn()`` lazily whenever the gauge is read."""
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram(_Instrument):
    """Cumulative-bucket histogram with exact moments and quantiles.

    ``buckets`` are finite upper bounds; an implicit +Inf bucket catches
    the overflow.  Exact count/sum/min/max/mean come from a
    :class:`RunningStats`; :meth:`quantile` interpolates linearly within
    the containing bucket (see :func:`bucket_quantile`).
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_TIME_BUCKETS):
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)   # last slot = +Inf
        self.stats = RunningStats()
        #: bucket index -> (value, trace_id) of that bucket's max-latency
        #: observation seen so far
        self.exemplars: Dict[int, Tuple[float, str]] = {}

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.help, buckets=self.bounds)

    def observe(self, x: float, exemplar: Optional[str] = None) -> None:
        x = float(x)
        idx = bisect_left(self.bounds, x)
        self._counts[idx] += 1
        self.stats.add(x)
        if exemplar is not None:
            current = self.exemplars.get(idx)
            if current is None or x >= current[0]:
                self.exemplars[idx] = (x, exemplar)

    @property
    def count(self) -> int:
        return self.stats.n

    @property
    def sum(self) -> float:
        return self.stats.mean * self.stats.n if self.stats.n else 0.0

    def cumulative_counts(self) -> List[int]:
        """Per-bucket cumulative counts, +Inf bucket last."""
        out, running = [], 0
        for c in self._counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Interpolated q-quantile (q in [0, 1]); NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        stats = self.stats
        if stats.n == 0:
            return float("nan")
        uppers = (*self.bounds, stats.maximum)
        return bucket_quantile(zip(uppers, self.cumulative_counts()),
                               stats.n, stats.minimum, stats.maximum, q)


def bucket_quantile(buckets: Iterable[Tuple[float, int]], count: int,
                    minimum: float, maximum: float, q: float) -> float:
    """The q-quantile of ``count`` observations from their cumulative
    ``(upper bound, count)`` buckets: linear inside the bucket that holds
    rank ``q * count``, from the upper bound of the last non-empty bucket
    below it (the observed minimum if none) to its own upper bound,
    clamped to the observed ``[minimum, maximum]``.  One interpolation
    for :meth:`Histogram.quantile` and the ``legion-sim metrics`` table."""
    rank = q * count
    prev_cum = 0
    lower = minimum
    for upper, cum in buckets:
        if rank <= cum:
            width = cum - prev_cum
            frac = (rank - prev_cum) / width if width else 1.0
            value = lower + (upper - lower) * frac
            return min(max(value, minimum), maximum)
        if cum > prev_cum:
            lower = upper
        prev_cum = cum
    return maximum


class Timer:
    """Context manager recording a clock span into a histogram series.

    ``exemplar_fn`` (usually the span tracer's current-trace-ID hook)
    is evaluated at exit so the observation carries the trace it
    belongs to.
    """

    __slots__ = ("histogram", "_clock", "_exemplar_fn", "_t0")

    def __init__(self, histogram: Histogram, clock: Callable[[], float],
                 exemplar_fn: Optional[Callable[[], Optional[str]]] = None):
        self.histogram = histogram
        self._clock = clock
        self._exemplar_fn = exemplar_fn
        self._t0 = 0.0

    def __enter__(self) -> "Timer":
        self._t0 = self._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        exemplar = self._exemplar_fn() if self._exemplar_fn else None
        self.histogram.observe(self._clock() - self._t0,
                               exemplar=exemplar)


class _NullTimer:
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named catalogue of instruments bound to one (virtual) clock.

    Factory methods are idempotent: asking for an existing name returns
    the registered instrument (label names must agree; a kind clash
    raises).  The convenience one-liners (:meth:`count`, :meth:`observe`,
    :meth:`set_gauge`, :meth:`time`) infer label names from the keyword
    arguments, which keeps call sites to a single statement.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        self._metrics: Dict[str, _Instrument] = {}
        self._exemplar_provider: Optional[
            Callable[[], Optional[str]]] = None

    def set_exemplar_provider(
            self, fn: Optional[Callable[[], Optional[str]]]) -> None:
        """Wire a current-trace-ID hook: every histogram observation made
        while it returns a trace ID records that ID as the bucket's
        exemplar (if it is the bucket's max so far)."""
        self._exemplar_provider = fn

    def _current_exemplar(self) -> Optional[str]:
        if self._exemplar_provider is None:
            return None
        return self._exemplar_provider()

    @property
    def clock(self) -> Callable[[], float]:
        return self._clock

    # -- factories ----------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs) -> _Instrument:
        instrument = self._metrics.get(name)
        if instrument is not None:
            if not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} is a {instrument.kind}, "
                    f"not a {cls.kind}")
            if tuple(labelnames) != instrument.labelnames:
                raise ValueError(
                    f"metric {name!r} declared with labels "
                    f"{instrument.labelnames}, got {tuple(labelnames)}")
            return instrument
        instrument = cls(name, help, labelnames=labelnames, **kwargs)
        self._metrics[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_TIME_BUCKETS
                  ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    # -- one-line instrumentation helpers -----------------------------------
    def _leaf(self, cls, name: str, help: str, labels: Dict[str, Any],
              buckets: Optional[Sequence[float]] = None):
        """The leaf series of ``name`` for one call site's labels.

        A repeat of a (name, labels) pair already resolved is one dict
        probe on the instrument's memo.  Anything else — first use, a
        kind clash, a label set the instrument does not take — goes
        through the factories and :meth:`_Instrument.labels`, which
        validate and raise; series are only ever created there.
        """
        key = tuple(labels.items())
        instrument = self._metrics.get(name)
        if type(instrument) is cls:
            leaf = instrument._memo.get(key)
            if leaf is not None:
                return leaf
        kwargs = {} if buckets is None else {"buckets": buckets}
        instrument = self._get_or_create(cls, name, help, sorted(labels),
                                         **kwargs)
        leaf = instrument.labels(**labels) if labels else instrument
        # ``labels`` keys series by ``str(value)``; only a plain str is
        # its own key, so only those may short-cut the conversion
        if all(type(value) is str for value in labels.values()):
            instrument._memo[key] = leaf
        return leaf

    def count(self, name: str, n: float = 1.0, help: str = "",
              **labels: Any) -> None:
        self._leaf(Counter, name, help, labels).inc(n)

    def observe(self, name: str, value: float, help: str = "",
                buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
                **labels: Any) -> None:
        self._leaf(Histogram, name, help, labels, buckets).observe(
            value, exemplar=self._current_exemplar())

    def set_gauge(self, name: str, value: float, help: str = "",
                  **labels: Any) -> None:
        self._leaf(Gauge, name, help, labels).set(value)

    def gauge_fn(self, name: str, fn: Callable[[], float],
                 help: str = "") -> Gauge:
        gauge = self.gauge(name, help)
        gauge.set_function(fn)
        return gauge

    def time(self, name: str, help: str = "",
             buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
             **labels: Any) -> Timer:
        return Timer(self._leaf(Histogram, name, help, labels, buckets),
                     self._clock, exemplar_fn=self._exemplar_provider)

    # -- introspection ------------------------------------------------------
    def get(self, name: str) -> Optional[_Instrument]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- export -------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Deterministic, JSON-safe view of every series (no NaN/Inf)."""
        from .export import build_snapshot
        return build_snapshot(self)

    def to_json(self, indent: Optional[int] = None) -> str:
        from .export import snapshot_to_json
        return snapshot_to_json(self.snapshot(), indent=indent)

    def to_prometheus(self) -> str:
        from .export import snapshot_to_prometheus
        return snapshot_to_prometheus(self.snapshot())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MetricsRegistry metrics={len(self._metrics)}>"


class _NullCounter(Counter):
    def labels(self, **labels: Any) -> "_NullCounter":
        return self

    def inc(self, n: float = 1.0) -> None:
        return


class _NullGauge(Gauge):
    def labels(self, **labels: Any) -> "_NullGauge":
        return self

    def set(self, value: float) -> None:
        return

    def inc(self, n: float = 1.0) -> None:
        return

    def dec(self, n: float = 1.0) -> None:
        return


class _NullHistogram(Histogram):
    def labels(self, **labels: Any) -> "_NullHistogram":
        return self

    def observe(self, x: float, exemplar: Optional[str] = None) -> None:
        return


class NullMetricsRegistry(MetricsRegistry):
    """Records nothing — the hot-benchmark analogue of
    :class:`~repro.obs.spans.NullSpanTracer`."""

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")
        self._null_timer = _NullTimer()

    def counter(self, name, help="", labelnames=()):
        return self._null_counter

    def gauge(self, name, help="", labelnames=()):
        return self._null_gauge

    def histogram(self, name, help="", labelnames=(),
                  buckets=DEFAULT_TIME_BUCKETS):
        return self._null_histogram

    def count(self, name, n=1.0, help="", **labels):
        return

    def observe(self, name, value, help="", buckets=DEFAULT_TIME_BUCKETS,
                **labels):
        return

    def set_gauge(self, name, value, help="", **labels):
        return

    def gauge_fn(self, name, fn, help=""):
        return self._null_gauge

    def time(self, name, help="", buckets=DEFAULT_TIME_BUCKETS, **labels):
        return self._null_timer


#: shared do-nothing registry for benchmark loops
NULL_METRICS = NullMetricsRegistry()
