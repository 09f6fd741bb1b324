"""The metrics registry: one flat store, one way in, one way out.

The paper leaves Legion unbenchmarked (section 6: "We are in the process
of benchmarking the current system"); this package supplies the missing
measurement substrate.  A :class:`MetricsRegistry` holds one
:class:`MetricFamily` per metric name; every hot path in the
reproduction (Collection queries, the Enactor's placement protocol, Host
reservations, the transport, the sim kernel) reports into the registry
owned by its :class:`~repro.metasystem.Metasystem`, and a deterministic
:meth:`~MetricsRegistry.snapshot` can be exported as JSON or
prometheus-style text (:mod:`repro.obs.export`).

Design points:

* **one recording API** — :meth:`~MetricsRegistry.count`,
  :meth:`~MetricsRegistry.observe`, :meth:`~MetricsRegistry.set_gauge`,
  :meth:`~MetricsRegistry.gauge_fn` and :meth:`~MetricsRegistry.time`
  are single statements whose keyword arguments are the labels
  (``count("host_reservations_granted_total", rtype="reusable")``); a
  name's first use fixes its kind and label names;
* **one reader** — :meth:`~MetricsRegistry.series` yields every series
  in sorted order; the exporters and the time-series sampler read
  through it, so only this module knows the store's layout;
* **flat store** — a family maps label values to series: a
  :class:`Scalar` (a counter or gauge value, or a lazy gauge's read
  function) or a :class:`Histogram`.  A series exists from its first
  use, so no snapshot gains a zero series;
* **virtual-clock timers** — :meth:`MetricsRegistry.time` measures spans
  of *simulated* time, so latency histograms report what the experiments
  measure, not wall-clock noise;
* **determinism** — snapshots iterate names and label keys in sorted
  order and contain no wall-clock input, so two identical seeded runs
  produce byte-identical exports (pinned by ``tests/test_determinism.py``);
* **quantiles** — :class:`Histogram` keeps bucket counts plus a
  :class:`~repro.sim.stats.RunningStats` accumulator, giving exact
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
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..sim.stats import RunningStats

__all__ = [
    "Histogram",
    "MetricFamily",
    "Scalar",
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


class Scalar:
    """A counter or gauge series: its value, or the read function of a
    lazy gauge (evaluated whenever the series is read)."""

    __slots__ = ("value", "fn")

    def __init__(self) -> None:
        self.value = 0.0
        self.fn: Optional[Callable[[], float]] = None

    def read(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self.value


class Histogram:
    """A histogram series: cumulative buckets with exact moments and
    quantiles.

    ``buckets`` are finite upper bounds; an implicit +Inf bucket catches
    the overflow.  Exact count/sum/min/max/mean come from a
    :class:`RunningStats`; :meth:`quantile` interpolates linearly within
    the containing bucket (see :func:`bucket_quantile`).
    """

    __slots__ = ("bounds", "counts", "stats", "exemplars")

    def __init__(self, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        #: per-bucket (not cumulative) counts; last slot = +Inf
        self.counts = [0] * (len(bounds) + 1)
        self.stats = RunningStats()
        #: bucket index -> (value, trace_id) of that bucket's max-latency
        #: observation seen so far
        self.exemplars: Dict[int, Tuple[float, str]] = {}

    def observe(self, x: float, exemplar: Optional[str] = None) -> None:
        x = float(x)
        idx = bisect_left(self.bounds, x)
        self.counts[idx] += 1
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

    def bucket_labels(self) -> List[str]:
        """The ``le`` text of every bucket (``"0.005"``, ..., ``"+Inf"``),
        as the exports and the sampler's windows print them."""
        return [repr(b) for b in self.bounds] + ["+Inf"]

    def cumulative_counts(self) -> List[int]:
        """Per-bucket cumulative counts, +Inf bucket last."""
        out, running = [], 0
        for c in self.counts:
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


class MetricFamily:
    """Everything recorded under one metric name: its kind, help text,
    label names and histogram bucket bounds, and its series keyed by
    label values (``str`` of each, in ``labelnames`` order)."""

    __slots__ = ("kind", "help", "labelnames", "buckets", "series")

    def __init__(self, kind: str, help: str, labelnames: Tuple[str, ...],
                 buckets: Sequence[float]):
        self.kind = kind
        self.help = help
        self.labelnames = labelnames
        self.buckets = tuple(buckets)
        self.series: Dict[Tuple[str, ...], Any] = {}


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


class MetricsRegistry:
    """A flat store of metric families bound to one (virtual) clock.

    Every metric is recorded by one statement — :meth:`count`,
    :meth:`observe`, :meth:`set_gauge`, :meth:`gauge_fn` or
    :meth:`time` — whose keyword arguments are its labels; the first use
    of a name fixes its kind, help text, label names and (for a
    histogram) bucket bounds, and a later use that disagrees on kind or
    label names raises.  Every series is read through :meth:`series`.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        self._families: Dict[str, MetricFamily] = {}
        #: per kind, ``(name, *labels.items())`` exactly as a call site
        #: passed them -> series; filled by :meth:`_resolve` after it has
        #: validated the labels once, so a repeat is one dict probe
        self._counters: Dict[tuple, Scalar] = {}
        self._gauges: Dict[tuple, Scalar] = {}
        self._histograms: Dict[tuple, Histogram] = {}
        self._exemplar_provider: Optional[
            Callable[[], Optional[str]]] = None

    def set_exemplar_provider(
            self, fn: Optional[Callable[[], Optional[str]]]) -> None:
        """Wire a current-trace-ID hook: every histogram observation made
        while it returns a trace ID records that ID as the bucket's
        exemplar (if it is the bucket's max so far)."""
        self._exemplar_provider = fn

    @property
    def clock(self) -> Callable[[], float]:
        return self._clock

    # -- recording ------------------------------------------------------------
    def _resolve(self, index: Dict[tuple, Any], kind: str, name: str,
                 help: str, labels: Dict[str, Any],
                 buckets: Sequence[float] = ()) -> Any:
        """The series of ``name`` for one call site's labels.

        Validates the call against the family (kind, label names) and
        creates the family and the series on first use — a family is
        stored only with its first series, so a rejected call leaves no
        trace.  Then files the series in ``index`` for the fast path.
        """
        labelnames = tuple(sorted(labels))
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(kind, help, labelnames, buckets)
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}")
        elif family.labelnames != labelnames:
            raise ValueError(
                f"metric {name!r} declared with labels "
                f"{family.labelnames}, got {labelnames}")
        key = tuple(str(labels[k]) for k in labelnames)
        series = family.series.get(key)
        if series is None:
            series = (Histogram(family.buckets) if kind == "histogram"
                      else Scalar())
            family.series[key] = series
            self._families[name] = family
        # series are keyed by ``str(value)``; only a plain str is its own
        # key, so only those may short-cut the conversion
        if all(type(value) is str for value in labels.values()):
            index[(name, *labels.items())] = series
        return series

    def count(self, name: str, n: float = 1.0, help: str = "",
              **labels: Any) -> None:
        """Add ``n`` (never negative) to a counter."""
        if n < 0:
            raise ValueError(f"counter {name!r} cannot decrease")
        series = self._counters.get((name, *labels.items()))
        if series is None:
            series = self._resolve(self._counters, "counter", name, help,
                                   labels)
        series.value += n

    def observe(self, name: str, value: float, help: str = "",
                buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
                **labels: Any) -> None:
        """Record one histogram observation (with the current trace as
        its exemplar when an exemplar provider is wired)."""
        series = self._histograms.get((name, *labels.items()))
        if series is None:
            series = self._resolve(self._histograms, "histogram", name,
                                   help, labels, buckets)
        provider = self._exemplar_provider
        series.observe(value, provider() if provider is not None else None)

    def set_gauge(self, name: str, value: float, help: str = "",
                  **labels: Any) -> None:
        """Set a gauge to ``value``."""
        series = self._gauges.get((name, *labels.items()))
        if series is None:
            series = self._resolve(self._gauges, "gauge", name, help,
                                   labels)
        series.value = float(value)

    def gauge_fn(self, name: str, fn: Callable[[], float], help: str = "",
                 **labels: Any) -> None:
        """Make a gauge lazy: ``fn()`` is evaluated whenever it is read
        (for cheap introspection like the kernel's queue depth)."""
        self._resolve(self._gauges, "gauge", name, help, labels).fn = fn

    def time(self, name: str, help: str = "",
             buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
             **labels: Any) -> Timer:
        """A context manager observing the clock span it encloses."""
        series = self._histograms.get((name, *labels.items()))
        if series is None:
            series = self._resolve(self._histograms, "histogram", name,
                                   help, labels, buckets)
        return Timer(series, self._clock,
                     exemplar_fn=self._exemplar_provider)

    # -- reading --------------------------------------------------------------
    def series(self) -> Iterator[Tuple[str, MetricFamily, Dict[str, str],
                                       Any]]:
        """Every series as ``(name, family, labels, series)``: names, then
        label values, in sorted order.  ``series`` is a :class:`Scalar`
        (read it with :meth:`Scalar.read`) or a :class:`Histogram`."""
        for name in sorted(self._families):
            family = self._families[name]
            for key in sorted(family.series):
                yield (name, family, dict(zip(family.labelnames, key)),
                       family.series[key])

    def names(self) -> List[str]:
        return sorted(self._families)

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

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
        return f"<MetricsRegistry metrics={len(self._families)}>"


class NullMetricsRegistry(MetricsRegistry):
    """Records nothing — the hot-benchmark analogue of
    :class:`~repro.obs.spans.NullSpanTracer`."""

    _null_timer = _NullTimer()

    def count(self, name, n=1.0, help="", **labels):
        return

    def observe(self, name, value, help="", buckets=DEFAULT_TIME_BUCKETS,
                **labels):
        return

    def set_gauge(self, name, value, help="", **labels):
        return

    def gauge_fn(self, name, fn, help="", **labels):
        return

    def time(self, name, help="", buckets=DEFAULT_TIME_BUCKETS, **labels):
        return self._null_timer


#: shared do-nothing registry for benchmark loops
NULL_METRICS = NullMetricsRegistry()
