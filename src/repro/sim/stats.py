"""Online statistics helpers for experiment metrics.

:class:`RunningStats` implements Welford's numerically stable online
mean/variance; :class:`TimeWeightedStats` integrates a piecewise-constant
signal over virtual time (e.g. host utilization); :func:`summarize` renders
percentile summaries for benchmark tables.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence

import numpy as np

__all__ = ["RunningStats", "TimeWeightedStats", "Histogram", "summarize"]


class RunningStats:
    """Welford online mean / variance / min / max."""

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def add(self, x: float) -> None:
        x = float(x)
        self.n = n = self.n + 1
        mean = self._mean
        delta = x - mean
        self._mean = mean = mean + delta / n
        self._m2 += delta * (x - mean)
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        return self._mean if self.n else float("nan")

    @property
    def variance(self) -> float:
        """Sample (n-1) variance."""
        if self.n < 2:
            return float("nan")
        return self._m2 / (self.n - 1)

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else float("nan")

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Combine two independent accumulators (Chan et al.)."""
        out = RunningStats()
        out.n = self.n + other.n
        if out.n == 0:
            return out
        delta = other._mean - self._mean
        out._mean = self._mean + delta * other.n / out.n
        out._m2 = (self._m2 + other._m2
                   + delta * delta * self.n * other.n / out.n)
        out.minimum = min(self.minimum, other.minimum)
        out.maximum = max(self.maximum, other.maximum)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (f"RunningStats(n={self.n}, mean={self.mean:.4g}, "
                f"std={self.std:.4g})")


class TimeWeightedStats:
    """Time-integral of a piecewise-constant signal.

    ``update(t, value)`` records that the signal changed to ``value`` at time
    ``t``; :attr:`average` is the time-weighted mean over the observed span.
    """

    def __init__(self, start_time: float = 0.0, initial: float = 0.0):
        self._last_t = start_time
        self._value = initial
        self._area = 0.0
        self._span = 0.0

    def update(self, t: float, value: float) -> None:
        if t < self._last_t:
            raise ValueError(f"time went backwards: {t} < {self._last_t}")
        dt = t - self._last_t
        self._area += self._value * dt
        self._span += dt
        self._last_t = t
        self._value = float(value)

    def finish(self, t: float) -> None:
        """Close the integration window at ``t`` without changing the value."""
        self.update(t, self._value)

    @property
    def current(self) -> float:
        return self._value

    @property
    def average(self) -> float:
        return self._area / self._span if self._span > 0 else float("nan")


class Histogram:
    """Fixed-bin histogram over ``[low, high)`` with under/overflow bins."""

    def __init__(self, low: float, high: float, nbins: int = 20):
        if high <= low or nbins < 1:
            raise ValueError("invalid histogram bounds/bins")
        self.low, self.high, self.nbins = low, high, nbins
        self.counts = np.zeros(nbins + 2, dtype=np.int64)  # [under, ..., over]
        self._width = (high - low) / nbins

    def add(self, x: float) -> None:
        if x < self.low:
            self.counts[0] += 1
        elif x >= self.high:
            self.counts[-1] += 1
        else:
            self.counts[1 + int((x - self.low) / self._width)] += 1

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def bin_edges(self) -> np.ndarray:
        return np.linspace(self.low, self.high, self.nbins + 1)


def summarize(values: Sequence[float],
              percentiles: Sequence[float] = (50, 90, 99)) -> Dict[str, float]:
    """Dict of mean/std/min/max/pXX for a sample; empty-safe."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        out: Dict[str, float] = {"n": 0, "mean": float("nan"),
                                 "std": float("nan"),
                                 "min": float("nan"), "max": float("nan")}
        for p in percentiles:
            out[f"p{int(p)}"] = float("nan")
        return out
    out = {
        "n": int(arr.size),
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "min": float(arr.min()),
        "max": float(arr.max()),
    }
    for p in percentiles:
        out[f"p{int(p)}"] = float(np.percentile(arr, p))
    return out
