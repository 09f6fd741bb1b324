"""Online statistics helpers for experiment metrics.

:class:`RunningStats` keeps an online count / mean / min / max;
:func:`summarize` renders percentile summaries for benchmark tables.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

__all__ = ["RunningStats", "summarize"]


class RunningStats:
    """Online count / mean / min / max."""

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def add(self, x: float) -> None:
        x = float(x)
        self.n = n = self.n + 1
        mean = self._mean
        self._mean = mean + (x - mean) / n
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    @property
    def mean(self) -> float:
        return self._mean if self.n else float("nan")

    def __repr__(self) -> str:  # pragma: no cover
        return f"RunningStats(n={self.n}, mean={self.mean:.4g})"


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
