"""Parametric samplers used by the metasystem substrate.

Each distribution is a small immutable object with a ``sample(rng)`` method
taking a :class:`numpy.random.Generator`; workload and latency models are
configured with these so experiments can sweep distributional assumptions
without touching component code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Distribution",
    "LogNormal",
    "Pareto",
    "Clipped",
]


class Distribution:
    """Abstract sampler.  Subclasses must implement :meth:`sample`."""

    def sample(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Vectorized sampling; the default loops, subclasses vectorize."""
        return np.array([self.sample(rng) for _ in range(n)], dtype=float)

    @property
    def mean(self) -> float:
        """Analytic mean where known; ``nan`` otherwise."""
        return float("nan")


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Log-normal parameterized by the underlying normal's mu/sigma."""

    mu: float
    sigma: float

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.mu, self.sigma))

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=n)

    @property
    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma ** 2)


@dataclass(frozen=True)
class Pareto(Distribution):
    """Pareto (heavy tail) with shape ``alpha`` and scale ``xm`` (minimum)."""

    alpha: float
    xm: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0 or self.xm <= 0:
            raise ValueError("Pareto alpha and xm must be positive")

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.xm * (1.0 + rng.pareto(self.alpha)))

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.xm * (1.0 + rng.pareto(self.alpha, size=n))

    @property
    def mean(self) -> float:
        if self.alpha <= 1:
            return float("inf")
        return self.alpha * self.xm / (self.alpha - 1)


@dataclass(frozen=True)
class Clipped(Distribution):
    """Clamp a base distribution into ``[low, high]``."""

    base: Distribution
    low: float = 0.0
    high: float = float("inf")

    def __post_init__(self):
        if self.high < self.low:
            raise ValueError("Clipped high < low")

    def sample(self, rng: np.random.Generator) -> float:
        return float(min(max(self.base.sample(rng), self.low), self.high))

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.clip(self.base.sample_n(rng, n), self.low, self.high)
