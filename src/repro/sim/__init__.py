"""Discrete-event simulation substrate: kernel, RNG streams, distributions,
and online statistics."""

from .kernel import AllOf, AnyOf, Event, Interrupt, Process, Simulator, Timeout
from .rng import RngRegistry, derive_seed
from .distributions import (
    Clipped,
    Constant,
    Distribution,
    Empirical,
    Exponential,
    LogNormal,
    Normal,
    Pareto,
    Shifted,
    Uniform,
    Weibull,
)
from .stats import Histogram, RunningStats, TimeWeightedStats, summarize

__all__ = [
    "Simulator", "Process", "Event", "Timeout", "AllOf", "AnyOf", "Interrupt",
    "RngRegistry", "derive_seed",
    "Distribution", "Constant", "Uniform", "Exponential", "Normal",
    "LogNormal", "Pareto", "Weibull", "Empirical", "Shifted", "Clipped",
    "RunningStats", "TimeWeightedStats", "Histogram", "summarize",
]
