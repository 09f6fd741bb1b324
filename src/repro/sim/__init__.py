"""Discrete-event simulation substrate: kernel, RNG streams, distributions,
and online statistics."""

from .kernel import Event, Process, Simulator, Timeout
from .rng import RngRegistry, derive_seed
from .distributions import Clipped, Distribution, LogNormal, Pareto
from .stats import RunningStats, summarize

__all__ = [
    "Simulator", "Process", "Event", "Timeout",
    "RngRegistry", "derive_seed",
    "Distribution", "LogNormal", "Pareto", "Clipped",
    "RunningStats", "summarize",
]
