"""Benchmark-harness utilities: experiment tables, sequence diagrams and
the scale campaign."""

from .harness import ExperimentTable, fmt
from .sequence import protocol_trace, render_sequence
from .scale import ScaleDatapoint, ScaleReport, run_scale

__all__ = [
    "ExperimentTable", "fmt",
    "render_sequence", "protocol_trace",
    "ScaleDatapoint", "ScaleReport", "run_scale",
]
