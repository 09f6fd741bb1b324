"""Experiment harness: table rendering.

Every benchmark target in ``benchmarks/`` builds rows with
:class:`ExperimentTable` and prints them, so experiment output is uniform
and EXPERIMENTS.md entries can be regenerated verbatim.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Sequence

__all__ = ["ExperimentTable", "fmt"]


def fmt(value: Any, precision: int = 3) -> str:
    """Render one cell value compactly."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:
            return "nan"
        if value == float("inf"):
            return "inf"
        if abs(value) >= 1000 or (0 < abs(value) < 0.001):
            return f"{value:.{precision}g}"
        return f"{value:.{precision}f}"
    return str(value)


class ExperimentTable:
    """An aligned, titled results table."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add(self, *values: Any, **named: Any) -> None:
        """Add one row, positionally or by column name."""
        if values and named:
            raise ValueError("pass either positional or named cells")
        if named:
            values = tuple(named.get(c, "") for c in self.columns)
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has "
                f"{len(self.columns)} columns")
        self.rows.append([fmt(v) for v in values])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [f"== {self.title} =="]
        lines.append(" | ".join(c.ljust(w)
                                for c, w in zip(self.columns, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w)
                                    for c, w in zip(row, widths)))
        return "\n".join(lines)

    def print(self, stream=None) -> None:
        print(self.render(), file=stream or sys.stdout)
        print(file=stream or sys.stdout)

    def as_dicts(self) -> List[Dict[str, str]]:
        return [dict(zip(self.columns, row)) for row in self.rows]
