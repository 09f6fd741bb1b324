"""Event tracing for experiments and debugging.

A :class:`Tracer` records timestamped, categorized trace records.  The
benchmark harness uses traces to compute per-step protocol latency (E3),
reservation-thrashing counts (E7), and migration timelines (E12).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, MutableSequence, Optional,
                    Tuple)

__all__ = ["TraceRecord", "Tracer", "NullTracer"]


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped trace entry."""

    time: float
    category: str
    event: str
    details: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        kv = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{self.time:12.6f}] {self.category}/{self.event} {kv}".rstrip()


class Tracer:
    """Collects :class:`TraceRecord` entries, with category filtering.

    With ``max_records`` set, ``records`` becomes a ring buffer holding
    only the most recent entries — long soak runs stay bounded — while
    :meth:`count` and :attr:`total_records` remain exact over the whole
    run.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 enabled_categories: Optional[set] = None,
                 max_records: Optional[int] = None):
        if max_records is not None and max_records < 1:
            raise ValueError("max_records must be >= 1")
        self._clock = clock or (lambda: 0.0)
        self.max_records = max_records
        self.records: MutableSequence[TraceRecord] = (
            [] if max_records is None else deque(maxlen=max_records))
        self.enabled_categories = enabled_categories  # None = everything
        self._counts: Dict[Tuple[str, str], int] = {}
        self.total_records = 0
        #: span bridge: a :class:`~repro.obs.spans.SpanTracer` (set by the
        #: Metasystem) receiving every emitted record as a span event on
        #: the currently open span, giving flat traces causal context
        self.span_sink: Optional[Any] = None

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the virtual clock after construction."""
        self._clock = clock

    def emit(self, category: str, event: str, **details: Any) -> None:
        """Record one entry (no-op if the category is filtered out)."""
        if (self.enabled_categories is not None
                and category not in self.enabled_categories):
            return
        self.records.append(
            TraceRecord(self._clock(), category, event, details))
        self.total_records += 1
        key = (category, event)
        self._counts[key] = self._counts.get(key, 0) + 1
        if self.span_sink is not None:
            self.span_sink.event(category, event, **details)

    def count(self, category: str, event: Optional[str] = None) -> int:
        """Number of records matching category (and optionally event)."""
        if event is not None:
            return self._counts.get((category, event), 0)
        return sum(v for k, v in self._counts.items() if k[0] == category)

    def select(self, category: Optional[str] = None,
               event: Optional[str] = None) -> Iterator[TraceRecord]:
        """Iterate records filtered by category and/or event name."""
        for rec in self.records:
            if category is not None and rec.category != category:
                continue
            if event is not None and rec.event != event:
                continue
            yield rec

    def clear(self) -> None:
        self.records.clear()
        self._counts.clear()
        self.total_records = 0

    def __len__(self) -> int:
        return len(self.records)


class NullTracer(Tracer):
    """A tracer that records nothing — for hot benchmark loops."""

    def __init__(self) -> None:
        super().__init__()

    def emit(self, category: str, event: str, **details: Any) -> None:
        return
