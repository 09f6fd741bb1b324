"""The span store as it was before closed traces became rows: every
span a slotted :class:`Span` object in one list.

Kept verbatim as the slow, obviously correct model that
``tests/test_span_store.py`` drives side by side with
:class:`repro.obs.spans.SpanTracer`: both must export the same bytes
after every step.  Only the idle-scope singleton and
:class:`TraceContext` come from the product.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

from repro.obs.spans import _NULL_SCOPE, TraceContext


class Span:
    """One timed, attributed node in a trace tree.

    Slotted: a campaign retains one of these per protocol step.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "end",
                 "attributes", "status", "seq")

    def __init__(self, trace_id: str, span_id: str,
                 parent_id: Optional[str], name: str, start: float,
                 end: Optional[float] = None,
                 attributes: Optional[Dict[str, Any]] = None,
                 status: str = "unset", seq: int = 0):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.attributes = {} if attributes is None else attributes
        #: "ok" | "error" | "unset" (still open)
        self.status = status
        #: global creation sequence number — the deterministic export order
        self.seq = seq

    @property
    def duration(self) -> float:
        """Virtual seconds from start to end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_status(self, status: str) -> None:
        self.status = status

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Span {self.name!r} {self.trace_id}/{self.span_id} "
                f"parent={self.parent_id} status={self.status}>")


def _topmost(stack: list, other: Union[Span, TraceContext]) -> int:
    """Index of the innermost stack entry with ``other``'s IDs, or -1."""
    span_id, trace_id = other.span_id, other.trace_id
    for i in range(len(stack) - 1, -1, -1):
        entry = stack[i]
        if entry.span_id == span_id and entry.trace_id == trace_id:
            return i
    return -1


class _SpanScope:
    """``with tracer.span(...)``: start on enter, end on exit."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(self, tracer: "SpanTracer", name: str,
                 attributes: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Span:
        self._span = span = self._tracer.start_span(
            self._name, **self._attributes)
        return span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._tracer.end_span(self._span)
        else:
            self._span.attributes.setdefault(
                "error", f"{exc_type.__name__}: {exc}")
            self._tracer.end_span(self._span, status="error")


class _Activation:
    """``with tracer.activate(ctx)``: push on enter, remove on exit."""

    __slots__ = ("_stack", "_context")

    def __init__(self, stack: list, context: TraceContext):
        self._stack = stack
        self._context = context

    def __enter__(self) -> None:
        self._stack.append(self._context)

    def __exit__(self, exc_type, exc, tb) -> None:
        stack, context = self._stack, self._context
        if stack and stack[-1] is context:
            stack.pop()
            return
        i = _topmost(stack, context)
        if i >= 0:
            del stack[i]


class SpanTracer:
    """Produces trees of :class:`Span`\\ s with deterministic IDs.

    Spans are appended to :attr:`spans` in creation order (the
    deterministic document order every exporter uses).  The active
    context is a stack; :meth:`activate` pushes a foreign
    :class:`TraceContext` so work triggered by a carried message
    parents under its sender.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        self.spans: List[Span] = []
        #: innermost last: an open :class:`Span`, or a carried
        #: :class:`TraceContext` pushed by :meth:`activate`
        self._stack: List[Union[Span, TraceContext]] = []
        self._trace_seq = 0
        self._span_seq = 0

    @property
    def enabled(self) -> bool:
        return True

    # -- context ------------------------------------------------------------
    def current_context(self) -> Optional[TraceContext]:
        """The context children created right now would attach under."""
        if not self._stack:
            return None
        top = self._stack[-1]
        return top if type(top) is TraceContext else top.context

    @property
    def current_trace_id(self) -> Optional[str]:
        """The open trace's ID, or None — the metrics exemplar hook."""
        return self._stack[-1].trace_id if self._stack else None

    def activate(self, context: Optional[TraceContext]):
        """Context manager: parent subsequent spans under a carried
        context.

        With ``context=None`` this is a no-op, so call sites can pass an
        optional carried context straight through.
        """
        if context is None:
            return _NULL_SCOPE
        return _Activation(self._stack, context)

    # -- span lifecycle -------------------------------------------------------
    def start_span(self, name: str,
                   parent: Optional[TraceContext] = None,
                   **attributes: Any) -> Span:
        """Open a span (child of ``parent``/the current context, or a new
        trace root) and make it the current context."""
        stack = self._stack
        if parent is None and stack:
            parent = stack[-1]
        if parent is None:
            self._trace_seq += 1
            trace_id = "t%06d" % self._trace_seq
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        self._span_seq = seq = self._span_seq + 1
        span = Span(trace_id, "s%06d" % seq, parent_id, name, self._clock(),
                    None, attributes, "unset", seq)
        self.spans.append(span)
        stack.append(span)
        return span

    def end_span(self, span: Span, status: Optional[str] = None) -> None:
        """Close a span and pop it (and anything left above it) off the
        context stack."""
        span.end = self._clock()
        if status is not None:
            span.status = status
        elif span.status == "unset":
            span.status = "ok"
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
            return
        i = _topmost(stack, span)
        if i >= 0:
            del stack[i:]

    def span(self, name: str, **attributes: Any) -> "_SpanScope":
        """Context manager: a child of the current context, or — with no
        context open — the root of a new trace.  An escaping exception
        marks the span (and its open ancestors' statuses stay theirs)
        as ``error`` with the exception recorded."""
        return _SpanScope(self, name, attributes)

    def span_if_active(self, name: str, **attributes: Any):
        """Like :meth:`span`, but records nothing unless a trace is open.

        Every instrumented subsystem below the trace roots uses this, so
        untraced activity (unit tests poking a Host directly, periodic
        reassessment) does not spawn junk traces.
        """
        if not self._stack:
            return _NULL_SCOPE
        return _SpanScope(self, name, attributes)

    def record_span(self, name: str, start: float, end: float,
                    status: str = "ok", **attributes: Any) -> Span:
        """Record a completed, detached root span over ``[start, end]``.

        Unlike :meth:`start_span` this never touches the context stack, so
        daemons (e.g. the chaos injector annotating a fault window from a
        scheduled callback) can emit spans without re-parenting whatever
        request trace happens to be open.
        """
        self._trace_seq += 1
        self._span_seq += 1
        span = Span("t%06d" % self._trace_seq, "s%06d" % self._span_seq,
                    None, name, float(start), float(end), attributes,
                    status, self._span_seq)
        self.spans.append(span)
        return span

    # -- introspection --------------------------------------------------------
    def traces(self) -> Dict[str, List[Span]]:
        """Spans grouped by trace, both in first-seen order."""
        out: Dict[str, List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.trace_id, []).append(span)
        return out

    def trace_roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def find(self, name: str) -> List[Span]:
        """All spans with the given name, in creation order."""
        return [s for s in self.spans if s.name == name]

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<SpanTracer spans={len(self.spans)} "
                f"traces={self._trace_seq} depth={len(self._stack)}>")
