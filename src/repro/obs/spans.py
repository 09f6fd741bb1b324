"""Causal span tracing: per-request timelines over the placement protocol.

Spans are the one record of the protocol: they answer "what happened
*to this request*, and what dominated its latency".  Every remote call
is an ``rpc:<label>`` span carrying its ``src`` and ``dst``, so the
Fig. 3 sequence diagram (:mod:`repro.bench.sequence`) and the step-order
audit (:mod:`repro.audit.protocol`) read the same spans the exporters
write.  A :class:`SpanTracer` produces a tree of :class:`Span`\\ s per
trace — one trace per placement request (rooted by
:meth:`~repro.scheduler.base.Scheduler.run`) or per migration — with
every protocol step a named child span.  Sibling subtrees make master
retries and variant-schedule fallbacks directly visible.

Design points:

* **virtual-clock timestamps** — start/end come from the simulator's
  clock, so span durations are exactly the latencies the experiments
  measure;
* **deterministic IDs** — trace and span IDs are drawn from sequence
  counters, never wall clocks or :mod:`uuid`, so two identical seeded
  runs export byte-identical traces (pinned by
  ``tests/test_determinism.py``);
* **explicit context propagation** — a :class:`TraceContext` names the
  current (trace, span); it rides outgoing messages
  (:class:`~repro.net.transport.Call` carries one) so callee-side spans
  parent correctly even when the transport defers execution, mirroring
  W3C trace-context propagation;
* **single-threaded stack** — protocol code runs on one Python stack
  (see ``docs/architecture.md``), so the active context is a simple
  stack, not thread-local storage;
* **quiet by default** — :meth:`SpanTracer.span_if_active` records only
  when a trace is already open.  Background activity (periodic host
  reassessment, daemon sweeps) therefore produces no traces; only the
  explicit roots (placement, migration) do;
* **a span is a row** — every span is a row of one column store from
  the moment it starts (about 60 bytes a closed span instead of the
  420 of an object with its own dict), and a :class:`Span` is a view
  of its row: the exports read the columns, and writes land in them.

Analysis and export (trees, critical paths, Chrome trace-event JSON)
live in :mod:`repro.obs.trace_export`.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

__all__ = [
    "TraceContext",
    "Span",
    "SpanTracer",
    "NullSpanTracer",
    "NULL_SPANS",
]

#: every status a span can carry; a row stores its index
_STATUSES = ("unset", "ok", "error")
_STATUS_CODE = {status: code for code, status in enumerate(_STATUSES)}
_NAN = float("nan")
#: attribute value types whose equal values print alike
_SHAREABLE = frozenset((str, int, bool, type(None)))


def _code(status: str) -> int:
    code = _STATUS_CODE.get(status)
    if code is None:
        raise ValueError(f"span status must be one of {_STATUSES}, "
                         f"not {status!r}")
    return code


@dataclass(frozen=True)
class TraceContext:
    """The (trace, span) coordinates new child spans attach under.

    This is the propagation token: the co-allocator stamps it onto each
    outgoing :class:`~repro.net.transport.Call` so the host-side
    reservation span parents under the caller's reserve span.
    """

    trace_id: str
    span_id: str


class Span:
    """One timed, attributed node in a trace tree: a view of its row in
    the tracer's store.

    Reads decode the row.  ``set_attribute``, ``set_status`` and
    assigning ``start`` / ``end`` write it, whether or not its trace is
    still open; its identity (IDs, ``seq``, ``name``) cannot be
    assigned.  Until the span ends, ``attributes`` is its live dict;
    from then on it is a read-only copy.
    """

    __slots__ = ("_rows", "_row")

    def __init__(self, rows: _Rows, row: int):
        self._rows = rows
        self._row = row

    @property
    def seq(self) -> int:
        """Global creation sequence number — the deterministic export
        order."""
        return self._rows.first + self._row

    @property
    def span_id(self) -> str:
        return "s%06d" % (self._rows.first + self._row)

    @property
    def trace_id(self) -> str:
        return self._rows.traces[self._row]

    @property
    def name(self) -> str:
        return self._rows.names[self._row]

    @property
    def parent_id(self) -> Optional[str]:
        parent = self._rows.parents[self._row]
        if parent > 0:
            return "s%06d" % parent
        return self._rows.foreign[self._row] if parent else None

    @property
    def start(self) -> float:
        return self._rows.times[2 * self._row]

    @start.setter
    def start(self, value: float) -> None:
        self._rows.times[2 * self._row] = value

    @property
    def end(self) -> Optional[float]:
        end = self._rows.times[2 * self._row + 1]
        return None if end != end else end

    @end.setter
    def end(self, value: Optional[float]) -> None:
        self._rows.times[2 * self._row + 1] = (_NAN if value is None
                                               else value)

    @property
    def status(self) -> str:
        """``ok``, ``error``, or ``unset`` while still open."""
        return _STATUSES[self._rows.statuses[self._row]]

    @property
    def attributes(self) -> Dict[str, Any]:
        row = self._rows.attributes[self._row]
        if type(row) is dict:
            return row
        n = len(row) // 3
        return _FrozenAttributes(zip(row[:n], row[n:2 * n]))

    @property
    def duration(self) -> float:
        """Virtual seconds from start to end (0.0 while still open)."""
        times, row = self._rows.times, 2 * self._row
        end = times[row + 1]
        return 0.0 if end != end else end - times[row]

    @property
    def context(self) -> TraceContext:
        rows, row = self._rows, self._row
        return TraceContext(rows.traces[row], "s%06d" % (rows.first + row))

    def set_attribute(self, key: str, value: Any) -> None:
        rows, row = self._rows.attributes, self._row
        if type(rows[row]) is dict:
            rows[row][key] = value
            return
        attributes = {**self.attributes, key: value}
        values = attributes.values()
        rows[row] = (*attributes, *values, *map(type, values))

    def set_status(self, status: str) -> None:
        self._rows.statuses[self._row] = _code(status)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Span {self.name!r} {self.trace_id}/{self.span_id} "
                f"parent={self.parent_id} status={self.status}>")


class _FrozenAttributes(dict):
    """An ended span's attributes, copied out of its row."""

    __slots__ = ()

    def _read_only(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("an ended span's attributes are read-only; "
                        "set_attribute writes its row")

    __setitem__ = __delitem__ = __ior__ = _read_only
    setdefault = update = pop = popitem = clear = _read_only


def _seq_of(span_id: str) -> int:
    """``"s000042"`` -> 42, or -1 for an ID this tracer did not format
    (a carried foreign context's)."""
    try:
        seq = int(span_id[1:])
    except (TypeError, ValueError):
        return -1
    return seq if seq > 0 and "s%06d" % seq == span_id else -1


class _Rows(Sequence):
    """:attr:`SpanTracer.spans`: every span in creation order, as columns.

    Row ``i`` is the span whose seq is ``first + i``, and its
    ``span_id`` is formatted from that.  Read only: ``rows[i]`` is a
    :class:`Span` view built on read.  A closed row costs about 60
    bytes: a campaign repeats a few hundred distinct attribute sets,
    and each is stored once.
    """

    __slots__ = ("first", "names", "traces", "times", "parents", "statuses",
                 "attributes", "foreign", "_pool")

    def __init__(self, first: int) -> None:
        self.first = first
        self.names: List[str] = []
        self.traces: List[str] = []
        #: start and end of each row; an open end is NaN
        self.times = array("d")
        #: the parent's seq; 0 for a root, -1 for a parent in ``foreign``
        self.parents = array("q")
        #: index into ``_STATUSES``
        self.statuses = bytearray()
        #: an open span's attribute dict; from its end, see :meth:`close`
        self.attributes: List[Any] = []
        #: row -> a carried parent ID this tracer did not format
        self.foreign: Dict[int, str] = {}
        self._pool: Dict[tuple, tuple] = {}

    def add(self, name: str, trace_id: str, parent: int, start: float,
            end: float, code: int, attributes: Dict[str, Any]) -> Span:
        """Append a row and return its view."""
        row = len(self.names)
        self.names.append(name)
        self.traces.append(trace_id)
        self.times.append(start)
        self.times.append(end)
        self.parents.append(parent)
        self.statuses.append(code)
        self.attributes.append(attributes)
        return Span(self, row)

    def close(self, row: int) -> None:
        """Keep an ended row's attribute dict as one tuple: the keys, the
        values, then the values' types.  Equal tuples are stored once,
        if their values are of a type whose equal values print alike
        (0.0 == -0.0 are not)."""
        attributes = self.attributes[row]
        if type(attributes) is not dict:
            return
        shared = ()
        if attributes:
            values = attributes.values()
            flat = (*attributes, *values, *map(type, values))
            try:
                shared = self._pool.get(flat)
            except TypeError:  # an unhashable value
                shared = flat
            if shared is None:
                shared = flat
                if _SHAREABLE.issuperset(flat[len(flat) // 3 * 2:]):
                    self._pool[flat] = flat
        self.attributes[row] = shared

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self.names)
        if not 0 <= index < len(self.names):
            raise IndexError("span index out of range")
        return Span(self, index)

    def __iter__(self) -> Iterator[Span]:
        for row in range(len(self.names)):
            yield Span(self, row)


def _topmost(stack: list, other: Union[Span, TraceContext]) -> int:
    """Index of the innermost stack entry with ``other``'s IDs, or -1."""
    span_id, trace_id = other.span_id, other.trace_id
    for i in range(len(stack) - 1, -1, -1):
        entry = stack[i]
        if entry.span_id == span_id and entry.trace_id == trace_id:
            return i
    return -1


class _NullScope:
    """The shared inert ``with`` target of every no-op path."""

    __slots__ = ()

    def __enter__(self) -> "Span":
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


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
        span = self._span
        if exc_type is None:
            self._tracer.end_span(span)
        else:
            if "error" not in span.attributes:
                span.set_attribute("error", f"{exc_type.__name__}: {exc}")
            self._tracer.end_span(span, status="error")


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

    :attr:`spans` holds every span in creation order (the deterministic
    document order every exporter uses).  The active context is a
    stack; :meth:`activate` pushes a foreign :class:`TraceContext` so
    work triggered by a carried message parents under its sender.

    :meth:`start_span` and :meth:`record_span` append the span's row to
    :attr:`spans` and hand out a :class:`Span` view of it; every later
    write to the span lands in that row.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        self.spans = _Rows(1)
        #: innermost last: an open :class:`Span`, or a carried
        #: :class:`TraceContext` pushed by :meth:`activate`
        self._stack: List[Union[Span, TraceContext]] = []
        self._trace_seq = 0

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
            parent_seq = 0
        elif type(parent) is TraceContext:
            trace_id = parent.trace_id
            parent_seq = _seq_of(parent.span_id)
        else:  # an open span: read its row, not its view
            trace_id = parent._rows.traces[parent._row]
            parent_seq = parent._rows.first + parent._row
        rows = self.spans
        if parent_seq < 0:
            rows.foreign[len(rows)] = parent.span_id
        span = rows.add(name, trace_id, parent_seq, self._clock(), _NAN, 0,
                        attributes)
        stack.append(span)
        return span

    def end_span(self, span: Span, status: Optional[str] = None) -> None:
        """Close a span and pop it (and anything left above it) off the
        context stack."""
        rows, row = span._rows, span._row
        if status is not None:
            rows.statuses[row] = _code(status)
        elif not rows.statuses[row]:
            rows.statuses[row] = _STATUS_CODE["ok"]
        rows.times[2 * row + 1] = self._clock()
        rows.close(row)
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:
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
        code = _code(status)
        self._trace_seq += 1
        rows = self.spans
        span = rows.add(name, "t%06d" % self._trace_seq, 0, start, end, code,
                        attributes)
        rows.close(span._row)
        return span

    # -- introspection --------------------------------------------------------
    def trace_roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def find(self, name: str) -> List[Span]:
        """All spans with the given name, in creation order."""
        return [s for s in self.spans if s.name == name]

    def clear(self) -> None:
        # a fresh store that counts on: views of the old rows stay readable
        rows = self.spans
        self.spans = _Rows(rows.first + len(rows))
        self._stack.clear()

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<SpanTracer spans={len(self.spans)} "
                f"traces={self._trace_seq} depth={len(self._stack)}>")


#: shared inert span handed out by null/no-op paths; mutating it is a
#: silent no-op by construction (one shared instance, never exported)
class _NullSpan(Span):
    __slots__ = ()
    span_id = ""
    context = TraceContext("", "")

    def __init__(self) -> None:
        rows = _Rows(0)
        rows.add("null", "", 0, 0.0, _NAN, 0, {})
        super().__init__(rows, 0)

    def set_attribute(self, key: str, value: Any) -> None:
        return

    def set_status(self, status: str) -> None:
        return


_NULL_SPAN = _NullSpan()
_NULL_SCOPE = _NullScope()


class NullSpanTracer(SpanTracer):
    """Records nothing — the span analogue of ``NullMetricsRegistry``
    for hot soak/benchmark loops (``Metasystem(tracing="off")``)."""

    def __init__(self) -> None:
        super().__init__()

    @property
    def enabled(self) -> bool:
        return False

    def start_span(self, name: str,
                   parent: Optional[TraceContext] = None,
                   **attributes: Any) -> Span:
        return _NULL_SPAN

    def end_span(self, span: Span, status: Optional[str] = None) -> None:
        return

    def record_span(self, name: str, start: float, end: float,
                    status: str = "ok", **attributes: Any) -> Span:
        return _NULL_SPAN

    def span(self, name: str, **attributes: Any):
        return _NULL_SCOPE

    def span_if_active(self, name: str, **attributes: Any):
        return _NULL_SCOPE

    def activate(self, context: Optional[TraceContext]):
        return _NULL_SCOPE


#: shared do-nothing span tracer
NULL_SPANS = NullSpanTracer()
