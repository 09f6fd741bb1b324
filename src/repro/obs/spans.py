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
* **closed traces are rows** — only the trace in flight is made of
  mutable :class:`Span` objects.  Once no trace is open, its spans are
  folded into compact columns (about 60 bytes a span instead of about
  420); :attr:`SpanTracer.spans` builds :class:`Span` views of them on
  read, and the exports do not change by a byte.

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
#: the fields a row keeps verbatim when its columns cannot hold them
_EXACT = ("start", "end", "parent_id", "status")
#: attribute value types whose equal values print alike
_SHAREABLE = frozenset((str, int, bool, type(None)))


def _checked(status: str) -> str:
    if status not in _STATUS_CODE:
        raise ValueError(f"span status must be one of {_STATUSES}, "
                         f"not {status!r}")
    return status


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
    """One timed, attributed node in a trace tree.

    A span of the trace in flight is this mutable object.  Once its
    trace closes, the tracer keeps it as a row of compact columns and
    the object becomes a view of that row: reads decode the row, writes
    (``set_attribute``, ``set_status``, assigning ``start`` / ``end``)
    land in it, and any other write raises — its ``attributes`` are a
    read-only copy.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "end",
                 "attributes", "status", "seq", "_rows", "_row")

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
        self.status = _checked(status)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Span {self.name!r} {self.trace_id}/{self.span_id} "
                f"parent={self.parent_id} status={self.status}>")


class _FrozenAttributes(dict):
    """A folded span's attributes, copied out of its row."""

    __slots__ = ()

    def _read_only(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("a folded span's attributes are read-only; "
                        "set_attribute writes its row")

    __setitem__ = __delitem__ = __ior__ = _read_only
    setdefault = update = pop = popitem = clear = _read_only


def _seq_of(span_id: Any) -> int:
    """``"s000042"`` -> 42, or -1 for an ID this tracer did not format
    (a carried foreign context's), which its row keeps verbatim."""
    try:
        seq = int(span_id[1:])
    except (TypeError, ValueError):
        return -1
    return seq if seq > 0 and "s%06d" % seq == span_id else -1


class _Rows:
    """The spans of closed traces as columns: row ``i`` is the span whose
    seq is ``first + i``, and its ``span_id`` is formatted from that.

    A row costs about 60 bytes where a :class:`Span` with its dict, ID
    string and floats costs about 420: a campaign repeats a few hundred
    distinct attribute sets, and each is stored once.
    """

    __slots__ = ("first", "names", "traces", "times", "parents", "statuses",
                 "attributes", "odd", "_pool")

    def __init__(self) -> None:
        self.first = 0
        self.names: List[str] = []
        self.traces: List[str] = []
        #: start and end of each row
        self.times = array("d")
        #: the parent's seq; 0 for a root
        self.parents = array("q")
        #: index into ``_STATUSES``
        self.statuses = bytearray()
        #: see :meth:`fold`
        self.attributes: List[tuple] = []
        #: row -> its exact start, end, parent_id and status, for a row
        #: the columns cannot hold exactly (an end of None: a span left
        #: open; a time that is not a float; a foreign parent ID; a
        #: status outside ``_STATUSES``) or one written after the fold
        self.odd: Dict[int, Dict[str, Any]] = {}
        self._pool: Dict[tuple, tuple] = {}

    def fold(self, spans: List[Span]) -> None:
        """Append ``spans`` — consecutive seqs, following the last row —
        as rows, and turn each object into a view of its row.

        A row's attributes are one tuple: the keys, the values, then the
        values' types.  Equal tuples are stored once, if their values
        are of a type whose equal values print alike (0.0 == -0.0 are
        not)."""
        row = len(self.names)
        if not row:
            self.first = spans[0].seq
        times, parents, statuses = self.times, self.parents, self.statuses
        names, traces, attributes = self.names, self.traces, self.attributes
        pool = self._pool
        ids = {span.span_id: span.seq for span in spans}
        for span in spans:
            start, end = span.start, span.end
            parent_id, status = span.parent_id, span.status
            parent = 0 if parent_id is None else (ids.get(parent_id)
                                                 or _seq_of(parent_id))
            code = _STATUS_CODE.get(status, -1)
            if (type(start) is not float or type(end) is not float
                    or parent < 0 or code < 0):
                self.odd[row] = {"start": start, "end": end,
                                 "parent_id": parent_id, "status": status}
                start = end = _NAN
                parent = code = 0
            times.append(start)
            times.append(end)
            parents.append(parent)
            statuses.append(code)
            names.append(span.name)
            traces.append(span.trace_id)
            shared = ()
            if span.attributes:
                values = span.attributes.values()
                flat = (*span.attributes, *values, *map(type, values))
                try:
                    shared = pool.get(flat)
                except TypeError:  # an unhashable value
                    shared = flat
                if shared is None:
                    shared = flat
                    if _SHAREABLE.issuperset(flat[len(flat) // 3 * 2:]):
                        pool[flat] = flat
            attributes.append(shared)
            span._rows = self
            span._row = row
            span.__class__ = _FoldedSpan
            row += 1

    def exact(self, row: int, field: str) -> Any:
        """``start``, ``end``, ``parent_id`` or ``status`` of a row."""
        odd = self.odd.get(row)
        if odd is not None:
            return odd[field]
        if field == "start":
            return self.times[2 * row]
        if field == "end":
            return self.times[2 * row + 1]
        if field == "status":
            return _STATUSES[self.statuses[row]]
        parent = self.parents[row]
        return "s%06d" % parent if parent else None

    def set_exact(self, row: int, field: str, value: Any) -> None:
        """A write after the fold: the row keeps its exact fields aside
        from then on."""
        exact = self.odd.get(row)
        if exact is None:
            exact = self.odd[row] = {name: self.exact(row, name)
                                     for name in _EXACT}
        exact[field] = value

    def view(self, row: int) -> Span:
        span = object.__new__(_FoldedSpan)
        span._rows = self
        span._row = row
        return span

    def __len__(self) -> int:
        return len(self.names)


class _FoldedSpan(Span):
    """A span of a closed trace: a view of its row.  ``start``, ``end``
    and ``status`` can be assigned; its identity (IDs, ``seq``, name) and
    ``attributes`` cannot (:meth:`set_attribute` writes the row)."""

    __slots__ = ()

    @property
    def seq(self) -> int:
        return self._rows.first + self._row

    @property
    def span_id(self) -> str:
        return "s%06d" % (self._rows.first + self._row)

    @property
    def name(self) -> str:
        return self._rows.names[self._row]

    @property
    def trace_id(self) -> str:
        return self._rows.traces[self._row]

    @property
    def parent_id(self) -> Optional[str]:
        return self._rows.exact(self._row, "parent_id")

    @property
    def start(self) -> float:
        return self._rows.exact(self._row, "start")

    @start.setter
    def start(self, value: float) -> None:
        self._rows.set_exact(self._row, "start", value)

    @property
    def end(self) -> Optional[float]:
        return self._rows.exact(self._row, "end")

    @end.setter
    def end(self, value: Optional[float]) -> None:
        self._rows.set_exact(self._row, "end", value)

    @property
    def status(self) -> str:
        return self._rows.exact(self._row, "status")

    @status.setter
    def status(self, value: str) -> None:
        self._rows.set_exact(self._row, "status", value)

    @property
    def attributes(self) -> Dict[str, Any]:
        row = self._rows.attributes[self._row]
        n = len(row) // 3
        return _FrozenAttributes(zip(row[:n], row[n:2 * n]))

    def set_attribute(self, key: str, value: Any) -> None:
        attributes = {**self.attributes, key: value}
        values = attributes.values()
        self._rows.attributes[self._row] = (*attributes, *values,
                                            *map(type, values))


class _SpanLog(Sequence):
    """:attr:`SpanTracer.spans`: every span in creation order — the rows
    of closed traces, then the objects of the trace in flight.  Read
    only; a span read from a row is built on read."""

    __slots__ = ("rows", "pending")

    def __init__(self) -> None:
        self.rows = _Rows()
        self.pending: List[Span] = []

    def __len__(self) -> int:
        return len(self.rows) + len(self.pending)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        folded = len(self.rows)
        if index < 0:
            index += len(self)
        if index < 0:
            raise IndexError("span index out of range")
        if index < folded:
            return self.rows.view(index)
        return self.pending[index - folded]

    def __iter__(self) -> Iterator[Span]:
        rows = self.rows
        for row in range(len(rows)):
            yield rows.view(row)
        yield from list(self.pending)

    def fold(self) -> None:
        """Keep the pending spans as rows (their trace has closed)."""
        self.rows.fold(self.pending)
        self.pending.clear()

    def clear(self) -> None:
        # a fresh store: views of the old rows stay readable
        self.rows = _Rows()
        self.pending.clear()


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

    Whenever :meth:`end_span` or :meth:`record_span` leaves the stack
    empty, no trace is in flight, and the spans created since the last
    such moment are folded into rows (:class:`Span` says what that
    means for a span already handed out).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        self.spans = _SpanLog()
        self._pending = self.spans.pending
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
        self._pending.append(span)
        stack.append(span)
        return span

    def end_span(self, span: Span, status: Optional[str] = None) -> None:
        """Close a span and pop it (and anything left above it) off the
        context stack."""
        if status is not None:
            _checked(status)
        span.end = self._clock()
        if status is not None:
            span.status = status
        elif span.status == "unset":
            span.status = "ok"
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:
            i = _topmost(stack, span)
            if i >= 0:
                del stack[i:]
        if not stack and self._pending:
            self.spans.fold()

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
        _checked(status)
        self._trace_seq += 1
        self._span_seq += 1
        span = Span("t%06d" % self._trace_seq, "s%06d" % self._span_seq,
                    None, name, float(start), float(end), attributes,
                    status, self._span_seq)
        self._pending.append(span)
        if not self._stack:
            self.spans.fold()
        return span

    # -- introspection --------------------------------------------------------
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


#: shared inert span handed out by null/no-op paths; mutating it is a
#: silent no-op by construction (one shared instance, never exported)
class _NullSpan(Span):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(trace_id="", span_id="", parent_id=None,
                         name="null", start=0.0)

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
