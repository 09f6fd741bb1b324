"""The span store: every span a row of columns from its start, against
the list of objects it replaced (``tests/reference/span_store.py``).

The state machine drives both tracers with the same calls and asserts,
after every step, that they export the same JSONL and Chrome bytes.
The unit tests below it pin what a handed-out span does before and
after its trace has closed, and which statuses a span accepts."""

import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from reference.span_store import SpanTracer as ReferenceTracer
from repro.obs import (SpanTracer, TraceContext, chrome_trace_json,
                       spans_to_jsonl)


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self):
        return self.now


NAMES = st.sampled_from(["placement", "rpc:make_reservation", "host.start"])
KEYS = st.sampled_from(["ok", "error"])
#: values that compare equal across types (1 / True / 1.0, 0.0 / -0.0)
#: but export differently, and an unhashable one
VALUES = st.one_of(
    st.sampled_from([True, 1, 1.0, False, 0, 0.0, -0.0, "a", None]),
    st.lists(st.integers(0, 1), max_size=1))
ATTRIBUTES = st.dictionaries(KEYS, VALUES, max_size=2)
#: virtual times: a row stores floats, so an int time exports as a float
#: (pinned by ``test_an_int_clock_exports_float_times``)
TIMES = st.sampled_from([0.0, 1.0, 2.5])
STATUSES = st.sampled_from(["unset", "ok", "error"])
#: carried contexts this tracer did not make, and one that collides
#: with an ID it does make
FOREIGN = st.builds(TraceContext, st.sampled_from(["t9", "t000001"]),
                    st.sampled_from(["s9", "s000001"]))


class RowsAgainstObjects(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = Clock()
        self.ref = ReferenceTracer(self.clock)
        self.new = SpanTracer(self.clock)
        #: (reference span, span) for every span either tracer made
        self.spans = []
        #: entered activations not yet exited
        self.activations = []

    def both(self, method, *args, **kwargs):
        return (getattr(self.ref, method)(*args, **kwargs),
                getattr(self.new, method)(*args, **kwargs))

    def context(self, data, foreign):
        if self.spans and not foreign:
            ref, _ = self.spans[data.draw(
                st.integers(0, len(self.spans) - 1))]
            return ref.context
        return data.draw(FOREIGN)

    def pick(self, data):
        return self.spans[data.draw(st.integers(0, len(self.spans) - 1))]

    @rule(now=TIMES)
    def tick(self, now):
        self.clock.now = now

    @rule(name=NAMES, attributes=ATTRIBUTES)
    def start(self, name, attributes):
        self.spans.append(self.both("start_span", name, **attributes))

    @rule(name=NAMES, data=st.data(), foreign=st.booleans())
    def start_under(self, name, data, foreign):
        parent = self.context(data, foreign)
        self.spans.append(self.both("start_span", name, parent=parent))

    @precondition(lambda self: self.spans)
    @rule(data=st.data(), status=st.one_of(st.none(), STATUSES))
    def end(self, data, status):
        """Any span, in any order: nested, out of order, twice, or one
        left open whose trace already closed."""
        ref, new = self.pick(data)
        self.ref.end_span(ref, status)
        self.new.end_span(new, status)

    @rule(data=st.data(), foreign=st.booleans())
    def activate(self, data, foreign):
        context = self.context(data, foreign)
        pair = (self.ref.activate(context), self.new.activate(context))
        for activation in pair:
            activation.__enter__()
        self.activations.append(pair)

    @precondition(lambda self: self.activations)
    @rule(data=st.data())
    def deactivate(self, data):
        pair = self.activations.pop(
            data.draw(st.integers(0, len(self.activations) - 1)))
        for activation in pair:
            activation.__exit__(None, None, None)

    @rule(name=NAMES, start=TIMES, end=TIMES, status=STATUSES,
          attributes=ATTRIBUTES)
    def record(self, name, start, end, status, attributes):
        self.spans.append(self.both("record_span", name, start, end,
                                    status, **attributes))

    @rule(name=NAMES, preset=st.booleans())
    def scope_raises(self, name, preset):
        for tracer in (self.ref, self.new):
            with pytest.raises(KeyError):
                with tracer.span(name) as span:
                    if preset:
                        span.set_attribute("error", "set by the call site")
                    raise KeyError(name)

    @precondition(lambda self: self.spans)
    @rule(data=st.data(), key=KEYS, value=VALUES)
    def set_attribute(self, data, key, value):
        for span in self.pick(data):
            span.set_attribute(key, value)

    @precondition(lambda self: self.spans)
    @rule(data=st.data(), status=STATUSES)
    def set_status(self, data, status):
        for span in self.pick(data):
            span.set_status(status)

    @precondition(lambda self: self.spans)
    @rule(data=st.data(), start=TIMES, end=TIMES)
    def stretch(self, data, start, end):
        """The transport's shape: widen a closed rpc span to its round
        trip, while (or after) its root is open."""
        for span in self.pick(data):
            span.start, span.end = start, end

    @precondition(lambda self: len(self.spans) > 8)
    @rule()
    def clear(self):
        self.both("clear")

    @invariant()
    def same_exports(self):
        ref, new = self.ref.spans, self.new.spans
        assert len(new) == len(ref)
        assert spans_to_jsonl(new) == spans_to_jsonl(ref)
        assert chrome_trace_json(new) == chrome_trace_json(ref)
        assert spans_to_jsonl(new[::-1]) == spans_to_jsonl(ref[::-1])
        assert self.new.current_context() == self.ref.current_context()


RowsAgainstObjects.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None)
TestRowsAgainstObjects = RowsAgainstObjects.TestCase


# ---------------------------------------------------------------------------
# a span handed out before its trace closed
# ---------------------------------------------------------------------------
@pytest.fixture
def closed():
    """A tracer with one closed trace, and its root and child."""
    clock = Clock()
    tracer = SpanTracer(clock)
    with tracer.span("root", kind="test") as root:
        with tracer.span("child") as child:
            clock.now = 2.0
    return tracer, root, child


def exported(tracer):
    return [json.loads(line) for line in
            spans_to_jsonl(tracer.spans).splitlines()]


class TestFoldedSpans:
    def test_a_span_is_a_row_from_its_start(self):
        clock = Clock()
        tracer = SpanTracer(clock)
        root = tracer.start_span("root", kind="test")
        child = tracer.start_span("child")
        # both rows exist while the trace is open, and every view of a
        # row reads and writes one record
        assert [s.span_id for s in tracer.spans] == ["s000001", "s000002"]
        assert exported(tracer)[1]["end"] is None
        tracer.spans[1].set_attribute("open", True)
        assert child.attributes == {"open": True}
        clock.now = 2.0
        tracer.end_span(child)
        tracer.end_span(root)
        assert (root.span_id, child.parent_id) == ("s000001", "s000001")
        assert root.attributes == {"kind": "test"}
        assert (child.start, child.end, child.status) == (0.0, 2.0, "ok")

    def test_writes_after_the_fold_land_in_the_row(self, closed):
        tracer, root, child = closed
        root.set_attribute("late", 1)
        child.set_status("error")
        child.start, child.end = 0.5, 3.0
        root_row, child_row = exported(tracer)
        assert root_row["attributes"] == {"kind": "test", "late": 1}
        assert (child_row["start"], child_row["end"],
                child_row["status"]) == (0.5, 3.0, "error")
        # every view of a row sees one record
        assert tracer.spans[0].attributes == root.attributes

    def test_writes_that_cannot_land_raise(self, closed):
        _, root, _ = closed
        with pytest.raises(TypeError):
            root.attributes["k"] = "v"
        with pytest.raises(AttributeError):
            root.span_id = "s000042"
        with pytest.raises(AttributeError):
            root.name = "renamed"
        with pytest.raises(ValueError):
            root.set_status("done")

    def test_a_span_left_open_can_still_be_ended(self):
        clock = Clock()
        tracer = SpanTracer(clock)
        root = tracer.start_span("root")
        leaked = tracer.start_span("leaked")
        tracer.end_span(root)  # pops the leak too, which stays open
        assert exported(tracer)[1]["end"] is None
        clock.now = 4.0
        tracer.end_span(leaked)
        assert (exported(tracer)[1]["end"],
                exported(tracer)[1]["status"]) == (4.0, "ok")

    def test_ids_count_on_across_clear_and_old_views_stay_readable(
            self, closed):
        tracer, root, _ = closed
        tracer.clear()
        assert len(tracer.spans) == 0
        assert (root.name, root.span_id) == ("root", "s000001")
        with tracer.span("next") as nxt:
            pass
        assert (nxt.trace_id, nxt.span_id) == ("t000002", "s000003")
        assert [s.span_id for s in tracer.spans] == ["s000003"]


def test_an_int_clock_exports_float_times():
    """A clock advanced by ``run_until(240)`` reads an int; the row keeps
    it as a float, so it exports as ``240.0``."""
    clock = Clock()
    tracer = SpanTracer(clock)
    clock.now = 240
    with tracer.span("root"):
        clock.now = 241
    tracer.record_span("chaos:host_down", 1, 2)
    assert [(row["start"], row["end"]) for row in exported(tracer)] == [
        (240.0, 241.0), (1.0, 2.0)]
    assert all(type(row[key]) is float for row in exported(tracer)
               for key in ("start", "end"))


def test_equal_values_of_other_types_export_as_written():
    """1, True and 1.0 (and 0, 0.0, -0.0) are equal and hash alike; rows
    share a value tuple only when its types match too."""
    exports = []
    for tracer in (ReferenceTracer(), SpanTracer()):
        for value in (True, 1, 1.0, False, 0, 0.0, -0.0):
            tracer.record_span("x", 0.0, 1.0, ok=value)
        exports.append(spans_to_jsonl(tracer.spans))
    assert exports[0] == exports[1]


class TestSpanStatuses:
    """Only ``unset``, ``ok`` and ``error`` reach an export."""

    def test_record_span_rejects_other_statuses(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            tracer.record_span("x", 0, 1, status="bogus")
        assert len(tracer.spans) == 0

    def test_end_span_rejects_other_statuses(self):
        tracer = SpanTracer()
        span = tracer.start_span("x")
        with pytest.raises(ValueError):
            tracer.end_span(span, status="done")

    def test_set_status_rejects_other_statuses(self):
        tracer = SpanTracer()
        with tracer.span("x") as span:
            with pytest.raises(ValueError):
                span.set_status("oops")
            span.set_status("error")
        assert tracer.spans[0].status == "error"
