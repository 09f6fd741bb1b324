"""Causal span tracing: SpanTracer, exports, and the Metasystem wiring.

The tentpole of the observability layer: per-request span trees over the
13-step placement protocol, with deterministic IDs, a critical-path
analysis, and Chrome trace-event export (docs/observability.md)."""

import hashlib
import json

import pytest

from repro import Implementation, MachineSpec, Metasystem, ObjectClassRequest
from repro.audit import check_spans, load_jsonl
from repro.obs import (
    NULL_SPANS,
    NullSpanTracer,
    SpanTracer,
    TraceContext,
    build_snapshot,
    chrome_trace,
    chrome_trace_json,
    critical_path,
    render_critical_path_report,
    render_report,
    render_step_table,
    render_tree,
    spans_to_jsonl,
    trace_summary,
    validate_chrome_trace,
)
from repro.obs.export import snapshot_to_json
from repro.obs.trace_export import children_of, dominant_step, self_time
from repro.workload import (
    TestbedSpec,
    build_testbed,
    implementations_for_all_platforms,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return SpanTracer(clock)


# ---------------------------------------------------------------------------
# SpanTracer unit behaviour
# ---------------------------------------------------------------------------
class TestSpanTracer:
    def test_ids_are_deterministic_sequence_counters(self, tracer):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [s.trace_id for s in tracer.spans] == [
            "t000001", "t000001", "t000002"]
        assert [s.span_id for s in tracer.spans] == [
            "s000001", "s000002", "s000003"]

    def test_nesting_and_timestamps(self, tracer, clock):
        with tracer.span("root", kind="test") as root:
            clock.now = 1.0
            with tracer.span("child") as child:
                clock.now = 3.0
            clock.now = 4.0
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id
        assert (root.start, root.end) == (0.0, 4.0)
        assert (child.start, child.end) == (1.0, 3.0)
        assert child.duration == 2.0
        assert root.status == "ok" and child.status == "ok"
        assert root.attributes == {"kind": "test"}
        assert tracer.current_context() is None  # stack fully unwound

    def test_exception_marks_span_error_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        inner, = tracer.find("inner")
        outer, = tracer.find("outer")
        assert inner.status == "error"
        assert inner.attributes["error"] == "ValueError: boom"
        assert outer.status == "error"
        assert tracer.current_context() is None

    def test_span_if_active_is_quiet_without_a_root(self, tracer):
        with tracer.span_if_active("orphan") as span:
            span.set_attribute("ignored", 1)
            span.set_status("error")
        assert len(tracer) == 0
        # ... but records normally inside an open trace
        with tracer.span("root"):
            with tracer.span_if_active("child"):
                pass
        assert [s.name for s in tracer.spans] == ["root", "child"]

    def test_activate_parents_under_carried_context(self, tracer):
        with tracer.span("sender") as sender:
            carried = sender.context
        assert tracer.current_context() is None
        with tracer.activate(carried):
            with tracer.span_if_active("receiver"):
                pass
        receiver, = tracer.find("receiver")
        assert receiver.parent_id == sender.span_id
        assert receiver.trace_id == sender.trace_id
        assert tracer.current_context() is None

    def test_activate_none_is_a_noop(self, tracer):
        with tracer.activate(None):
            assert tracer.current_context() is None

    def test_clear_resets_spans_and_context(self, tracer):
        with tracer.span("a"):
            pass
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.current_context() is None


class TestScopeObjects:
    """``span`` / ``span_if_active`` / ``activate`` hand back plain
    enter/exit objects; these pin what the ``with`` statement sees."""

    def test_escaping_exception_is_recorded_once_and_reraised(self, tracer):
        boom = KeyError("k")
        with pytest.raises(KeyError) as caught:
            with tracer.span("outer") as outer:
                outer.set_attribute("error", "set by the call site")
                with tracer.span("inner"):
                    raise boom
        assert caught.value is boom
        inner, = tracer.find("inner")
        assert inner.status == "error"
        assert inner.attributes["error"] == "KeyError: 'k'"
        # an explicit error attribute wins over the generic one
        assert outer.attributes["error"] == "set by the call site"
        assert outer.status == "error"

    def test_child_left_open_is_popped_with_its_parent(self, tracer, clock):
        root = tracer.start_span("root")
        leaked = tracer.start_span("leaked")
        clock.now = 5.0
        tracer.end_span(root)
        assert tracer.current_context() is None
        assert (root.end, root.status) == (5.0, "ok")
        assert (leaked.end, leaked.status) == (None, "unset")
        # the next span starts a fresh trace, not a child of the leak
        with tracer.span("next") as nxt:
            assert nxt.parent_id is None
        assert nxt.trace_id != root.trace_id

    def test_ending_a_span_twice_is_harmless(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                pass
            tracer.end_span(child)  # already ended and popped
            assert tracer.current_context() == root.context

    def test_activate_removes_only_its_own_entry(self, tracer):
        with tracer.span("root") as root:
            carried = tracer.current_context()
            assert carried == TraceContext(root.trace_id, root.span_id)
            # the transport's shape: re-activate the caller's own context
            with tracer.activate(carried):
                with tracer.span_if_active("rpc") as rpc:
                    assert tracer.current_context() == rpc.context
                assert tracer.current_context() is carried
            assert tracer.current_context() == root.context
            # a span leaked inside the block stays; only the pushed
            # entry goes
            with tracer.activate(TraceContext("t9", "s9")):
                leaked = tracer.start_span("leaked")
            assert tracer.current_context() == leaked.context
            assert leaked.parent_id == "s9"
        assert tracer.current_context() is None

    def test_idle_span_if_active_is_the_shared_null_scope(self, tracer):
        scope = tracer.span_if_active("orphan", k=1)
        assert scope is tracer.span_if_active("other")
        assert scope is tracer.activate(None)
        assert scope is NULL_SPANS.span("x")
        assert scope is NULL_SPANS.span_if_active("x")
        assert scope is NULL_SPANS.activate(TraceContext("t1", "s1"))
        with scope as span:
            span.set_attribute("k", 1)
        assert len(tracer) == 0 and span.attributes == {}
        with tracer.span("root"):
            assert tracer.span_if_active("child") is not scope


class TestNullSpanTracer:
    def test_records_nothing(self):
        null = NullSpanTracer()
        with null.span("root") as span:
            span.set_attribute("k", 1)
            span.set_status("error")
            with null.span_if_active("child"):
                pass
            with null.activate(TraceContext("t1", "s1")):
                pass
        assert len(null.spans) == 0
        assert not null.enabled
        assert null.current_trace_id is None

    def test_null_span_is_inert(self):
        with NULL_SPANS.span("x") as span:
            span.set_attribute("k", "v")
        assert span.attributes == {}
        assert span.end is None  # the transport's stretch guard relies
        # on a null span never looking "closed"


# ---------------------------------------------------------------------------
# Metasystem wiring: the tracing knob, exemplars
# ---------------------------------------------------------------------------
def _tiny_meta(**kwargs):
    m = Metasystem(seed=11, **kwargs)
    m.add_domain("d0")
    for i in range(2):
        m.add_unix_host(f"h{i}", "d0",
                        MachineSpec(arch="sparc", os_name="SunOS"),
                        slots=4)
    m.add_vault("d0")
    return m


class TestTracingKnob:
    def test_spans_mode_is_default_and_fully_wired(self):
        m = _tiny_meta()
        assert isinstance(m.spans, SpanTracer)
        assert not isinstance(m.spans, NullSpanTracer)
        assert m.transport.spans is m.spans
        assert m.collection.spans is m.spans
        assert all(h.spans is m.spans for h in m.hosts)
        assert all(v.spans is m.spans for v in m.vaults)

    def test_off_mode_disables_both(self):
        m = _tiny_meta(tracing="off")
        assert isinstance(m.spans, NullSpanTracer)

    def test_invalid_mode_rejected(self):
        for mode in ("verbose", "flat"):
            with pytest.raises(ValueError):
                Metasystem(seed=1, tracing=mode)

    def test_disabled_modes_still_place_objects(self):
        m = _tiny_meta(tracing="off")
        app = m.create_class(
            "A", [Implementation("sparc", "SunOS")], work_units=10.0)
        outcome = m.make_scheduler("random").run(
            [ObjectClassRequest(app, 1)])
        assert outcome.ok
        assert len(m.spans) == 0
        # and no exemplar links a histogram bucket to a trace
        step = next(metric for metric in build_snapshot(m.metrics)["metrics"]
                    if metric["name"] == "enactor_step_seconds")
        assert all(trace_id is None for series in step["series"]
                   for _b, _v, trace_id in series["exemplars"])


class TestExemplars:
    def test_histogram_exemplar_records_active_trace_id(self):
        m = _tiny_meta()
        app = m.create_class(
            "A", [Implementation("sparc", "SunOS")], work_units=10.0)
        outcome = m.make_scheduler("random").run(
            [ObjectClassRequest(app, 1)])
        assert outcome.ok
        snapshot = build_snapshot(m.metrics)
        step = next(metric for metric in snapshot["metrics"]
                    if metric["name"] == "enactor_step_seconds")
        exemplars = [e for series in step["series"]
                     for e in series["exemplars"]]
        assert exemplars  # negotiation ran under the placement trace
        assert all(trace_id == "t000001"
                   for _bound, _value, trace_id in exemplars)
        # and the human report surfaces the trace id
        assert "t000001" in render_report(snapshot)

    def test_no_trace_open_means_no_exemplar(self):
        m = _tiny_meta()
        m.metrics.observe("loose_seconds", 0.25)
        snapshot = build_snapshot(m.metrics)
        loose = next(metric for metric in snapshot["metrics"]
                     if metric["name"] == "loose_seconds")
        assert all(trace_id is None
                   for series in loose["series"]
                   for _b, _v, trace_id in series["exemplars"])


class TestPinnedTelemetry:
    #: sha256 of spans JSONL + "\n" + metrics JSON for the run below,
    #: the two kernel gauges taken out of the JSON and pinned beside it.
    #: Telemetry internals may be rewritten freely; IDs, order,
    #: attributes, exemplars and series may not drift.  Re-pin the digest
    #: only with a change that means to alter what is exported; the
    #: gauges move when the kernel does the same thing in fewer events
    #: (3,355 / 184 while every machine and host kept a private chain).
    #: Re-pinned when a placement's creates became one concurrent batch:
    #: the same 7,092 spans, with earlier timestamps and the creates in
    #: arrival order (gauges were 2,095 / 58).  Re-pinned when the flat
    #: tracer went: the same spans without their 1,320 duplicate
    #: ``events`` and without the ``tracer_records`` gauge.  Re-pinned
    #: when a variant switch released its replaced reservations in one
    #: exchange: 7,092 → 7,034 spans, 58 per-entry ``enactor.cancel``
    #: spans merged into their switch's one (same messages, same gauges).
    DIGEST = ("6b687abff7034eda2a7208e6a85494d0"
              "95fa6b5acc25598a3967f0f5d8583e58")
    KERNEL_GAUGES = {"sim_events_processed": 2098.0, "sim_queue_depth": 66.0}

    @pytest.fixture(scope="class")
    def pinned_run(self):
        meta = build_testbed(TestbedSpec(
            seed=7, n_domains=4, hosts_per_domain=16, host_slots=8,
            background_load_mean=0.3))
        app = meta.create_class(
            "bench-app", implementations_for_all_platforms(),
            work_units=5.0)
        scheduler = meta.make_scheduler("irs")
        request = [ObjectClassRequest(app, count=4)]
        for _ in range(300):
            scheduler.run(request, reservation_duration=30.0)
            meta.advance(0.5)
        return meta

    def test_300_placements_follow_fig3_step_order(self, pinned_run):
        exported = load_jsonl(spans_to_jsonl(pinned_run.spans.spans))
        assert len(exported) == 7034
        assert check_spans(exported) == []

    def test_300_placements_export_the_pinned_bytes(self, pinned_run):
        meta = pinned_run
        assert len(meta.spans) == 7034
        snapshot = meta.metrics.snapshot()
        kernel = {m["name"]: m["series"][0]["value"]
                  for m in snapshot["metrics"]
                  if m["name"] in self.KERNEL_GAUGES}
        snapshot["metrics"] = [m for m in snapshot["metrics"]
                               if m["name"] not in self.KERNEL_GAUGES]
        blob = (spans_to_jsonl(meta.spans.spans) + "\n"
                + snapshot_to_json(snapshot))
        assert hashlib.sha256(blob.encode()).hexdigest() == self.DIGEST
        assert kernel == self.KERNEL_GAUGES


# ---------------------------------------------------------------------------
# End-to-end placement trace shape
# ---------------------------------------------------------------------------
@pytest.fixture
def placed_meta():
    m = _tiny_meta()
    app = m.create_class(
        "A", [Implementation("sparc", "SunOS")], work_units=10.0)
    outcome = m.make_scheduler("random").run([ObjectClassRequest(app, 2)])
    assert outcome.ok
    return m


class TestPlacementTrace:
    def test_protocol_steps_appear_as_named_children(self, placed_meta):
        spans = placed_meta.spans
        root, = spans.trace_roots()
        assert root.name == "placement"
        assert root.status == "ok"
        assert root.attributes["ok"] is True
        names = {s.name for s in spans.spans}
        for expected in ("scheduler.compute", "collection.query",
                         "collection.serve", "enactor.negotiate",
                         "enactor.master", "enactor.reserve",
                         "host.reserve", "enactor.enact", "host.start"):
            assert expected in names, f"missing span {expected}"
        # every span belongs to the single placement trace
        assert {s.trace_id for s in spans.spans} == {root.trace_id}

    def test_parentage_follows_the_protocol(self, placed_meta):
        spans = placed_meta.spans
        by_id = {s.span_id: s for s in spans.spans}
        root, = spans.trace_roots()
        neg, = spans.find("enactor.negotiate")
        assert by_id[neg.parent_id].name == "placement"
        assert neg.attributes["step"] == "4-6"
        for grant in spans.find("host.reserve"):
            rpc = by_id[grant.parent_id]
            assert rpc.name.startswith("rpc:make_reservation")
            assert by_id[rpc.parent_id].name == "enactor.reserve"
        for start in spans.find("host.start"):
            assert by_id[start.parent_id].name == "rpc:create_instance"
        enact, = spans.find("enactor.enact")
        assert enact.attributes["step"] == "7-11"
        assert root.end is not None
        assert all(s.end is not None for s in spans.spans)

    def test_rpc_spans_of_a_label_share_one_name(self, placed_meta):
        rpc = [s.name for s in placed_meta.spans.spans
               if s.name.startswith("rpc:")]
        assert len(rpc) > len(set(rpc))
        assert len({id(name) for name in rpc}) == len(set(rpc))

    def test_summary_and_reports_render(self, placed_meta):
        spans = placed_meta.spans.spans
        summary, = trace_summary(spans)
        assert summary["root"] == "placement"
        assert summary["spans"] == len(spans)
        assert summary["dominant_step"]
        tree = render_tree(spans)
        assert "placement" in tree and "enactor.negotiate" in tree
        table = render_step_table(spans)
        assert "enactor.reserve" in table
        report = render_critical_path_report(spans)
        assert "dominant step overall" in report


# ---------------------------------------------------------------------------
# critical path on a synthetic tree
# ---------------------------------------------------------------------------
def _synthetic_trace():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    with tracer.span("root"):
        with tracer.span("fast"):
            clock.now = 1.0
        with tracer.span("slow"):
            clock.now = 2.0
            with tracer.span("leaf"):
                clock.now = 9.0
            clock.now = 10.0
    return tracer.spans


class TestCriticalPath:
    def test_descends_into_latest_ending_child(self):
        spans = _synthetic_trace()
        assert [s.name for s in critical_path(spans)] == [
            "root", "slow", "leaf"]

    def test_dominant_step_is_max_self_time_on_path(self):
        spans = _synthetic_trace()
        # leaf holds 7s of self time; slow only 1s; root 1s
        assert dominant_step(spans).name == "leaf"
        children = children_of(spans)
        leaf, = [s for s in spans if s.name == "leaf"]
        assert self_time(leaf, children) == 7.0

    def test_empty_input(self):
        assert critical_path([]) == []
        assert dominant_step([]) is None


# ---------------------------------------------------------------------------
# Chrome trace-event and JSONL exports
# ---------------------------------------------------------------------------
class TestChromeExport:
    def test_export_is_valid_and_loadable(self, placed_meta):
        text = chrome_trace_json(placed_meta.spans.spans, indent=2)
        obj = json.loads(text)
        assert validate_chrome_trace(obj) == []
        assert obj["displayTimeUnit"] == "ms"
        events = obj["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(placed_meta.spans.spans)
        meta_events = [e for e in events if e["ph"] == "M"]
        assert meta_events[0]["args"]["name"] == "placement t000001"
        # spans are the whole record: nothing but complete and metadata
        assert {e["ph"] for e in events} == {"M", "X"}

    def test_span_args_carry_identity_and_status(self, placed_meta):
        obj = chrome_trace(placed_meta.spans.spans)
        root_event = next(e for e in obj["traceEvents"]
                          if e.get("name") == "placement")
        assert root_event["args"]["span_id"] == "s000001"
        assert root_event["args"]["parent_id"] == ""
        assert root_event["args"]["status"] == "ok"
        assert root_event["ts"] >= 0 and root_event["dur"] >= 0

    def test_partially_overlapping_siblings_get_distinct_lanes(self):
        # two siblings overlapping without containment cannot share a
        # Chrome thread row (complete events on one row must nest)
        from reference.span_store import Span
        spans = [
            Span("t000001", "s000001", None, "root", 0.0, 10.0, seq=1),
            Span("t000001", "s000002", "s000001", "a", 0.0, 5.0, seq=2),
            Span("t000001", "s000003", "s000001", "b", 3.0, 8.0, seq=3),
        ]
        obj = chrome_trace(spans)
        lanes = {e["name"]: e["tid"] for e in obj["traceEvents"]
                 if e["ph"] == "X"}
        assert lanes["a"] != lanes["b"]
        # containment still shares the root's lane
        assert lanes["a"] == lanes["root"]

    def test_validator_flags_malformed_traces(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        problems = validate_chrome_trace({"traceEvents": [
            {"pid": 1},                                     # missing ph
            {"ph": "X", "name": "a", "pid": 1, "tid": 1,
             "ts": 0.0},                                    # missing dur
            {"ph": "X", "name": "b", "pid": 1, "tid": 1,
             "ts": 0.0, "dur": -1.0},                       # negative dur
            {"ph": "i", "name": "c", "pid": 1, "tid": 1,
             "ts": "soon"},                                 # ts not number
        ]})
        assert len(problems) == 4

    def test_jsonl_round_trips(self, placed_meta):
        spans = placed_meta.spans.spans
        lines = spans_to_jsonl(spans).splitlines()
        assert len(lines) == len(spans)
        records = [json.loads(line) for line in lines]
        assert [r["span_id"] for r in records] == [
            s.span_id for s in spans]
        assert records[0]["name"] == "placement"
        assert all(r["status"] == "ok" or r["status"] == "error"
                   for r in records)
        assert spans_to_jsonl([]) == ""
