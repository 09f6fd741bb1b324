"""Tests for the span-to-sequence-diagram renderer."""

from reference.span_store import Span
from repro.bench import protocol_trace, render_sequence


def rec(src, dst, label, rtt=0.001, t=0.0):
    """The ``rpc:`` span of one call from ``src`` to ``dst``."""
    return Span("t000001", "s000001", None, f"rpc:{label}", t, t + rtt,
                {"src": src, "dst": dst})


class TestRenderSequence:
    def test_empty(self):
        assert "no invocations" in render_sequence([])

    def test_parties_in_first_appearance_order(self):
        out = render_sequence([rec("a/x", "b/y", "ping"),
                               rec("b/y", "c/z", "pong")])
        header = out.splitlines()[0]
        assert header.index("a/x") < header.index("b/y") < header.index(
            "c/z")

    def test_arrow_direction(self):
        out = render_sequence([rec("a/x", "b/y", "go")])
        assert ">" in out
        back = render_sequence([rec("a/x", "b/y", "go"),
                                rec("b/y", "a/x", "back")])
        assert "<" in back

    def test_label_and_rtt_present(self):
        out = render_sequence([rec("a/x", "b/y", "make_reservation")],
                              column_width=40)
        assert "make_reservation" in out
        assert "ms)" in out

    def test_none_src_renders_client(self):
        out = render_sequence([rec("None", "b/y", "call")])
        assert "client" in out.splitlines()[0]

    def test_long_label_truncated_not_crashed(self):
        out = render_sequence(
            [rec("a/x", "b/y", "a-very-long-label-indeed-it-is")],
            column_width=10)
        assert "~" in out  # ellipsis marker

    def test_self_call(self):
        out = render_sequence([rec("a/x", "a/x", "local")])
        assert "local" in out

    def test_non_invoke_records_ignored(self):
        spans = [Span("t000001", "s000001", None, "transfer:opr-move", 0.0,
                      1.0, {"src": "a", "dst": "b"}),
                 Span("t000001", "s000002", None, "enactor.negotiate", 0.0,
                      1.0)]
        assert "no invocations" in protocol_trace(spans)

    def test_protocol_trace_since_and_limit(self):
        spans = [rec("a/x", "b/y", f"m{i}", t=float(i)) for i in range(5)]
        out = protocol_trace(spans, since=2.0, limit=2)
        assert "m2" in out and "m3" in out
        assert "m0" not in out and "m4" not in out


class TestEndToEnd:
    def test_real_protocol_renders(self, meta, app_class):
        from repro import ObjectClassRequest
        meta.place_collection("uva")
        sched = meta.make_scheduler("random")
        outcome = sched.run([ObjectClassRequest(app_class, 2)])
        assert outcome.ok
        diagram = protocol_trace(meta.spans.spans)
        assert "QueryCollection" in diagram or "create" in diagram
        assert "collection-svc" in diagram.splitlines()[0]

    def test_batched_rounds_draw_a_lifeline_per_reserved_host(
            self, meta, app_class):
        """The reservation and create rounds go out as concurrent
        batches; each call of a batch is still one row of the diagram."""
        from repro import ObjectClassRequest
        outcome = meta.make_scheduler("irs").run(
            [ObjectClassRequest(app_class, 3)])
        assert outcome.ok
        diagram = protocol_trace(meta.spans.spans)
        rows = diagram.splitlines()
        assert any("make_reservation[" in row for row in rows[1:])
        assert any("create_instance" in row for row in rows[1:])
        reserved = {str(meta.resolve(m.host_loid).location)
                    for m in outcome.feedback.reserved_entries}
        assert set(rows[0].split()) == {"client"} | reserved

    def test_cli_trace_flag(self):
        import io
        from repro.tools import main
        out = io.StringIO()
        code = main(["run", "--count", "3", "--trace", "40"], out=out)
        assert code == 0
        assert "create_instance" in out.getvalue()
        assert "no invocations" not in out.getvalue()
