"""Fig. 3 step-order checker (``repro.audit.protocol``): it accepts the
traces the system records, under both co-allocation modes and over every
ledger campaign, and rejects hand-mutated copies that break each of its
three rules."""

import copy
import json
from types import SimpleNamespace

import pytest

from campaign_runs import CAMPAIGNS
from repro import Implementation, ObjectClassRequest
from repro.audit import check_spans, check_trace, load_jsonl
from repro.obs import spans_to_jsonl


def _placement_spans(meta, sequential=False):
    meta.enactor.coallocator.sequential = sequential
    app = meta.create_class(
        "A", [Implementation("sparc", "SunOS")], work_units=10.0)
    outcome = meta.make_scheduler("irs").run([ObjectClassRequest(app, 3)])
    assert outcome.ok
    return load_jsonl(spans_to_jsonl(meta.spans.spans))


@pytest.fixture
def spans(meta):
    return _placement_spans(meta)


def _first(spans, name):
    return next(s for s in spans if s.name == name)


def _started_host(spans):
    """The host of the first successful start, and the dst its
    reservation was sent to."""
    start = next(s for s in spans
                 if s.name == "host.start" and s.attributes.get("ok"))
    host = start.attributes["host"]
    grant = next(s for s in spans if s.name == "host.reserve"
                 and s.attributes["host"] == host)
    rpc = next(s for s in spans if s.span_id == grant.parent_id)
    return start, host, rpc.attributes["dst"]


@pytest.mark.parametrize("sequential", [False, True],
                         ids=["batch", "sequential"])
def test_recorded_placements_are_accepted(meta, sequential):
    spans = _placement_spans(meta, sequential)
    names = {s.name for s in spans}
    assert {"enactor.negotiate", "host.reserve", "rpc:create_instance",
            "host.start"} <= names
    assert check_spans(spans) == []


class TestEveryCampaign:
    """Every ledger campaign — faults, retries, guardrails, the economy,
    the service tier, a checkpoint/restore game day and the scale waves —
    places in Fig. 3 order."""

    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_campaign_spans_follow_fig3_step_order(self, name):
        meta, _report = CAMPAIGNS[name]("spans")
        assert meta.spans.find("rpc:create_instance")
        assert check_spans(meta.spans.spans) == []


def test_start_without_a_grant_is_rejected(spans):
    _start, host, _dst = _started_host(spans)
    mutated = [s for s in spans if not (
        s.name == "host.reserve" and s.attributes["host"] == host)]
    problems = check_trace(mutated)
    assert problems and "live granted reservation" in problems[0]


def test_start_after_its_grant_was_cancelled_is_rejected(spans):
    start, _host, dst = _started_host(spans)
    cancel = SimpleNamespace(
        trace_id=start.trace_id, span_id="s999999", parent_id=None,
        name="rpc:cancel_reservation", start=start.start, end=start.start,
        status="ok", attributes={"dst": dst})
    at = spans.index(_first(spans, "enactor.enact"))
    problems = check_trace(spans[:at] + [cancel] + spans[at:])
    assert problems and "live granted reservation" in problems[0]
    # a second grant on the same host survives one cancel
    grant = next(s for s in spans if s.name == "host.reserve"
                 and s.attributes["host"] == start.attributes["host"])
    again = copy.copy(grant)
    assert check_trace(spans[:at] + [again, cancel] + spans[at:]) == []


def test_create_before_negotiation_ended_is_rejected(spans):
    negotiate = _first(spans, "enactor.negotiate")
    create = _first(spans, "rpc:create_instance")
    create.start = negotiate.end - 1e-6
    problems = check_trace(spans)
    assert problems and "before negotiation" in problems[0]


def test_start_outside_its_create_window_is_rejected(spans):
    start, _host, _dst = _started_host(spans)
    parent = next(s for s in spans if s.span_id == start.parent_id)
    start.end = parent.end + 1e-6
    problems = check_trace(spans)
    assert problems and "outside its create" in problems[0]


def _write(path, spans):
    path.write_text("".join(json.dumps(vars(s)) + "\n" for s in spans))
    return str(path)


def test_cli_accepts_and_rejects_files(spans, tmp_path, capsys):
    from repro.audit.protocol import main
    good = _write(tmp_path / "good.spans.jsonl", spans)
    assert main([good]) == 0
    _first(spans, "rpc:create_instance").start = -1.0
    bad = _write(tmp_path / "bad.spans.jsonl", spans)
    assert main([good, bad]) == 1
    out = capsys.readouterr().out
    assert "good.spans.jsonl: " in out and "accepted" in out
    assert "bad.spans.jsonl: " in out and "rejected" in out
