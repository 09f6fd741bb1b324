"""Self-test of the performance benchmark at shrunken sizes (< 20 s).

Not in tier-1 ``testpaths``; run it explicitly::

    python -m pytest benchmarks/perf/test_perf_bench.py -q
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def _load_runner():
    name = "legion_perf_run"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, HERE / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


runner = _load_runner()
metrics, trace, workloads = runner.metrics, runner.trace, runner.workloads

SCALE = 0.05
NAMES = list(workloads.WORKLOADS)
E2E_NAMES = [m["name"] for m in metrics.END_TO_END]
LAYER_NAMES = [m["name"] for m in metrics.PER_LAYER]


def _traced_attributes():
    """(owner, attribute) -> the object installed there right now."""
    import repro  # noqa: F401 - load every subclass
    found = {}
    for target in trace.TARGETS:
        module = importlib.import_module(target.module)
        if not target.cls:
            for fn in target.methods:
                found[(module, fn)] = getattr(module, fn)
            continue
        base = getattr(module, target.cls)
        for method in target.methods + target.context_managers:
            for klass in trace._defining_classes(base, method):
                found[(klass, method)] = vars(klass)[method]
    return found


ORIGINALS = _traced_attributes()


@pytest.fixture
def no_probes(monkeypatch):
    """Repeat reps need no fresh-interpreter set-up probes."""
    monkeypatch.setattr(runner, "probe_setup", lambda *args: [0.1])


@pytest.fixture(scope="module")
def reps():
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "SETUP_PROBES", 1)
        for name in NAMES:
            out[name] = {
                "plain": runner.run_rep(name, 7, 0.0, False, SCALE),
                "traced": runner.run_rep(name, 7, 0.0, True, SCALE),
            }
    return out


def test_the_manifest_is_covered():
    assert metrics.MANIFEST["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in metrics.MANIFEST["workloads"]] == NAMES
    assert len(LAYER_NAMES) <= 128
    for name in E2E_NAMES + LAYER_NAMES:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    # every per-layer metric says which end-to-end metric it should move
    assert list(metrics.MOVES) == LAYER_NAMES
    assert all(metrics.MOVES.values())
    assert set(metrics.SAME_SEED_BOUNDS) == set(E2E_NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_emitted(reps, name):
    plain = reps[name]["plain"]["result"]
    traced = reps[name]["traced"]["result"]
    assert plain["correct"] and traced["correct"], (
        reps[name]["plain"]["details"]["problems"],
        reps[name]["traced"]["details"]["problems"])
    assert set(plain["metrics"]) == set(E2E_NAMES)
    assert set(traced["metrics"]) == set(LAYER_NAMES)
    for reported in (plain["metrics"], traced["metrics"]):
        for metric, row in reported.items():
            assert math.isfinite(row["value"]), metric
    for metric, row in plain["metrics"].items():
        assert row["value"] > 0, f"{metric} must never read 0"
    assert plain["attempted"] >= 1 and plain["failed"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_layer_self_times_add_up_to_the_traced_wall(reps, name):
    details = reps[name]["traced"]["details"]
    attributed = sum(details["layer_self_s"].values())
    total = attributed + details["unattributed_s"]
    assert total == pytest.approx(details["traced_wall_s"], rel=0.02)


def test_workloads_bypass_the_layers_they_should(reps):
    def value(name, metric):
        return reps[name]["traced"]["result"]["metrics"][metric]["value"]

    for name in ("place_closed", "world_dynamics", "serve_surge"):
        for metric in ("recovery.journal_entries", "recovery.lease_ops",
                       "recovery.self_s", "chaos.faults_injected"):
            assert value(name, metric) == 0, (name, metric)
    for name in ("place_closed", "world_dynamics"):
        for metric in ("service.submit_calls", "service.queue_ops",
                       "service.self_s"):
            assert value(name, metric) == 0, (name, metric)
    for name in ("serve_surge", "gameday_recovery"):
        assert value(name, "service.submit_calls") > 0
    assert value("gameday_recovery", "recovery.journal_entries") > 0
    assert value("gameday_recovery", "recovery.lease_ops") > 0
    assert value("gameday_recovery", "scheduler.viable_cache_hit_ratio") == 0
    assert value("place_closed", "scheduler.viable_cache_hit_ratio") >= 0.8


def test_wrappers_are_gone_after_the_traced_rep(reps):
    assert _traced_attributes() == ORIGINALS


def test_wrappers_are_removed_when_the_traced_code_raises():
    from repro.sim.kernel import Simulator
    with pytest.raises(RuntimeError):
        with trace.tracing():
            assert Simulator.run_until is not ORIGINALS[
                (Simulator, "run_until")]
            raise RuntimeError("boom")
    assert _traced_attributes() == ORIGINALS


@pytest.mark.parametrize("name", NAMES)
def test_two_runs_agree_exactly(reps, no_probes, name):
    first = reps[name]["plain"]
    again = runner.run_rep(name, 7, 0.0, False, SCALE)
    traced = reps[name]["traced"]
    assert again["details"]["sim_digest"] == first["details"]["sim_digest"]
    assert again["result"]["attempted"] == first["result"]["attempted"]
    for metric in ("ok_frac", "virt_p50_s", "virt_p99_s"):
        assert again["result"]["metrics"][metric] \
            == first["result"]["metrics"][metric]
    # observing must not change what is observed
    shared = len(traced["details"]["round_digests"])
    assert traced["details"]["round_digests"] \
        == first["details"]["round_digests"][:shared]


@pytest.mark.parametrize("name", NAMES)
def test_another_seed_passes_the_same_checks(no_probes, name):
    rep = runner.run_rep(name, 11, 0.0, False, SCALE)
    assert rep["result"]["correct"], rep["details"]["problems"]
    assert rep["result"]["failed"] == 0


def test_spans_are_written_with_parents_and_ops(tmp_path):
    out = tmp_path / "spans.jsonl"
    runner.run_rep("serve_surge", 7, 0.0, True, SCALE, trace_out=str(out))
    spans = [json.loads(line) for line in out.read_text().splitlines()]
    assert spans and {"name", "layer", "start_ns", "end_ns", "parent",
                      "op"} <= set(spans[0])
    for span in spans:
        assert span["parent"] < span["id"]
        assert span["layer"] in trace.LAYERS
    placements = [s for s in spans if s["name"] == "Scheduler.run"]
    assert placements and all(s["op"] >= 0 for s in placements)


def _suite_doc(seed, **rows):
    """A suite file whose metrics all read 1.0 but for ``rows``."""
    def row(values):
        ordered = sorted(values)
        return {"median": ordered[len(ordered) // 2], "min": ordered[0],
                "max": ordered[-1], "n": len(values)}
    flat = {name: row([1.0, 1.0, 1.0]) for name in E2E_NAMES}
    for name, values in rows.items():
        if values is None:
            del flat[name]
        else:
            flat[name] = row(values)
    return {"seed": seed, "scale": 1.0,
            "workloads": {"place_closed": {"end_to_end": flat,
                                           "sim_digest": "d"}}}


@pytest.mark.parametrize("seed_b, metric, in_a, in_b, expected", [
    # same seed: ISSUE 11's bounds (10 % host, 2 % virtual, 0.005 ok_frac)
    (7, "ops_per_s", [100.0, 102.0, 98.0], [100.0, 101.0, 99.0], "ok"),
    (7, "ops_per_s", [100.0, 102.0, 98.0], [85.0, 86.0, 84.0], "regressed"),
    (7, "ops_per_s", [100.0, 102.0, 98.0], [60.0, 100.0, 140.0],
     "unresolved"),
    (7, "virt_p99_s", [1.0] * 3, [1.03] * 3, "regressed"),
    (7, "ok_frac", [0.445] * 3, [0.438] * 3, "regressed"),
    (7, "ok_frac", [0.445] * 3, [0.442] * 3, "ok"),
    (7, "setup_s", [0.30] * 3, [0.34] * 3, "ok"),  # +13 % but < 0.05 s
    (7, "setup_s", [0.30] * 3, [0.36] * 3, "regressed"),
    # everything failed: a zero median is a verdict, not a ZeroDivisionError
    (7, "ops_per_s", [100.0] * 3, [0.0] * 3, "regressed"),
    (7, "ok_frac", [0.0] * 3, [0.0] * 3, "ok"),
    (7, "virt_p99_s", [0.0] * 3, [0.5] * 3, "regressed"),
    (7, "peak_rss_mb", [70.0] * 3, None, "regressed"),  # B lacks the metric
    # different seeds: BENCHMARK.json's cross-seed bounds
    (11, "ops_per_s", [100.0, 102.0, 98.0], [85.0, 86.0, 84.0], "ok"),
    (11, "ops_per_s", [100.0, 102.0, 98.0], [70.0, 71.0, 69.0], "regressed"),
])
def test_compare_verdicts(tmp_path, capsys, seed_b, metric, in_a, in_b,
                          expected):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_suite_doc(7, **{metric: in_a})))
    b.write_text(json.dumps(_suite_doc(seed_b, **{metric: in_b})))
    regressions = 1 if expected == "regressed" else 0
    assert runner.compare(str(a), str(b)) == regressions
    line = next(l for l in capsys.readouterr().out.splitlines()
                if f" {metric} " in l)
    assert line.endswith(expected)
    assert runner.main(["--compare", str(a), str(b)]) == regressions
