"""Tests for the legion-sim command-line tools."""

import io
import json

import pytest

from repro.tools import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestHostsAndVaults:
    def test_hosts_table(self):
        code, text = run_cli("hosts", "--domains", "2", "--hosts", "3")
        assert code == 0
        assert "dom0-ws0" in text
        assert "dom1-ws2" in text
        assert text.count("\n") >= 6 + 3  # 6 rows + header/sep/title

    def test_vaults_table(self):
        code, text = run_cli("vaults", "--domains", "2")
        assert code == 0
        assert "dom0-vault0" in text
        assert "dom1-vault0" in text


class TestContext:
    def test_walk_lists_bindings(self):
        code, text = run_cli("context", "--domains", "1", "--hosts", "2")
        assert code == 0
        assert "/hosts/dom0-ws0" in text
        assert "/etc/Collection" in text


class TestQuery:
    def test_valid_query(self):
        code, text = run_cli("query", "--domains", "1", "--hosts", "4",
                             "$host_up == true")
        assert code == 0
        assert "4 record(s)" in text

    def test_syntax_error_exit_code(self):
        code, text = run_cli("query", "((($")
        assert code == 2
        assert "query error" in text


class TestRun:
    def test_run_places_instances(self):
        code, text = run_cli("run", "--count", "3", "--scheduler",
                             "random", "--load", "0")
        assert code == 0
        assert "placed 3 instance(s)" in text

    def test_run_wait_reports_completion(self):
        code, text = run_cli("run", "--count", "2", "--work", "50",
                             "--wait", "--load", "0")
        assert code == 0
        assert "2/2 completed" in text

    def test_unknown_scheduler(self):
        code, text = run_cli("run", "--scheduler", "sorcery")
        assert code == 2
        assert "unknown scheduler" in text

    def test_help_lists_every_accepted_scheduler_kind(self, capsys):
        from repro.metasystem import SCHEDULER_KINDS
        with pytest.raises(SystemExit):
            run_cli("run", "--help")
        # argparse wraps help (also at hyphens): compare unwrapped
        text = "".join(capsys.readouterr().out.split())
        assert "|".join(SCHEDULER_KINDS) in text


class TestCampaignCommands:
    """Every campaign subcommand goes through one wrapper: a runner that
    rejects its arguments is exit status 2 and a message, never a
    traceback."""

    @pytest.mark.parametrize("argv", [
        ("chaos",), ("guardrails",), ("slo", "--compare-guardrails"),
        ("economy",), ("serve",), ("gameday",), ("scale",)], ids=" ".join)
    def test_unknown_scheduler_is_a_usage_error(self, argv):
        from repro.metasystem import SCHEDULER_KINDS
        code, text = run_cli(*argv, "--scheduler", "bogus")
        assert code == 2
        assert text.startswith(f"{argv[0]} error: unknown scheduler kind")
        for kind in SCHEDULER_KINDS:
            assert repr(kind) in text
        assert "Traceback" not in text


class TestScaleCommand:
    def test_output_and_ledger_are_deterministic(self, tmp_path):
        path = tmp_path / "scale.json"
        args = ("scale", "--sizes", "16,32", "--out", str(path))
        code, first = run_cli(*args)
        written = path.read_bytes()
        assert run_cli(*args) == (code, first)
        assert path.read_bytes() == written
        assert [p["hosts"] for p in json.loads(written)["sizes"]] == [16, 32]
        # 16 hosts are too few for every 6-instance burst: the gate says
        # so, and the ledger is written all the same
        assert code == 1
        assert first.endswith(
            "ERROR: 16 hosts: 7 of 8 burst requests placed\n")

    @pytest.mark.parametrize("sizes,message", [
        ("6", "scale error: size 6 not divisible by 4 domains"),
        ("x", "bad --sizes 'x': expected comma-separated integers"),
    ])
    def test_bad_sizes_are_usage_errors(self, sizes, message):
        code, text = run_cli("scale", "--sizes", sizes)
        assert code == 2
        assert text.startswith(message)


class TestMetrics:
    def test_table_covers_instrumented_families(self):
        code, text = run_cli("metrics", "--count", "2", "--work", "50",
                             "--load", "0")
        assert code == 0
        for family in ("collection_queries_total", "enactor_step_seconds",
                       "host_reservations_granted_total",
                       "transport_messages_total", "sim_events_processed"):
            assert family in text

    def test_json_format_parses(self):
        import json
        code, text = run_cli("metrics", "--count", "2", "--work", "50",
                             "--load", "0", "--format", "json")
        assert code == 0
        snapshot = json.loads(text)
        assert snapshot["metrics"]

    def test_prom_format(self):
        code, text = run_cli("metrics", "--count", "2", "--work", "50",
                             "--load", "0", "--format", "prom")
        assert code == 0
        assert "# TYPE transport_messages_total counter" in text
        assert 'transport_messages_total{kind="sent"}' in text

    def test_deterministic_across_invocations(self):
        a = run_cli("metrics", "--count", "2", "--seed", "5", "--load",
                    "0", "--format", "json")
        b = run_cli("metrics", "--count", "2", "--seed", "5", "--load",
                    "0", "--format", "json")
        assert a == b

    def test_unknown_scheduler(self):
        code, text = run_cli("metrics", "--scheduler", "sorcery")
        assert code == 2
        assert "unknown scheduler" in text


class TestMetricsQuantiles:
    def test_custom_quantile_columns(self):
        code, text = run_cli("metrics", "--count", "2", "--work", "50",
                             "--load", "0", "--quantiles", "p50,p90,p99")
        assert code == 0
        header = text.splitlines()[1]
        for col in ("p50", "p90", "p99"):
            assert col in header

    def test_bare_float_quantiles_accepted(self):
        code, text = run_cli("metrics", "--count", "2", "--work", "50",
                             "--load", "0", "--quantiles", "0.25,0.75")
        assert code == 0
        assert "p25" in text and "p75" in text

    def test_bad_quantiles_are_usage_errors(self):
        for bad in ("bogus", "p0", "p100", ","):
            code, text = run_cli("metrics", "--quantiles", bad)
            assert code == 2, bad


class TestTraceSteps:
    def test_steps_mode_aggregates_across_traces(self):
        code, text = run_cli("trace", "steps", "--count", "3",
                             "--work", "50", "--load", "0", "--wait")
        assert code == 0
        assert "cross-trace step latency" in text
        assert "placement" in text
        header = text.splitlines()[1]
        for col in ("step", "count", "errors", "mean_s", "p95_s",
                    "max_s", "self_s"):
            assert col in header

    def test_steps_deterministic(self):
        args = ("trace", "steps", "--count", "2", "--seed", "3",
                "--load", "0", "--wait")
        assert run_cli(*args) == run_cli(*args)


class TestSLOCommand:
    CHAOS = ("--chaos-profile", "hosts", "--chaos-seed", "1")

    def test_healthy_run_exits_zero(self):
        code, text = run_cli("slo", "--waves", "3", "--load", "0",
                             "--no-windows")
        assert code == 0
        assert "overall: HEALTHY" in text
        assert "slo placement-latency" in text
        assert "slo placement-success" in text
        assert "slo reservation-success" in text

    def test_chaotic_run_exhausts_budget_and_exits_nonzero(self):
        code, text = run_cli("slo", *self.CHAOS, "--no-windows")
        assert code == 1
        assert "BUDGET EXHAUSTED" in text
        assert "ERROR: error budget exhausted" in text

    def test_allow_exhausted_suppresses_failure(self):
        code, text = run_cli("slo", *self.CHAOS, "--allow-exhausted",
                             "--no-windows")
        assert code == 0

    def test_json_output_is_byte_deterministic(self):
        args = ("slo", *self.CHAOS, "--format", "json",
                "--allow-exhausted")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a == b
        import json
        doc = json.loads(a[1])
        assert doc["slos"] and "minutes_lost" in doc

    def test_out_writes_report_json(self, tmp_path):
        import json
        path = tmp_path / "slo.json"
        code, text = run_cli("slo", "--waves", "2", "--load", "0",
                             "--out", str(path), "--no-windows")
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["healthy"]
        assert f"wrote SLO health report to {path}" in text

    def test_custom_spec_file(self, tmp_path):
        import json
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"slos": [
            {"name": "lenient", "kind": "latency", "target": 0.5,
             "metric": "placement_seconds", "threshold": 10.0}]}))
        code, text = run_cli("slo", "--waves", "2", "--load", "0",
                             "--spec", str(path), "--no-windows")
        assert code == 0
        assert "slo lenient" in text
        assert "placement-latency" not in text

    def test_usage_errors(self, tmp_path):
        code, _ = run_cli("slo", "--window", "0")
        assert code == 2
        code, _ = run_cli("slo", "--spec", str(tmp_path / "missing.json"))
        assert code == 2
        code, _ = run_cli("slo", "--scheduler", "sorcery")
        assert code == 2

    def test_guardrails_and_retries_keep_every_budget(self, tmp_path):
        """The seeded chaos testbed with guardrails+retries on must not
        exhaust any error budget; its report is complete and reproduces
        byte for byte."""
        import json
        path, again = tmp_path / "slo.json", tmp_path / "again.json"
        args = ("slo", *self.CHAOS, "--domains", "3", "--hosts", "6",
                "--platforms", "3", "--waves", "8", "--guardrails",
                "--retry", "--out")
        code, _ = run_cli(*args, str(path))
        assert code == 0
        run_cli(*args, str(again))
        assert path.read_bytes() == again.read_bytes()
        doc = json.loads(path.read_text())
        assert doc["healthy"]
        assert doc["sampler"]["windows"] > 0
        assert [s["spec"]["name"] for s in doc["slos"]] == [
            "placement-latency", "placement-success",
            "reservation-success"]
        assert doc["critical_steps"]

    def test_compare_guardrails_reduces_slo_damage(self):
        code, text = run_cli(
            "slo", "--compare-guardrails", *self.CHAOS,
            "--domains", "3", "--hosts", "6", "--platforms", "3",
            "--waves", "8")
        assert code == 0
        assert "slo minutes lost" in text
        lost = {}
        for line in text.splitlines():
            if "slo minutes lost" in line:
                for part in line.split(":")[1].split(","):
                    mode, value = part.split()
                    lost[mode] = float(value)
        # the acceptance criterion: chaos consumes SLO budget and
        # guardrails measurably reduces the damage
        assert lost["off"] > 0
        assert lost["guardrails"] < lost["off"]


class TestBench:
    def test_bench_compares_schedulers(self):
        code, text = run_cli("bench", "--count", "3", "--work", "50",
                             "--scheduler", "random", "--scheduler",
                             "mct", "--load", "0")
        assert code == 0
        assert "random" in text
        assert "mct" in text

    def test_determinism_across_invocations(self):
        a = run_cli("run", "--count", "2", "--seed", "9", "--load", "0")
        b = run_cli("run", "--count", "2", "--seed", "9", "--load", "0")
        assert a == b


class TestFederationCommand:
    def test_prints_ring_and_gossip_stats(self):
        code, text = run_cli("federation", "--shards", "3",
                             "--replication", "2",
                             "--gossip-interval", "30",
                             "--cache-ttl", "60", "--wait")
        assert code == 0
        assert "ring layout: 3 shards, replication 2" in text
        assert "shard0" in text and "shard2" in text
        assert "replica placement" in text
        assert "cache hit ratio" in text
        assert "rounds" in text

    def test_defaults_to_three_shards(self):
        code, text = run_cli("federation")
        assert code == 0
        assert "3 shards" in text

    def test_run_accepts_federation_flags(self):
        code, text = run_cli("run", "--count", "3", "--scheduler",
                             "random", "--load", "0", "--shards", "3")
        assert code == 0
        assert "placed 3 instance(s)" in text

    def test_federated_run_matches_monolithic_placements(self):
        _, mono = run_cli("run", "--count", "3", "--scheduler", "irs",
                          "--seed", "4")
        _, fed = run_cli("run", "--count", "3", "--scheduler", "irs",
                         "--seed", "4", "--shards", "3",
                         "--replication", "2")
        mono_lines = [ln for ln in mono.splitlines()
                      if ln.startswith("  ")]
        fed_lines = [ln for ln in fed.splitlines() if ln.startswith("  ")]
        assert mono_lines == fed_lines

    def test_determinism_across_invocations(self):
        args = ("federation", "--shards", "3", "--gossip-interval", "20",
                "--seed", "9", "--wait")
        _, first = run_cli(*args)
        _, second = run_cli(*args)
        assert first == second


class TestEconomyCommand:
    def test_run_accepts_cost_scheduler(self):
        code, text = run_cli("run", "--count", "2", "--scheduler", "cost")
        assert code == 0
        assert "placed 2 instance(s) via cost" in text

    def test_run_accepts_economy_scheduler(self):
        code, text = run_cli("run", "--count", "2",
                             "--scheduler", "economy")
        assert code == 0
        assert "placed 2 instance(s) via economy" in text

    def test_single_report(self):
        code, text = run_cli("economy", "--users", "2", "--waves", "2",
                             "--count", "1", "--domains", "2",
                             "--hosts", "3")
        assert code == 0
        assert "economy campaign: scheduler=economy" in text
        assert "deadline:" in text and "auction:" in text
        assert "user u0:" in text and "user u1:" in text

    def test_report_out_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("economy", "--users", "2", "--waves", "2", "--count",
                "1", "--domains", "2", "--hosts", "3", "--mode", "time")
        code, _ = run_cli(*args, "--out", str(a))
        assert code == 0
        run_cli(*args, "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_bad_mode_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("economy", "--mode", "frugal")
