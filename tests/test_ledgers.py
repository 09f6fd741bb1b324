"""The committed BENCH_*.json ledgers hold: every registry row passes the
same check ``legion-sim ledger check`` runs (two regenerating runs
byte-identical to each other and to the committed file, gate empty,
every claim of the row's comparison true)."""

import json
import shutil
from pathlib import Path

import pytest

from repro.tools import main
from repro.tools.ledgers import LEDGERS, check_ledger, select

ROOT = Path(__file__).resolve().parent.parent


class TestLedgers:
    @pytest.mark.parametrize("ledger", LEDGERS, ids=lambda row: row.name)
    def test_check(self, ledger):
        assert check_ledger(ledger, root=str(ROOT)) == []

    def test_every_committed_ledger_has_a_row(self):
        committed = {path.name for path in ROOT.glob("BENCH_*.json")}
        assert committed == {ledger.filename for ledger in LEDGERS}

    def test_stale_or_failing_ledger_is_reported(self, tmp_path):
        (ledger,) = select(["chaos"])
        stale = (ROOT / ledger.filename).read_text().replace(
            '"retry_enabled": true', '"retry_enabled": false')
        (tmp_path / ledger.filename).write_text(stale)
        problems = check_ledger(ledger, root=str(tmp_path))
        assert len(problems) == 1 and "is stale" in problems[0]
        assert check_ledger(ledger, root=str(tmp_path / "nowhere"))

    def test_drift_at_any_scale_size_is_stale(self, tmp_path):
        (ledger,) = select(["scale"])
        doc = json.loads((ROOT / ledger.filename).read_text())
        (largest,) = [p for p in doc["sizes"] if p["hosts"] == 1024]
        largest["events"] += 1
        (tmp_path / ledger.filename).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
        problems = check_ledger(ledger, root=str(tmp_path))
        assert len(problems) == 1 and "is stale" in problems[0]

    def test_cli_check_write_and_unknown_name(self, tmp_path, monkeypatch, capsys):
        shutil.copy(ROOT / "BENCH_guardrails.json", tmp_path)
        monkeypatch.chdir(tmp_path)
        keep = tmp_path / "kept"
        assert main(["ledger", "check", "guardrails",
                     "--keep", str(keep)]) == 0
        assert "BENCH_guardrails.json: ok" in capsys.readouterr().out
        assert (keep / "BENCH_guardrails.json").read_bytes() == \
            (ROOT / "BENCH_guardrails.json").read_bytes()
        assert "holds: guardrails waste fewer reservation attempts" in \
            (keep / "guardrails.txt").read_text()
        assert main(["ledger", "check", "nope"]) == 2
        assert main(["ledger", "check"]) == 2
        # a missing committed file is a failed check, not a crash —
        # and `ledger write` is what repairs it
        assert main(["ledger", "check", "chaos"]) == 1
        assert main(["ledger", "write", "chaos"]) == 0
        assert (tmp_path / "BENCH_chaos.json").read_bytes() == \
            (ROOT / "BENCH_chaos.json").read_bytes()
