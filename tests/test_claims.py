"""Claims as data: the evaluator's semantics, and a mutation table for
every claim row a committed ledger carries.

``CARRIED`` states, apart from the rows themselves, what each claim
must do: whether it gates every run, whether a tie with its baseline
holds, and a value of its metric that must fail it.  Flipping
``better`` or ``strict`` on any row, or deleting a row, fails a test
here named after that row."""

import copy
import io
import json
from pathlib import Path

import pytest

from repro.audit.claims import Claim, failures, judge, read, verdict_lines
from repro.guardrails.compare import SLO_CLAIMS, GuardrailsComparison
from repro.tools.cli import main
from repro.tools.ledgers import LEDGERS

ROOT = Path(__file__).resolve().parent.parent

#: claim -> (gates every run, a tie with the baseline holds, a value
#: of the claim's metric in its arm that fails it)
CARRIED = {
    "chaos": {
        "faults were injected": (False, False, 0),
        "retries fired": (False, False, 0),
        "retry places more waves than off": (False, False, 1),
    },
    "guardrails": {
        "guardrails keep survival": (True, True, 0.5),
        "guardrails waste fewer reservation attempts": (False, False, 20),
    },
    "economy": {
        "economy beats random on deadline-miss rate": (True, False, 0.5),
        "economy beats random on total cost": (True, False, 150.0),
        "economy beats irs on deadline-miss rate": (True, False, 0.5),
        "economy beats irs on total cost": (True, False, 160.0),
        "no user overspent their budget": (False, True, 0.5),
        "auctions cleared": (False, False, 0),
    },
    "service": {
        "shedding keeps the e2e latency budget no-shedding exhausts":
            (True, False, True),
        "shedding keeps p99 inside the SLO threshold": (True, True, False),
        "something was shed": (False, False, 0),
        "no request failed": (False, True, 1),
    },
}

COMPARED = [ledger for ledger in LEDGERS if ledger.comparison is not None]
ROWS = [(ledger, claim) for ledger in COMPARED
        for claim in ledger.comparison.claims]


def row_id(row):
    ledger, claim = row
    return f"{ledger.name}: {claim.name}"


def committed_arms(ledger):
    doc = json.loads((ROOT / ledger.filename).read_text())
    return doc[ledger.comparison.reports_key]


def with_value(arms, arm, metric, value):
    """A copy of ``arms`` with ``metric`` of ``arm`` set to ``value``."""
    arms = copy.deepcopy(arms)
    *parents, leaf = metric.split(".")
    block = arms[arm]
    for key in parents:
        block = block.setdefault(key, {})
    block[leaf] = value
    return arms


def baseline_value(claim, arms):
    if isinstance(claim.baseline, str):
        return read(arms[claim.baseline], claim.metric)
    return claim.baseline


class TestEvaluator:
    ARMS = {"a": {"n": 3, "ok": True, "by_state": {"placed": 2},
                  "faults": {"crash": 2, "loss": 1}},
            "b": {"n": 5, "ok": False, "by_state": {"placed": 1}}}

    def test_strict_and_no_worse(self):
        lower = Claim("a is lower", "n", "lower", "a", "b")
        assert judge(lower, self.ARMS) == (True, "a 3 < b 5")
        assert not judge(Claim("b", "n", "lower", "b", "a"), self.ARMS)[0]
        tie = with_value(self.ARMS, "a", "n", 5)
        assert not judge(lower, tie)[0]
        assert judge(Claim("no worse", "n", "lower", "a", "b",
                           strict=False), tie)[0]

    def test_fixed_bounds(self):
        assert judge(Claim("ok", "ok", "higher", "a", True, strict=False),
                     self.ARMS)[0]
        assert judge(Claim("few", "n", "lower", "a", 3, strict=False),
                     self.ARMS) == (True, "a 3 <= bound 3")

    def test_an_absent_key_reads_as_zero(self):
        failed = Claim("none failed", "by_state.failed", "lower", "a", 0,
                       strict=False)
        assert read(self.ARMS["a"], "by_state.failed") == 0
        assert read(self.ARMS["a"], "slo.exhausted") == 0
        assert judge(failed, self.ARMS)[0]

    def test_a_count_block_reads_as_its_total(self):
        assert read(self.ARMS["a"], "faults") == 3

    def test_a_missing_arm_fails(self):
        claim = Claim("a beats c", "n", "lower", "a", "c")
        assert judge(claim, self.ARMS) == (False, "no c arm")
        assert failures([claim], {}) == \
            ["FAILS: a beats c (no a, c arm)"]

    def test_one_line_per_claim(self):
        claims = [Claim("a is lower", "n", "lower", "a", "b"),
                  Claim("a is higher", "n", "higher", "a", "b")]
        assert verdict_lines(claims, self.ARMS) == [
            "holds: a is lower (a 3 < b 5)",
            "FAILS: a is higher (a 3 > b 5)"]
        assert failures(claims, self.ARMS) == \
            ["FAILS: a is higher (a 3 > b 5)"]


class TestUndecided:
    """Nothing beats 0 on a lower-is-better count: a strict row with
    both sides there is no evidence either way, not a failure."""

    def test_a_strict_row_at_zero_on_both_sides_is_undecided(self):
        claim = Claim("a beats b", "n", "lower", "a", "b")
        arms = {"a": {"n": 0}, "b": {"n": 0}}
        assert judge(claim, arms) == (None, "a 0 < b 0")
        assert verdict_lines([claim], arms) == [
            "undecided: a beats b (a 0 < b 0)"]
        assert failures([claim], arms) == []

    def test_a_tie_above_zero_still_fails(self):
        claim = Claim("a beats b", "n", "lower", "a", "b")
        arms = {"a": {"n": 2}, "b": {"n": 2}}
        assert judge(claim, arms) == (False, "a 2 < b 2")
        assert failures([claim], arms) == ["FAILS: a beats b (a 2 < b 2)"]

    def test_a_three_wave_economy_comparison_passes(self):
        out = io.StringIO()
        code = main(["economy", "--compare-baselines", "--waves", "3"],
                    out=out)
        assert code == 0, out.getvalue()
        assert ("undecided: economy beats irs on deadline-miss rate "
                "(economy 0 < irs 0)") in out.getvalue()


class TestLedgerClaims:
    @pytest.mark.parametrize("ledger", COMPARED, ids=lambda row: row.name)
    def test_every_ledger_carries_its_claims(self, ledger):
        assert {claim.name: claim.gate
                for claim in ledger.comparison.claims} == \
            {name: gate for name, (gate, _, _)
             in CARRIED[ledger.name].items()}

    @pytest.mark.parametrize("row", ROWS, ids=row_id)
    def test_holds_on_its_committed_ledger(self, row):
        ledger, claim = row
        arms = committed_arms(ledger)
        # the metric is really there — a misspelt path would read as 0 —
        # unless it is a request state nobody reached
        *parents, leaf = claim.metric.split(".")
        block = arms[claim.arm]
        for key in parents:
            block = block[key]
        assert leaf in block or parents[-1:] == ["by_state"]
        assert judge(claim, arms)[0], judge(claim, arms)[1]

    @pytest.mark.parametrize("row", ROWS, ids=row_id)
    def test_a_tie(self, row):
        ledger, claim = row
        arms = committed_arms(ledger)
        tie = with_value(arms, claim.arm, claim.metric,
                         baseline_value(claim, arms))
        _, tie_holds, _ = CARRIED[ledger.name][claim.name]
        assert judge(claim, tie)[0] is tie_holds

    @pytest.mark.parametrize("row", ROWS, ids=row_id)
    def test_a_worse_value_fails(self, row):
        ledger, claim = row
        _, _, worse = CARRIED[ledger.name][claim.name]
        arms = with_value(committed_arms(ledger), claim.arm, claim.metric,
                          worse)
        assert not judge(claim, arms)[0]


class TestGuardrailsTiers:
    def test_sampling_gates_on_error_budgets_alone(self):
        """Unsampled, a survival regression fails the run; sampled, the
        error budgets do and survival is a benefit."""
        regressed = {"off": {"placement": {"success_rate": 1.0}},
                     "guardrails": {"placement": {"success_rate": 0.5},
                                    "slo": {"exhausted": 0}}}
        unsampled = [c for c in GuardrailsComparison.claims if c.gate]
        sampled = [c for c in SLO_CLAIMS if c.gate]
        assert failures(unsampled, regressed)
        assert not failures(sampled, regressed)
        exhausted = with_value(regressed, "guardrails", "slo.exhausted", 1)
        assert failures(sampled, exhausted)
