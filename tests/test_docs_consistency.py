"""Documentation-integrity tests: DESIGN.md's experiment index and module
inventory must reference things that actually exist.  Plus source
checks: periodic work goes through the kernel's ``Ticker``, a service
request's state changes only in ``ServiceRequest.apply``, whose event
table matches the journal vocabulary docs/recovery.md lists, and a
comparison's claims are data judged by one evaluator."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.audit.claims import Claim
from repro.guardrails.compare import SLO_CLAIMS
from repro.recovery.journal import EVENTS
from repro.service.request import FIRES_FROM, ServiceRequest
from repro.tools.ledgers import LEDGERS

ROOT = Path(__file__).resolve().parent.parent


def read(name):
    return (ROOT / name).read_text(encoding="utf-8")


class TestDesignDoc:
    def test_every_bench_target_exists(self):
        targets = re.findall(r"`(benchmarks/test_[a-z0-9_]+\.py)`",
                             read("DESIGN.md"))
        assert targets, "DESIGN.md lists no bench targets?"
        for target in targets:
            assert (ROOT / target).exists(), target

    def test_every_bench_file_is_indexed(self):
        design = read("DESIGN.md")
        for path in sorted((ROOT / "benchmarks").glob("test_e*.py")):
            assert f"benchmarks/{path.name}" in design, path.name

    def test_module_paths_exist(self):
        design = read("DESIGN.md")
        for mod in re.findall(r"`repro/([a-z_/]+\.py)`", design):
            assert (ROOT / "src" / "repro" / mod).exists(), mod
        for pkg in re.findall(r"`repro/([a-z_]+)/`", design):
            assert (ROOT / "src" / "repro" / pkg).is_dir(), pkg

    def test_experiment_ids_continuous(self):
        design = read("DESIGN.md")
        ids = sorted({int(m) for m in re.findall(r"\| E(\d+) \|", design)})
        assert ids == list(range(1, ids[-1] + 1))


class TestExperimentsDoc:
    def test_every_design_experiment_has_a_record(self):
        design = read("DESIGN.md")
        experiments = read("EXPERIMENTS.md")
        ids = {int(m) for m in re.findall(r"\| E(\d+) \|", design)}
        for exp_id in ids:
            assert f"## E{exp_id} " in experiments, f"E{exp_id}"

    def test_verdict_per_experiment(self):
        experiments = read("EXPERIMENTS.md")
        sections = re.split(r"^## ", experiments, flags=re.M)[1:]
        for section in sections:
            if section.startswith("E"):
                assert "Verdict" in section, section.splitlines()[0]


class TestReadme:
    def test_architecture_listing_matches_packages(self):
        readme = read("README.md")
        pkg_dir = ROOT / "src" / "repro"
        for pkg in sorted(p.name for p in pkg_dir.iterdir()
                          if p.is_dir() and p.name != "__pycache__"):
            assert f"{pkg}/" in readme, pkg

    def test_examples_exist(self):
        readme = read("README.md")
        for example in re.findall(r"`examples/([a-z_]+\.py)`", readme):
            assert (ROOT / "examples" / example).exists(), example

    def test_docs_exist(self):
        for doc in ("architecture.md", "protocol.md", "query_language.md",
                    "extending.md"):
            assert (ROOT / "docs" / doc).exists(), doc


def self_rescheduling_functions(tree):
    """Names of functions that pass themselves (``f`` or ``self.f``) to a
    ``schedule`` / ``schedule_at`` call in their own body."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("schedule", "schedule_at")):
                continue
            for arg in call.args:
                name = (arg.id if isinstance(arg, ast.Name) else
                        arg.attr if isinstance(arg, ast.Attribute) else None)
                if name == func.name:
                    found.add(func.name)
    return found


class TestPeriodicDaemons:
    def test_no_new_hand_rolled_periodic_loops(self):
        """A periodic daemon owns a ``Ticker`` (docs/extending.md,
        "Writing a periodic daemon") and a wake-up at a computed instant
        is one ``_arm`` method ("Waking on a deadline"); no function
        reschedules itself through ``sim.schedule``."""
        src = ROOT / "src" / "repro"
        loops = set()
        for path in sorted(src.rglob("*.py")):
            module = path.relative_to(src).as_posix()
            if module == "sim/kernel.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            loops |= {(module, name)
                      for name in self_rescheduling_functions(tree)}
        assert not loops, loops

    def test_the_check_sees_both_spellings(self):
        tree = ast.parse(
            "def tick():\n"
            "    sim.schedule(1.0, tick)\n"
            "class D:\n"
            "    def _tick(self):\n"
            "        self.sim.schedule_at(self.sim.now + 1.0, self._tick)\n"
            "    def once(self):\n"
            "        self.sim.schedule(1.0, self._tick)\n")
        assert self_rescheduling_functions(tree) == {"tick", "_tick"}


def request_slot_writes(tree):
    """``obj.slot`` texts of every plain, annotated or augmented
    assignment to a ``ServiceRequest`` slot on an object other than
    ``self``."""
    slots = set(ServiceRequest.__slots__)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for attr in ast.walk(target):
                if (isinstance(attr, ast.Attribute)
                        and isinstance(attr.ctx, ast.Store)
                        and attr.attr in slots
                        and not (isinstance(attr.value, ast.Name)
                                 and attr.value.id == "self")):
                    found.add(ast.unparse(attr))
    return found


def reaches_service_requests(module, tree):
    """A module in the ``service`` or ``recovery`` package, or one that
    imports from them: the only places a ``ServiceRequest`` is held
    (elsewhere ``.state`` / ``.detail`` belong to jobs and outcomes)."""
    packages = ("service", "recovery")
    if module.split("/")[0] in packages:
        return True
    return any(isinstance(node, ast.ImportFrom) and node.module
               and set(packages) & set(node.module.split("."))
               for node in ast.walk(tree))


class TestRequestStateHasOneWriter:
    def test_nothing_bypasses_apply(self):
        """The live tier changes a request only through
        ``RequestGateway.transition`` -> ``ServiceRequest.apply``, the
        code journal replay runs too."""
        src = ROOT / "src" / "repro"
        writes = set()
        for path in sorted(src.rglob("*.py")):
            module = path.relative_to(src).as_posix()
            if module == "service/request.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if reaches_service_requests(module, tree):
                writes |= {(module, text)
                           for text in request_slot_writes(tree)}
        assert not writes, writes

    def test_the_check_sees_both_spellings(self):
        tree = ast.parse(
            "request.state = QUEUED\n"
            "request.defers += 1\n"
            "requests[request.request_id] = request\n"
            "class R:\n"
            "    def f(self):\n"
            "        self.state = QUEUED\n")
        assert request_slot_writes(tree) == {"request.state",
                                             "request.defers"}

    def test_the_scope_follows_imports(self):
        assert reaches_service_requests("recovery/gameday.py",
                                        ast.parse(""))
        assert reaches_service_requests(
            "metasystem.py", ast.parse("from .service import X\n"))
        assert reaches_service_requests(
            "tools/cli.py", ast.parse("from ..service.request import X\n"))
        assert not reaches_service_requests(
            "queues/base.py", ast.parse("from ..sim import X\n"))


class TestJournalVocabulary:
    def test_recovery_doc_lists_exactly_the_journal_events(self):
        section = read("docs/recovery.md").split(
            "## The request journal", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\| `([a-z_]+)` \|", section, flags=re.M)
        assert sorted(documented) == sorted(EVENTS)
        assert len(documented) == len(set(documented))

    def test_every_event_but_submit_has_a_row_in_apply(self):
        assert set(FIRES_FROM) == set(EVENTS) - {"submit"}


def comparison_bool_defs(trees):
    """``(class, def)`` of every def annotated ``-> bool`` in a class
    that derives, directly or not, from ``Comparison``."""
    classes = {node.name: node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}

    def derives(cls, seen=()):
        for base in cls.bases:
            name = (base.id if isinstance(base, ast.Name) else
                    base.attr if isinstance(base, ast.Attribute) else None)
            if name == "Comparison" or (
                    name in classes and name not in seen
                    and derives(classes[name], seen + (name,))):
                return True
        return False

    return {(cls.name, node.name) for cls in classes.values()
            if derives(cls) for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.returns is not None
            and ast.unparse(node.returns) == "bool"}


class TestClaimsAreData:
    #: booleans a comparison still computes itself, none of them a claim
    NOT_CLAIMS = {
        # which claim table applies (sampled or not)
        ("GuardrailsComparison", "has_slo"),
        # the restore gate: two runs' report cores match byte for byte
        ("GamedayComparison", "byte_identical"),
        # the restore gate's verdict: problems() is empty
        ("GamedayComparison", "passed"),
    }

    def test_the_ledger_registry_holds_no_code(self):
        assert "lambda" not in read("src/repro/tools/ledgers.py")
        tables = [ledger.comparison.claims for ledger in LEDGERS
                  if ledger.comparison is not None] + [SLO_CLAIMS]
        for table in tables:
            for row in table:
                assert isinstance(row, Claim), row
                assert not any(callable(getattr(row, f.name))
                               for f in fields(row)), row

    def test_no_comparison_judges_a_claim_itself(self):
        """A comparison's verdict booleans come from
        ``repro.audit.claims``; it defines no predicate of its own."""
        src = ROOT / "src" / "repro"
        trees = [ast.parse(path.read_text(encoding="utf-8"))
                 for path in sorted(src.rglob("*.py"))]
        assert comparison_bool_defs(trees) == self.NOT_CLAIMS

    def test_the_check_sees_a_reintroduced_predicate(self):
        tree = ast.parse(
            "class Base(Comparison):\n"
            "    pass\n"
            "class EconomyComparison(Base):\n"
            "    def beats(self, baseline: str) -> bool:\n"
            "        return True\n"
            "    def summary(self) -> str:\n"
            "        return ''\n"
            "class Report:\n"
            "    def ok(self) -> bool:\n"
            "        return True\n")
        assert comparison_bool_defs([tree]) == {
            ("EconomyComparison", "beats")}
