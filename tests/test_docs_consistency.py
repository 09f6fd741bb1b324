"""Documentation-integrity tests: DESIGN.md's experiment index and module
inventory must reference things that actually exist.  Plus one source
check: periodic work goes through the kernel's ``Ticker``."""

import ast
import re
from pathlib import Path

import pytest

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


#: self-rescheduling functions still allowed outside ``sim/kernel.py``,
#: by (module under src/repro, function name): the Supervisor's lease
#: scan on ``grid_delay`` and the gameday's one-shot checkpoint probe
#: that re-polls on its own 1 s grid until every worker is parked
HAND_ROLLED_LOOPS = {
    ("recovery/supervisor.py", "_tick"),
    ("recovery/gameday.py", "try_checkpoint"),
}


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
        "Writing a periodic daemon") instead of a function that
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
        assert loops == HAND_ROLLED_LOOPS

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
