"""Documentation-integrity tests: DESIGN.md's experiment index and module
inventory must reference things that actually exist.  Plus source
checks: periodic work goes through the kernel's ``Ticker``, a service
request's state changes only in ``ServiceRequest.apply``, whose event
table matches the journal vocabulary docs/recovery.md lists, a
comparison's claims are data judged by one evaluator, telemetry is
handed to a component at construction, live only from the Metasystem,
what a world holds once per host has no instance ``__dict__`` and
no callback of its own, only ``schedule/schedule.py`` builds variant
schedules, the world builders switch no layer on, the two service
campaigns start their tier through one driver, docs and sources
cite ROADMAP items by title, docs/observability.md catalogues exactly
the metrics and spans the source records, and only the registry module
knows how the metrics store is laid out."""

import ast
import inspect
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.audit.claims import Claim
from repro.guardrails.compare import SLO_CLAIMS
from repro.recovery import run_gameday
from repro.recovery.journal import EVENTS
from repro.service import run_service
from repro.service.request import FIRES_FROM, ServiceRequest
from repro.tools.ledgers import LEDGERS
from repro.workload.testbed import TestbedSpec, build_testbed

ROOT = Path(__file__).resolve().parent.parent


def read(name):
    return (ROOT / name).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def source_trees():
    """``(module, tree)`` for every file under ``src/repro``, module
    relative to that directory: parsed once for this file's source
    checks and released when they are done (kept for the whole session,
    the trees would slow every later garbage collection)."""
    src = ROOT / "src" / "repro"
    return [(path.relative_to(src).as_posix(),
             ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(src.rglob("*.py"))]


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


#: a ROADMAP citation by item number (numbers are reassigned when the
#: roadmap is re-anchored; titles are not), even across a line break
ROADMAP_BY_NUMBER = re.compile(r"ROADMAP\s+item\s+\d")


def roadmap_numbers(root):
    """``path:line`` of every ROADMAP-by-number citation under
    ``docs/`` and ``src/``."""
    hits = []
    for top in ("docs", "src"):
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in (".md", ".py"):
                continue
            text = path.read_text(encoding="utf-8")
            for m in ROADMAP_BY_NUMBER.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                hits.append(f"{path.relative_to(root)}:{line}")
    return hits


class TestRoadmapCitations:
    def test_docs_and_sources_cite_roadmap_items_by_title(self):
        assert roadmap_numbers(ROOT) == []

    def test_the_check_sees_a_citation_split_across_lines(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "src").mkdir()
        (tmp_path / "docs" / "a.md").write_text(
            "open (ROADMAP\nitem 11).\n", encoding="utf-8")
        (tmp_path / "src" / "b.py").write_text(
            "# see ROADMAP item 2\n", encoding="utf-8")
        assert roadmap_numbers(tmp_path) == ["docs/a.md:1", "src/b.py:1"]


class TestPeriodicDaemons:
    def test_no_new_hand_rolled_periodic_loops(self, source_trees):
        """A periodic daemon owns a ``Ticker`` (docs/extending.md,
        "Writing a periodic daemon") and a wake-up at a computed instant
        is one ``_arm`` method ("Waking on a deadline"); no function
        reschedules itself through ``sim.schedule``."""
        loops = set()
        for module, tree in source_trees:
            if module == "sim/kernel.py":
                continue
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
    def test_nothing_bypasses_apply(self, source_trees):
        """The live tier changes a request only through
        ``RequestGateway.transition`` -> ``ServiceRequest.apply``, the
        code journal replay runs too."""
        writes = set()
        for module, tree in source_trees:
            if module == "service/request.py":
                continue
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

    def test_no_comparison_judges_a_claim_itself(self, source_trees):
        """A comparison's verdict booleans come from
        ``repro.audit.claims``; it defines no predicate of its own."""
        trees = [tree for _, tree in source_trees]
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


TELEMETRY = ("metrics", "spans")
LIVE_TELEMETRY = ("MetricsRegistry", "SpanTracer")


def telemetry_wiring(module, tree):
    """Breaches of the telemetry rule (docs/observability.md): a live
    registry or tracer built outside ``metasystem.py``, a ``metrics`` /
    ``spans`` parameter defaulting to ``None``, or telemetry assigned
    onto an object other than ``self``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and module != "metasystem.py":
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name in LIVE_TELEMETRY:
                found.add(ast.unparse(node))
        elif isinstance(node, ast.arguments):
            positional = node.posonlyargs + node.args
            pairs = list(zip(positional[len(positional)
                                        - len(node.defaults):],
                             node.defaults))
            pairs += zip(node.kwonlyargs, node.kw_defaults)
            found |= {f"{arg.arg}={ast.unparse(default)}"
                      for arg, default in pairs
                      if arg.arg in TELEMETRY
                      and isinstance(default, ast.Constant)
                      and default.value is None}
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            found |= {ast.unparse(target) for target in targets
                      if isinstance(target, ast.Attribute)
                      and target.attr in TELEMETRY
                      and not (isinstance(target.value, ast.Name)
                               and target.value.id == "self")}
    return found


class TestTelemetryHasOneRule:
    def test_only_the_metasystem_builds_live_telemetry(self, source_trees):
        """Every component takes ``metrics`` / ``spans`` at construction,
        null by default; the Metasystem builds the live ones and hands
        them down."""
        breaches = set()
        for module, tree in source_trees:
            if module.startswith("obs/"):
                continue
            breaches |= {(module, text)
                         for text in telemetry_wiring(module, tree)}
        assert not breaches, breaches

    def test_the_check_sees_each_breach(self):
        tree = ast.parse(
            "class Host:\n"
            "    def __init__(self, sim, metrics=None, *, spans=None):\n"
            "        self.metrics = metrics or MetricsRegistry()\n"
            "        self.spans = spans\n"
            "def wire(self, host):\n"
            "    host.spans = self.spans\n"
            "    self.tracer = obs.SpanTracer(clock)\n")
        assert telemetry_wiring("hosts/host_object.py", tree) == {
            "metrics=None", "spans=None", "MetricsRegistry()",
            "obs.SpanTracer(clock)", "host.spans"}
        assert telemetry_wiring("metasystem.py", tree) == {
            "metrics=None", "spans=None", "host.spans"}


#: the one module that builds Fig. 5 variant schedules
VARIANT_BUILDER = "schedule/schedule.py"


def variant_builds(tree):
    """``VariantSchedule(...)`` and ``.add_variant(...)`` calls, unparsed:
    a policy hands its ranked candidates to
    ``MasterSchedule.from_candidates`` instead."""
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ((isinstance(node.func, ast.Name)
                  and node.func.id == "VariantSchedule")
                 or (isinstance(node.func, ast.Attribute)
                     and node.func.attr in ("VariantSchedule",
                                            "add_variant")))]


class TestVariantsHaveOneBuilder:
    def test_only_the_schedule_module_builds_variants(self, source_trees):
        examples = [(f"examples/{path.name}",
                     ast.parse(path.read_text(encoding="utf-8")))
                    for path in sorted((ROOT / "examples").glob("*.py"))]
        breaches = {module for module, tree in [*source_trees, *examples]
                    if module != VARIANT_BUILDER and variant_builds(tree)}
        assert not breaches, breaches

    def test_the_check_sees_each_spelling(self):
        """The spellings the hand-written variant loops used."""
        tree = ast.parse(
            "master.add_variant(VariantSchedule(replacements, label='a'))\n"
            "rebuilt.add_variant(schedule.VariantSchedule({0: m}))\n"
            "variants.append(VariantSchedule(r))\n"
            "MasterSchedule.from_candidates(candidates, 'm', 'v-{}')\n")
        assert sorted(variant_builds(tree)) == [
            "VariantSchedule(r)",
            "VariantSchedule(replacements, label='a')",
            "master.add_variant(VariantSchedule(replacements, label='a'))",
            "rebuilt.add_variant(schedule.VariantSchedule({0: m}))",
            "schedule.VariantSchedule({0: m})"]


#: the Metasystem methods that switch a layer on, and the world
#: builders that may call none of them
LAYER_SWITCHES = ("enable_guardrails", "enable_economy", "start_service",
                  "start_chaos")
WORLD_BUILDERS = (("workload/testbed.py", "build_testbed"),
                  ("campaign.py", "standard_world"))
#: the TestbedSpec fields that once switched those layers on
LAYER_FIELDS = ("guardrails", "economy", "service", "chaos_profile",
                "chaos_seed", "chaos_horizon")


def layer_switches(tree, function):
    """The layer-switching calls made inside ``function``, unparsed."""
    [body] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == function]
    return [ast.unparse(node) for node in ast.walk(body)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in LAYER_SWITCHES]


class TestLayersSwitchOnOneWay:
    def test_world_builders_switch_no_layer_on(self, source_trees):
        trees = dict(source_trees)
        found = {function: layer_switches(trees[module], function)
                 for module, function in WORLD_BUILDERS}
        assert not any(found.values()), found

    def test_testbed_spec_has_no_layer_field(self):
        names = {f.name for f in fields(TestbedSpec)}
        assert not names & set(LAYER_FIELDS)

    def test_the_check_sees_each_switch(self):
        tree = ast.parse(
            "def build_testbed(spec):\n"
            "    meta = Metasystem()\n"
            "    if spec.economy:\n"
            "        meta.enable_economy()\n"
            "    meta.start_chaos(profile=spec.chaos_profile)\n"
            "    return meta\n")
        assert sorted(layer_switches(tree, "build_testbed")) == [
            "meta.enable_economy()",
            "meta.start_chaos(profile=spec.chaos_profile)"]


def called_names(tree, function):
    """The names of the plain functions ``function`` calls."""
    [body] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == function]
    return {node.func.id for node in ast.walk(body)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


class TestServiceCampaignsRunOneDriver:
    def test_gameday_declares_no_service_keyword(self):
        """The game day takes ``run_service``'s keywords (and defaults)
        through ``**service``; it declares only its own and the two
        every campaign has."""
        service = set(inspect.signature(run_service).parameters)
        gameday = inspect.signature(run_gameday).parameters
        assert service & set(gameday) == {"seed", "duration"}
        assert gameday["service"].kind is inspect.Parameter.VAR_KEYWORD

    def test_both_runners_reach_the_one_driver(self, source_trees):
        trees = dict(source_trees)
        runners = (("service/report.py", "run_service"),
                   ("recovery/gameday.py", "run_gameday"))
        for module, function in runners:
            assert "_run_tier" in called_names(trees[module], function)
            assert not layer_switches(trees[module], function)
        [switch] = layer_switches(trees["service/report.py"], "_run_tier")
        assert switch.startswith("meta.start_service(")


#: ``(module, class, method)`` run once per host: each may create no
#: function object, so every callback it wires is one shared function
PER_HOST_WIRING = (("metasystem.py", "Metasystem", "_wire_host"),
                   ("hosts/unix_host.py", "UnixHost", "__init__"))


def per_host_functions(tree, cls, method):
    """The lambdas and nested ``def``s inside ``cls.method``."""
    [body] = [item for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == cls
              for item in node.body
              if isinstance(item, ast.FunctionDef) and item.name == method]
    return [ast.unparse(node).splitlines()[0] for node in ast.walk(body)
            if node is not body
            and isinstance(node, (ast.Lambda, ast.FunctionDef,
                                  ast.AsyncFunctionDef))]


class TestPerHostObjectsAreLean:
    def test_per_host_objects_have_no_dict(self):
        """Everything a world holds once per host keeps its fields in
        ``__slots__``, for a Unix and a batch host alike."""
        meta = build_testbed(TestbedSpec(
            seed=0, n_domains=1, hosts_per_domain=2, platform_mix=1))
        meta.add_batch_host("cluster", meta.hosts[0].domain)
        for host in meta.hosts:
            for obj in (host, host.machine, host.attributes, host.rge,
                        *host.rge.triggers, host.reservations):
                assert not hasattr(obj, "__dict__"), type(obj).__name__

    def test_per_host_callbacks_are_shared(self):
        meta = build_testbed(TestbedSpec(
            seed=0, n_domains=1, hosts_per_domain=2, platform_mix=1))
        first, second = meta.hosts
        [push], [other] = first._push_targets, second._push_targets
        assert other is push
        assert ([t.guard for t in first.rge.triggers]
                == [t.guard for t in second.rge.triggers])

    def test_per_host_wiring_creates_no_function(self, source_trees):
        trees = dict(source_trees)
        found = {(module, cls, method): per_host_functions(
                     trees[module], cls, method)
                 for module, cls, method in PER_HOST_WIRING}
        assert not any(found.values()), found

    def test_the_check_sees_a_reintroduced_lambda_trigger(self):
        tree = ast.parse(
            "class UnixHost(HostObject):\n"
            "    def __init__(self, level=4.0):\n"
            "        self.rge.define_trigger(\n"
            "            'host.load.high',\n"
            "            lambda host: host.machine.load_average > level)\n"
            "        def push(h, now):\n"
            "            pass\n"
            "    def other(self):\n"
            "        return lambda: 0\n")
        assert sorted(per_host_functions(tree, "UnixHost", "__init__")) == [
            "def push(h, now):",
            "lambda host: host.machine.load_average > level"]


#: the registry calls that record a metric and the tracer calls that
#: open a span; the first argument is the name
METRIC_CALLS = ("count", "observe", "set_gauge", "gauge_fn", "time")
SPAN_CALLS = ("span", "span_if_active", "start_span", "record_span")


def telemetry_names(tree):
    """``(metric names, span names)`` a module passes as literals: a
    metric name to a ``METRIC_CALLS`` method of something called
    ``metrics``, a span name to a ``SPAN_CALLS`` method.  An f-string
    span name (``f"rpc:{name}"``, also inside ``sys.intern``) counts as
    its literal prefix followed by ``*``."""
    metrics, spans = set(), set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args
                and isinstance(node.func, ast.Attribute)):
            continue
        receiver = node.func.value
        receiver = (receiver.id if isinstance(receiver, ast.Name) else
                    receiver.attr if isinstance(receiver, ast.Attribute)
                    else None)
        first = node.args[0]
        if isinstance(first, ast.Call) and first.args:   # sys.intern(...)
            first = first.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            name = first.value
        elif (isinstance(first, ast.JoinedStr)
              and isinstance(first.values[0], ast.Constant)):
            name = first.values[0].value + "*"
        else:
            continue
        if node.func.attr in METRIC_CALLS and receiver == "metrics":
            metrics.add(name)
        elif node.func.attr in SPAN_CALLS:
            spans.add(name)
    return metrics, spans


def catalogue_names(doc, section):
    """The names in the first column of every table row of ``section``
    (a heading of ``doc``, up to the next heading of its level or
    above); ``rpc:<label>`` reads as ``rpc:*``."""
    level = section.split(" ")[0]
    body = doc.split(f"\n{section}\n", 1)[1]
    body = re.split(rf"\n#{{1,{len(level)}}} ", body, maxsplit=1)[0]
    names = set()
    for line in body.splitlines():
        if line.startswith("| `"):
            first_cell = line.split(" | ")[0]
            names |= {re.sub(r"<[a-z]+>$", "*", name)
                      for name in re.findall(r"`([^`]+)`", first_cell)}
    return names


class TestCataloguesMatchTheSource:
    """docs/observability.md lists every metric and span the source
    records, and nothing it does not."""

    @pytest.fixture(scope="class")
    def recorded(self, source_trees):
        metrics, spans = set(), set()
        for _, tree in source_trees:
            found_metrics, found_spans = telemetry_names(tree)
            metrics |= found_metrics
            spans |= found_spans
        return metrics, spans

    def test_metric_catalogue(self, recorded):
        listed = catalogue_names(read("docs/observability.md"),
                                 "## Metric catalogue")
        assert len(recorded[0]) > 90
        assert sorted(recorded[0] - listed) == []
        assert sorted(listed - recorded[0]) == []

    def test_span_catalogue(self, recorded):
        listed = catalogue_names(read("docs/observability.md"),
                                 "### Span catalogue")
        assert {"rpc:*", "transfer:*", "chaos:*"} <= recorded[1]
        assert sorted(recorded[1] - listed) == []
        assert sorted(listed - recorded[1]) == []

    def test_the_check_reads_each_spelling(self):
        tree = ast.parse(
            "self.metrics.count('service_e2e_seconds', ok='true')\n"
            "metrics.gauge_fn('g2', lambda: 0.0, shard=s)\n"
            "self.meta.metrics.time(\n    'enactor_step_seconds')\n"
            "text.count('\\n')\n"
            "self.spans.span_if_active(sys.intern(f'rpc:{name}'))\n"
            "tracer.record_span(f'chaos:{kind}', start=0.0, end=1.0)\n"
            "self.spans.span('placement', count=2)\n"
            "self._tracer.start_span(self._name)\n")
        assert telemetry_names(tree) == (
            {"service_e2e_seconds", "g2", "enactor_step_seconds"},
            {"rpc:*", "chaos:*", "placement"})
        doc = ("# Doc\n\n## Metric catalogue\n\n| name | kind |\n|---|---|\n"
               "| `a_total` | counter |\n\n### Span catalogue\n\n"
               "| `rpc:<label>` | — |\n| `v.store` / `v.get` | — |\n"
               "\n## Next\n| `not_here` | x |\n")
        assert catalogue_names(doc, "## Metric catalogue") == {
            "a_total", "rpc:*", "v.store", "v.get"}
        assert catalogue_names(doc, "### Span catalogue") == {
            "rpc:*", "v.store", "v.get"}


REGISTRY = "obs/registry.py"
#: the prometheus-client-style calls the registry no longer offers
INSTRUMENT_CALLS = ("labels", "counter", "gauge", "histogram")


def registry_private_names(tree):
    """The ``_``-prefixed names ``obs/registry.py`` defines: its private
    classes and functions and every ``self._x`` it touches."""
    return {node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            else node.attr
            for node in ast.walk(tree)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__"))
            or (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr.startswith("_")
                and not node.attr.startswith("__"))}


def registry_breaches(tree, private):
    """Calls of ``INSTRUMENT_CALLS`` methods, and reads of a registry
    private name off anything but ``self``, as ``(line, text)``."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in INSTRUMENT_CALLS):
            found.add((node.lineno, ast.unparse(node.func)))
        elif (isinstance(node, ast.Attribute) and node.attr in private
              and not (isinstance(node.value, ast.Name)
                       and node.value.id == "self")):
            found.add((node.lineno, ast.unparse(node)))
    return found


class TestMetricsHaveOneWayInAndOut:
    """Metrics are recorded by the registry's one-line calls and read
    through ``MetricsRegistry.series``: only ``obs/registry.py`` knows
    how the store is laid out."""

    def test_no_module_reaches_into_the_registry(self, source_trees):
        trees = dict(source_trees)
        private = registry_private_names(trees[REGISTRY])
        breaches = {(module, *breach)
                    for module, tree in source_trees if module != REGISTRY
                    for breach in registry_breaches(tree, private)}
        assert not breaches, sorted(breaches)

    def test_the_check_sees_each_breach(self):
        registry = ast.parse(
            "class _Leaf:\n"
            "    def __init__(self):\n"
            "        self._counts = []\n"
            "    def _series(self):\n"
            "        return self._counts\n")
        private = registry_private_names(registry)
        assert private == {"_Leaf", "_counts", "_series"}
        tree = ast.parse(
            "meta.metrics.gauge('g', labelnames=['shard']).labels(shard=s)\n"
            "for labels, leaf in instrument._series():\n"
            "    state = list(leaf._counts)\n"
            "self._counts = registry.counter('c')\n"
            "metrics.gauge_fn('g', fn, shard=s)\n")
        assert registry_breaches(tree, private) == {
            (1, "meta.metrics.gauge"),
            (1, "meta.metrics.gauge('g', labelnames=['shard']).labels"),
            (2, "instrument._series"), (3, "leaf._counts"),
            (4, "registry.counter")}
