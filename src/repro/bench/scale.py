"""The scale campaign: the ``BENCH_scale.json`` speed ledger.

Legion was "intended to connect many thousands, perhaps millions, of
hosts"; this harness measures how fast the *simulator itself* runs as the
testbed grows, so performance work on the hot paths (compiled query
plans, the Scheduler's viable-hosts cache, the kernel dispatch loop) is
pinned by a committed ledger instead of anecdotes.

Two measurements feed the ledger:

* **placement scale** — for each system size, a seeded testbed runs a
  fixed sequence of placement waves; the datapoint records both the
  *deterministic* outcome (placements, instances, virtual seconds,
  kernel events, messages, Collection queries, viable-cache hits) and
  the *machine-dependent* speed (wall seconds, events/sec);
* **query engines** — the E19a selective query evaluated over one large
  member set by all three engines: the tree-walking evaluator, the
  compiled closure plan, and the inverted-index Collection.

The split matters for CI: ``legion-sim ledger check scale`` regenerates a
small profile and fails if any *deterministic* field drifted from the
committed datapoint (the ledger is stale — someone changed behaviour
without regenerating) or if events/sec fell below ``min_ratio`` times
the committed speed (a real performance regression, with a generous
tolerance for machine variance).  All wall-clock numbers come from the
monotonic :func:`time.perf_counter`.

Regenerate the committed ledger with::

   legion-sim ledger write scale
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from ..collection.collection import Collection
from ..collection.indexing import IndexedCollection
from ..collection.query.compile import compile_query
from ..collection.query.evaluate import QueryFunctions, matches
from ..collection.query.parser import parse
from ..naming.loid import LOID
from .harness import ExperimentTable

__all__ = [
    "SCALE_QUERY",
    "DEFAULT_SIZES",
    "DEFAULT_MIN_RATIO",
    "ScaleDatapoint",
    "QueryEngineBench",
    "fill_hosts",
    "run_placement_scale",
    "run_query_engines",
    "build_report",
    "check_report",
    "placement_table",
    "engine_table",
]

#: the E19a "realistic big-system query": selective (platform + site),
#: every clause on the compiled fast path
SCALE_QUERY = ('$host_arch == "sparc" and $site == "site4" '
               'and $host_up == true and $host_load < 2')

#: committed-ledger system sizes (total hosts)
DEFAULT_SIZES = (64, 256, 1024)

#: regenerated events/sec may drop to this fraction of the committed
#: value before the ledger check fails — generous, because CI machines vary
DEFAULT_MIN_RATIO = 0.3

#: fields of a datapoint that must reproduce bit-for-bit on any machine
DETERMINISTIC_FIELDS = (
    "hosts", "waves", "per_wave", "seed", "scheduler", "placements",
    "instances", "virtual_s", "events", "messages", "collection_queries",
    "viable_cache_hits",
)


@dataclass
class ScaleDatapoint:
    """One system size's ledger entry (see DETERMINISTIC_FIELDS)."""

    hosts: int
    waves: int
    per_wave: int
    seed: int
    scheduler: str
    placements: int
    instances: int
    virtual_s: float
    events: int
    messages: int
    collection_queries: int
    viable_cache_hits: int
    #: machine-dependent: monotonic wall seconds for the wave loop
    wall_s: float
    #: machine-dependent: kernel events dispatched per wall second
    events_per_s: float


@dataclass
class QueryEngineBench:
    """The E19a query evaluated by all three engines (us/query)."""

    members: int
    matching: int
    reps: int
    treewalk_us: float
    compiled_us: float
    indexed_us: float
    compiled_speedup: float
    indexed_speedup: float


def fill_hosts(coll: Collection, n: int) -> None:
    """Populate a Collection with the E19a synthetic host records."""
    coll.require_auth = False
    archs = [("sparc", "SunOS"), ("mips", "IRIX"), ("x86", "Linux"),
             ("alpha", "OSF1")]
    for i in range(n):
        arch, os_name = archs[i % 4]
        coll.join(LOID(("d", "host", f"h{i}")), {
            "host_arch": arch, "host_os_name": os_name,
            "site": f"site{i % 64}",
            "host_up": True, "host_load": float(i % 4),
        })


# -- placement scale ---------------------------------------------------------
def run_placement_scale(sizes: Sequence[int] = DEFAULT_SIZES,
                        waves: int = 4, per_wave: int = 6,
                        seed: int = 0, scheduler: str = "irs",
                        wave_interval: float = 60.0,
                        ) -> List[ScaleDatapoint]:
    """Run the seeded wave workload at each system size.

    Sizes must be divisible by 4 (the testbed uses four domains).
    """
    from ..scheduler.base import ObjectClassRequest
    from ..workload.testbed import (
        TestbedSpec,
        build_testbed,
        implementations_for_all_platforms,
    )

    points: List[ScaleDatapoint] = []
    for n in sizes:
        if n % 4:
            raise ValueError(f"size {n} not divisible by 4 domains")
        meta = build_testbed(TestbedSpec(
            seed=seed, n_domains=4, hosts_per_domain=n // 4,
            platform_mix=3, background_load_mean=0.5))
        app = meta.create_class("scale-app",
                                implementations_for_all_platforms(),
                                work_units=100.0)
        sched = meta.make_scheduler(scheduler)
        t0 = perf_counter()
        v0 = meta.now
        e0 = meta.sim.events_processed
        m0 = meta.transport.messages_sent
        placements = instances = 0
        for _wave in range(waves):
            # each wave is a burst of two back-to-back requests (two
            # users submitting in the same instant): the second request
            # exercises the Scheduler's viable-hosts cache, while the
            # advance between waves refreshes host attributes and so
            # forces revalidation
            for _burst in range(2):
                outcome = sched.run(
                    [ObjectClassRequest(app, count=per_wave)])
                if outcome.ok:
                    placements += 1
                    instances += len(outcome.created)
            meta.advance(wave_interval)
        wall = perf_counter() - t0
        events = meta.sim.events_processed - e0
        points.append(ScaleDatapoint(
            hosts=n, waves=waves, per_wave=per_wave, seed=seed,
            scheduler=scheduler, placements=placements,
            instances=instances, virtual_s=meta.now - v0,
            events=events,
            messages=meta.transport.messages_sent - m0,
            collection_queries=sched.collection_queries,
            viable_cache_hits=sched.viable_cache_hits,
            wall_s=wall,
            events_per_s=(events / wall if wall > 0 else 0.0)))
    return points


# -- query engines -----------------------------------------------------------
def run_query_engines(members: int = 4096,
                      reps: int = 20) -> QueryEngineBench:
    """Time tree-walk vs compiled vs indexed on the E19a query.

    The tree-walk and compiled loops evaluate the identical attribute
    mappings, so the ratio isolates the engine; the indexed row times the
    full ``IndexedCollection.query`` (candidate narrowing + compiled
    residual evaluation).
    """
    scan = Collection(LOID(("d", "svc", "scale-scan")))
    idx = IndexedCollection(LOID(("d", "svc", "scale-idx")))
    fill_hosts(scan, members)
    fill_hosts(idx, members)
    matching = len(scan.query(SCALE_QUERY))
    assert matching == len(idx.query(SCALE_QUERY))

    ast = parse(SCALE_QUERY)
    fns = QueryFunctions()
    plan = compile_query(ast, fns)
    records = [scan.record_of(m).attributes for m in scan.members()]

    def timed(once, n=reps) -> float:
        once()  # warm caches outside the timed region
        t0 = perf_counter()
        for _ in range(n):
            once()
        return (perf_counter() - t0) / n * 1e6

    treewalk_us = timed(
        lambda: [r for r in records if matches(ast, r, fns)])
    plan_matches = plan.matches
    compiled_us = timed(
        lambda: [r for r in records if plan_matches(r)])
    indexed_us = timed(lambda: idx.query(SCALE_QUERY))
    return QueryEngineBench(
        members=members, matching=matching, reps=reps,
        treewalk_us=treewalk_us, compiled_us=compiled_us,
        indexed_us=indexed_us,
        compiled_speedup=(treewalk_us / compiled_us
                          if compiled_us > 0 else float("inf")),
        indexed_speedup=(treewalk_us / indexed_us
                         if indexed_us > 0 else float("inf")))


# -- the ledger --------------------------------------------------------------
def build_report(sizes: Sequence[int] = DEFAULT_SIZES,
                 waves: int = 4, per_wave: int = 6, seed: int = 0,
                 scheduler: str = "irs", members: int = 4096,
                 reps: int = 20) -> Dict[str, Any]:
    """Assemble the full BENCH_scale.json document."""
    points = run_placement_scale(sizes, waves=waves, per_wave=per_wave,
                                 seed=seed, scheduler=scheduler)
    engines = run_query_engines(members=members, reps=reps)
    return {
        "schema": 1,
        "min_ratio": DEFAULT_MIN_RATIO,
        "query": SCALE_QUERY,
        "sizes": [asdict(p) for p in points],
        "query_engines": asdict(engines),
    }


def report_to_json(report: Dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def check_report(committed: Dict[str, Any], fresh: Dict[str, Any],
                 min_ratio: Optional[float] = None) -> List[str]:
    """Compare a fresh run against the committed ledger.

    Returns a list of human-readable problems (empty = pass):

    * a fresh datapoint whose identity (hosts/waves/per_wave/seed/
      scheduler) is absent from the committed ledger, or any
      deterministic field that differs → the committed ledger is stale;
    * fresh events/sec below ``min_ratio`` x committed → regression;
    * the compiled engine slower than the acceptance floor (2x over
      tree-walk at >= 4096 members, 1.2x on smaller smoke profiles).
    """
    if min_ratio is None:
        min_ratio = float(committed.get("min_ratio", DEFAULT_MIN_RATIO))
    problems: List[str] = []

    def identity(p: Dict[str, Any]) -> tuple:
        return (p["hosts"], p["waves"], p["per_wave"], p["seed"],
                p["scheduler"])

    committed_points = {identity(p): p for p in committed.get("sizes", [])}
    for point in fresh.get("sizes", []):
        base = committed_points.get(identity(point))
        if base is None:
            problems.append(
                f"no committed datapoint for {point['hosts']} hosts "
                f"(waves={point['waves']}, per_wave={point['per_wave']}, "
                f"seed={point['seed']}, "
                f"scheduler={point['scheduler']}) — regenerate "
                f"BENCH_scale.json")
            continue
        for key in DETERMINISTIC_FIELDS:
            if base[key] != point[key]:
                problems.append(
                    f"{point['hosts']} hosts: committed {key}="
                    f"{base[key]!r} but this run produced "
                    f"{point[key]!r} — the ledger is stale, regenerate "
                    f"BENCH_scale.json")
        base_speed = float(base.get("events_per_s", 0.0))
        if base_speed > 0 and \
                point["events_per_s"] < min_ratio * base_speed:
            problems.append(
                f"{point['hosts']} hosts: events/sec regressed to "
                f"{point['events_per_s']:.0f} "
                f"(committed {base_speed:.0f}, tolerance floor "
                f"{min_ratio * base_speed:.0f})")

    engines = fresh.get("query_engines")
    if engines:
        floor = 2.0 if engines["members"] >= 4096 else 1.2
        if engines["compiled_speedup"] < floor:
            problems.append(
                f"compiled query plan only "
                f"{engines['compiled_speedup']:.2f}x over tree-walk at "
                f"{engines['members']} members (floor {floor}x)")
    return problems


# -- rendering ---------------------------------------------------------------
def placement_table(points: Sequence[Dict[str, Any]]) -> ExperimentTable:
    table = ExperimentTable(
        "scale — placement waves vs system size",
        ["hosts", "placements", "instances", "virtual s", "events",
         "messages", "queries", "cache hits", "wall s", "events/s"])
    for p in points:
        table.add(p["hosts"], p["placements"], p["instances"],
                  p["virtual_s"], p["events"], p["messages"],
                  p["collection_queries"], p["viable_cache_hits"],
                  p["wall_s"], p["events_per_s"])
    return table


def engine_table(engines: Dict[str, Any]) -> ExperimentTable:
    table = ExperimentTable(
        f"scale — E19a query engines at {engines['members']} members "
        f"(wall us/query)",
        ["engine", "us/query", "speedup vs tree-walk"])
    table.add("tree-walk", engines["treewalk_us"], 1.0)
    table.add("compiled", engines["compiled_us"],
              engines["compiled_speedup"])
    table.add("indexed", engines["indexed_us"],
              engines["indexed_speedup"])
    return table
