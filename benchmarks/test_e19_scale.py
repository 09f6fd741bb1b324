"""E19 (extension) — metasystem scale: towards "thousands of hosts".

Legion's stated ambition was thousands-to-millions of hosts.

(a) **Query engine cost** vs member count: the tree-walking evaluator
    against the compiled closure plan the Collection runs, on a
    selective query — compiled keeps per-record cost flat.  Timed here
    with the monotonic :func:`time.perf_counter`;
(b) **placement waves** vs system size: the scale campaign
    (:func:`repro.bench.run_scale`, the code behind ``BENCH_scale.json``)
    at its ledger sizes; every burst must place and the viable-hosts
    cache must absorb the burst lookups.
"""

from time import perf_counter

from conftest import run_once

from repro.bench import ExperimentTable, run_scale
from repro.collection.collection import Collection
from repro.collection.query.compile import compile_query
from repro.collection.query.evaluate import QueryFunctions, matches
from repro.collection.query.parser import parse
from repro.naming.loid import LOID

#: the "realistic big-system query": selective (platform + site), every
#: clause on the compiled fast path
SCALE_QUERY = ('$host_arch == "sparc" and $site == "site4" '
               'and $host_up == true and $host_load < 2')


def fill_hosts(coll: Collection, n: int) -> None:
    """Populate a Collection with ``n`` synthetic host records."""
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


def us_per_call(once, reps: int = 20) -> float:
    """Mean wall microseconds of ``once()``, after one warm-up call."""
    once()
    t0 = perf_counter()
    for _ in range(reps):
        once()
    return (perf_counter() - t0) / reps * 1e6


def engine_row(members: int) -> dict:
    """Tree-walk vs compiled on SCALE_QUERY (us/query).

    The two loops evaluate the identical attribute mappings, so their
    ratio isolates the engine."""
    scan = Collection(LOID(("d", "svc", "scale-scan")))
    fill_hosts(scan, members)
    matching = len(scan.query(SCALE_QUERY))
    ast = parse(SCALE_QUERY)
    fns = QueryFunctions()
    plan_matches = compile_query(ast, fns).matches
    records = [scan.record_of(m).attributes for m in scan.members()]
    treewalk = us_per_call(
        lambda: [r for r in records if matches(ast, r, fns)])
    compiled = us_per_call(lambda: [r for r in records if plan_matches(r)])
    return {"members": members, "matching": matching,
            "treewalk": treewalk, "compiled": compiled}


def query_scaling():
    rows = [engine_row(n) for n in (256, 1024, 4096)]
    table = ExperimentTable(
        "E19a — query cost vs members: tree-walk vs compiled "
        "(wall us/query)",
        ["members", "matching", "tree-walk", "compiled", "compiled x"])
    for r in rows:
        table.add(r["members"], r["matching"], r["treewalk"], r["compiled"],
                  r["treewalk"] / r["compiled"])
    return table, rows


def run():
    engines = query_scaling()
    t0 = perf_counter()
    report = run_scale(seed=19)
    return engines, report, perf_counter() - t0


def test_e19_scale(benchmark):
    (table, rows), report, wall_s = run_once(benchmark, run)
    table.print()
    print(report.summary())
    # engine ordering holds at every scale (exact wall-clock ratios
    # jitter, so only the ordering and one generous floor are asserted)
    for r in rows:
        assert r["compiled"] < r["treewalk"]
    # the acceptance floor: compiled is decisively faster at 4096 members
    assert rows[-1]["treewalk"] / rows[-1]["compiled"] >= 2.0
    # every wave placed, and the burst lookups ran on the cache
    assert report.problems() == []
    # three system sizes up to 1024 hosts run in interactive wall time
    assert wall_s < 15.0
