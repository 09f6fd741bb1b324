#!/usr/bin/env python3
"""The repo's performance benchmark: one rep, the whole suite, or a compare.

One rep (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 benchmarks/perf/run.py --workload place_closed --seed 7 \\
        --seconds 20 --trace 0

prints every metric by name with its unit, a ``#details`` line, and as its
last line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics from untraced rounds;
``--trace 1`` installs the external tracer (``trace.py``) and reports the
per-layer metrics, after checking that every traced round reproduced its
untraced twin's outcome exactly.

The suite (no ``--workload``) runs, per workload, three untraced reps and
one traced rep, each in a fresh process, checks that all reps share one
``sim_digest``, and with ``--out`` writes the numbers as JSON::

    python3 benchmarks/perf/run.py --seed 7 --out benchmarks/perf/baseline.json

``--compare A.json B.json`` judges suite B against suite A, metric by
metric: by ISSUE 11's bounds when both ran the same seed, by
``BENCHMARK.json``'s cross-seed bounds otherwise.

The script finds ``src/`` from its own location, so ``PYTHONPATH`` is
optional.  See README.md beside this file for what is measured and why.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BASELINE = HERE / "baseline.json"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{Path(__file__).name}: no src/repro under {ROOT}; "
             f"there is no program here to measure")
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def _sibling(name: str) -> Any:
    """Load ``<name>.py`` beside this file under a name that cannot
    collide (``trace`` is also a standard-library module)."""
    qualified = f"legion_perf_{name}"
    if qualified not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            qualified, HERE / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualified] = module
        spec.loader.exec_module(module)
    return sys.modules[qualified]


metrics = _sibling("metrics")
trace = _sibling("trace")
workloads = _sibling("workloads")

#: the suite's untraced reps per workload (the median is over these)
REPS = 3
#: fresh-interpreter set-up probes per untraced rep
SETUP_PROBES = 5


def environment() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform()}


# -- one rep --------------------------------------------------------------------
def probe_setup(workload: str, seed: int, scale: float) -> List[float]:
    """Host seconds from process spawn to 'world built, layers started',
    once per fresh interpreter."""
    samples = []
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", workload, "--seed", str(seed),
               "--scale", repr(scale)]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed for {workload} "
                               f"(exit {child.returncode})")
        samples.append(elapsed)
    return samples


def _setup(workload: Any, seed: int, k: int) -> Any:
    gc.collect()  # the previous round's world must not pad peak RSS
    return workload.setup(workloads.round_seed(
        seed, k if workload.fresh_world else 0))


def measure_untraced(workload: Any, seed: int, seconds: float) -> List[Any]:
    rounds: List[Any] = []
    state = None
    spent = 0.0
    while len(rounds) < workloads.REF_ROUNDS or spent < seconds:
        k = len(rounds)
        if k == 0 or workload.fresh_world:
            state = None
            state = _setup(workload, seed, k)
        result = workload.round(state, workloads.round_seed(seed, k))
        rounds.append(result)
        spent += result.wall_s
    return rounds


def measure_traced(workload: Any, seed: int, seconds: float,
                   trace_out: Optional[str]) -> Dict[str, Any]:
    """Alternate an untraced and a traced run of the same round until the
    budget is spent; the traced twin must reproduce the outcome."""
    totals = metrics.TraceTotals()
    traced_rounds: List[Any] = []
    problems: List[str] = []
    plain_state = traced_state = None
    first_tracer = None
    spent = 0.0
    while not traced_rounds or spent < seconds:
        k = len(traced_rounds)
        round_seed = workloads.round_seed(seed, k)
        rebuild = k == 0 or workload.fresh_world
        if rebuild:
            plain_state = traced_state = None
            plain_state = _setup(workload, seed, k)
        plain = workload.round(plain_state, round_seed)
        if workload.fresh_world:
            plain_state = None
        with trace.tracing() as tracer:
            if rebuild:
                traced_state = _setup(workload, seed, k)
            tracer.begin_timed()
            traced = workload.round(traced_state, round_seed, tracer)
            tracer.end_timed()
        if plain.outcome != traced.outcome:
            problems.append(f"round {k}: traced outcome differs from the "
                            f"untraced one (observing changed the result)")
        totals.add_round(
            traced.ops, plain.wall_s, tracer.summary(),
            counts={**tracer.counters(), **tracer.tally, **traced.extras},
            gauges={**tracer.gauges(), **traced.gauges})
        traced_rounds.append(traced)
        spent += plain.wall_s + traced.wall_s
        if trace_out and first_tracer is None:
            first_tracer = tracer  # later rounds' spans are dropped
    if first_tracer is not None:
        first_tracer.write_jsonl(trace_out)
    return {"totals": totals, "traced": traced_rounds, "problems": problems}


def run_rep(workload_name: str, seed: int, seconds: float, traced: bool,
            scale: float = 1.0, trace_out: Optional[str] = None
            ) -> Dict[str, Any]:
    """One rep of one workload: the contract's result plus details."""
    workload = workloads.WORKLOADS[workload_name](scale)
    details: Dict[str, Any] = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "scale": scale, "traced": traced, "env": environment()}
    if traced:
        run = measure_traced(workload, seed, seconds, trace_out)
        rounds = run["traced"]
        problems = run["problems"]
        values = metrics.layer_metrics(run["totals"])
        details["traced_wall_s"] = run["totals"].traced_wall_s
        details["layer_self_s"] = run["totals"].layer_self_s
        details["unattributed_s"] = run["totals"].unattributed_s
        reported = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics.PER_LAYER}
    else:
        setup_samples = probe_setup(workload_name, seed, scale)
        rounds = measure_untraced(workload, seed, seconds)
        problems = []
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reported = metrics.end_to_end_metrics(
            setup_samples, rounds, workloads.REF_ROUNDS, rss_mb)
        details["setup_samples_s"] = setup_samples
    reference = rounds[:workloads.REF_ROUNDS]
    for k, result in enumerate(rounds):
        problems.extend(f"round {k}: {p}" for p in result.problems)
    details.update({
        "rounds": len(rounds),
        "timed_wall_s": sum(r.wall_s for r in rounds),
        "round_ops": [r.ops for r in rounds],
        "round_wall_s": [r.wall_s for r in rounds],
        "round_digests": [workloads.digest([r.outcome]) for r in reference],
        "sim_digest": workloads.digest([r.outcome for r in reference]),
        "problems": problems,
        "extras": _sum_extras(reference),
        "metrics": reported,
    })
    result = {
        "correct": not problems,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in reported.items()},
    }
    return {"result": result, "details": details}


def _sum_extras(rounds: List[Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for r in rounds:
        for name, value in r.extras.items():
            out[name] = out.get(name, 0.0) + value
    return out


def print_rep(rep: Dict[str, Any]) -> None:
    details = rep["details"]
    print(f"# {details['workload']} seed={details['seed']} "
          f"traced={int(details['traced'])} rounds={details['rounds']} "
          f"timed_wall_s={details['timed_wall_s']:.3f} "
          f"sim_digest={details['sim_digest'][:16]}")
    for name, m in details["metrics"].items():
        count = f"  n={m['n']}" if "n" in m else ""
        print(f"{name:<36} {m['value']:>16.6g} {m['unit']}{count}")
    for problem in details["problems"]:
        print(f"CHECK FAILED: {problem}")
    print("#details " + json.dumps(details, sort_keys=True))
    print(json.dumps(rep["result"]))


# -- the suite --------------------------------------------------------------------
def _spawn_rep(workload: str, seed: int, seconds: float, traced: bool,
               scale: float, trace_out: Optional[str]) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds),
               "--trace", "1" if traced else "0", "--scale", repr(scale)]
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    details = [json.loads(line[len("#details "):]) for line in lines
               if line.startswith("#details ")]
    if not details:  # exit 1 with a result means a failed check, not this
        raise RuntimeError(f"{workload}: rep printed no result "
                           f"(exit {done.returncode})")
    return {"result": json.loads(lines[-1]), "details": details[0]}


def run_suite(seed: int, seconds: float, scale: float,
              trace_prefix: Optional[str]) -> Dict[str, Any]:
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    comparable = (baseline.get("seed") == seed
                  and baseline.get("scale") == scale)
    doc: Dict[str, Any] = {"env": environment(), "seed": seed,
                           "seconds": seconds, "scale": scale,
                           "workloads": {}}
    for name in workloads.WORKLOADS:
        plain = [_spawn_rep(name, seed, seconds, False, scale, None)
                 for _ in range(REPS)]
        traced = _spawn_rep(
            name, seed, seconds, True, scale,
            f"{trace_prefix}.{name}.spans.jsonl" if trace_prefix else None)
        problems = [p for rep in plain + [traced]
                    for p in rep["details"]["problems"]]
        digests = {rep["details"]["sim_digest"] for rep in plain}
        if len(digests) != 1:
            problems.append(f"reps disagree on sim_digest: {sorted(digests)}")
        plain_rounds = plain[0]["details"]["round_digests"]
        traced_rounds = traced["details"]["round_digests"]
        shared = min(len(plain_rounds), len(traced_rounds))
        if plain_rounds[:shared] != traced_rounds[:shared]:
            problems.append("the traced rep's rounds differ from the "
                            "untraced reps' rounds")
        sim_digest = plain[0]["details"]["sim_digest"]
        before = baseline.get("workloads", {}).get(name, {}).get(
            "sim_digest") if comparable else None
        entry = {
            "correct": not problems
            and all(rep["result"]["correct"] for rep in plain + [traced]),
            "problems": problems,
            "attempted": [rep["result"]["attempted"] for rep in plain],
            "failed": [rep["result"]["failed"] for rep in plain],
            "sim_digest": sim_digest,
            "digest_changed": (None if before is None
                               else before != sim_digest),
            "end_to_end": {}, "per_layer": {},
            "extras": plain[0]["details"]["extras"],
        }
        for m in metrics.END_TO_END:
            values = [rep["result"]["metrics"][m["name"]]["value"]
                      for rep in plain]
            entry["end_to_end"][m["name"]] = {
                "median": statistics.median(values), "min": min(values),
                "max": max(values), "n": len(values),
                "samples": plain[0]["details"]["metrics"][m["name"]]["n"]}
        for m in metrics.PER_LAYER:
            entry["per_layer"][m["name"]] = \
                traced["result"]["metrics"][m["name"]]["value"]
        doc["workloads"][name] = entry
        print_suite_entry(name, entry)
    return doc


def print_suite_entry(name: str, entry: Dict[str, Any]) -> None:
    changed = {None: "no baseline", True: "CHANGED", False: "unchanged"}
    print(f"== {name}: {'correct' if entry['correct'] else 'INCORRECT'}; "
          f"sim_digest {entry['sim_digest'][:16]} "
          f"({changed[entry['digest_changed']]})")
    for m in metrics.END_TO_END:
        row = entry["end_to_end"][m["name"]]
        print(f"  {m['name']:<34} {row['median']:>14.6g} {m['unit']:<6} "
              f"min {row['min']:.6g} max {row['max']:.6g} n={row['n']} "
              f"samples={row['samples']}")
    for m in metrics.PER_LAYER:
        print(f"  {m['name']:<34} {entry['per_layer'][m['name']]:>14.6g} "
              f"{m['unit']}")
    for problem in entry["problems"]:
        print(f"  CHECK FAILED: {problem}")


# -- compare ------------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """Judge suite B against suite A; returns the number of regressions."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    same_seed = "seed" in a and (a["seed"], a.get("scale")) == (
        b.get("seed"), b.get("scale"))
    print("# same seed and scale: ISSUE 11's bounds" if same_seed else
          "# different seeds: BENCHMARK.json's cross-seed bounds")
    regressed = 0
    print(f"{'workload':<18} {'metric':<12} {'A median':>12} {'B median':>12} "
          f"{'B/A':>8} {'bound':>10}  verdict")
    for name, in_a in a["workloads"].items():
        in_b = b["workloads"].get(name)
        if in_b is None:
            print(f"{name:<18} missing from {path_b}: regressed")
            regressed += 1
            continue
        for spec in metrics.END_TO_END:
            metric = spec["name"]
            kind, bound = (metrics.SAME_SEED_BOUNDS[metric] if same_seed
                           else ("relative", spec["bound"]))
            row_a = in_a["end_to_end"].get(metric)
            row_b = in_b["end_to_end"].get(metric)
            if row_a is None or row_b is None:
                print(f"{name:<18} {metric:<12} missing: regressed")
                regressed += 1
                continue
            verdict = _verdict(metric, spec["better"], kind, bound,
                               row_a, row_b)
            regressed += verdict == "regressed"
            ratio = (f"{row_b['median'] / row_a['median']:.3f}x"
                     if row_a["median"] else "n/a")
            print(f"{name:<18} {metric:<12} {row_a['median']:>12.6g} "
                  f"{row_b['median']:>12.6g} {ratio:>8} "
                  f"{bound:>6.3f} {kind[:3]}  {verdict}")
        if same_seed:  # other seeds are other inputs: nothing to compare
            same = in_a["sim_digest"] == in_b["sim_digest"]
            print(f"{name:<18} sim_digest   "
                  f"{'identical' if same else 'DIFFERS: behaviour changed'}")
    return regressed


def _verdict(metric: str, better: str, kind: str, bound: float,
             a: Dict[str, Any], b: Dict[str, Any]) -> str:
    allowed = bound if kind == "absolute" else bound * abs(a["median"])
    if metric == "setup_s":
        allowed = max(allowed, metrics.SETUP_ABSOLUTE_FLOOR_S)
    worse_by = b["median"] - a["median"]
    if better == "higher":
        worse_by = -worse_by
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    widest = max(row["max"] - row["min"] for row in (a, b))
    if widest > allowed and overlap:
        return "unresolved"
    return "regressed" if worse_by > allowed else "ok"


# -- command line ---------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run one rep of this workload (contract mode); "
                             "omit to run the suite")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="host seconds of timed work per rep")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None,
                        help="one rep: write the first traced round's spans "
                             "here (JSONL); suite: the prefix of one "
                             "<prefix>.<workload>.spans.jsonl per workload")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every size uniformly (tests use 0.05)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", default=None,
                        help="suite: write the numbers here as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return 1 if compare(*args.compare) else 0
    if args.setup_probe:
        workload = workloads.WORKLOADS[args.workload](args.scale)
        workload.setup(workloads.round_seed(args.seed, 0))
        print("ready", flush=True)
        os._exit(0)  # the parent timed the set-up; skip the teardown
    if args.workload:
        rep = run_rep(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.scale, args.trace_out)
        print_rep(rep)
        return 0 if rep["result"]["correct"] else 1
    doc = run_suite(args.seed, args.seconds, args.scale, args.trace_out)
    if args.out:
        Path(args.out).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if all(w["correct"] for w in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
