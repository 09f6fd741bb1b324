"""``legion-sim`` — command-line driver for simulated metasystem scenarios.

Real Legion shipped user tools (``legion_ls``, ``legion_run``, ...); this
module provides their simulated analogues over a reproducible testbed:

.. code-block:: console

   $ legion-sim hosts --domains 2 --hosts 4
   $ legion-sim context --domains 2 --hosts 4
   $ legion-sim query '$host_load < 1 and $host_arch == "sparc"'
   $ legion-sim run --count 6 --scheduler irs --work 200
   $ legion-sim run --count 4 --trace-out trace.json
   $ legion-sim bench --scheduler random --scheduler load --count 8
   $ legion-sim metrics --count 4 --format table
   $ legion-sim trace critical-path --count 4
   $ legion-sim trace chrome --count 4 --out trace.json
   $ legion-sim run --shards 3 --replication 2 --count 4
   $ legion-sim federation --shards 3 --gossip-interval 30 --wait
   $ legion-sim run --chaos-profile hosts --chaos-seed 7 --wait
   $ legion-sim chaos --profile lossy --compare-retry
   $ legion-sim chaos --profile mixed --retry --out report.json
   $ legion-sim chaos --profile hosts --retry --guardrails
   $ legion-sim guardrails --compare --out BENCH_guardrails.json
   $ legion-sim scale --out BENCH_scale.json
   $ legion-sim scale --sizes 16,32 --scheduler random
   $ legion-sim metrics --quantiles p50,p90,p99
   $ legion-sim trace steps --count 6
   $ legion-sim slo --window 30 --chaos-profile hosts --chaos-seed 1
   $ legion-sim slo --guardrails --chaos-profile hosts --out slo.json
   $ legion-sim slo --compare-guardrails --chaos-profile hosts
   $ legion-sim run --count 4 --scheduler cost
   $ legion-sim economy --mode cost --users 3 --budget 100
   $ legion-sim economy --mode time --chaos-profile lossy --retry
   $ legion-sim economy --compare-baselines --out BENCH_economy.json
   $ legion-sim serve --users 1000000 --duration 240 --workers 4
   $ legion-sim serve --queue-cap 0 --allow-exhausted
   $ legion-sim serve --compare-shedding --out BENCH_service.json
   $ legion-sim gameday --seed 7 --kills 2
   $ legion-sim gameday --checkpoint-at 180 --lease-ttl 20
   $ legion-sim gameday --compare-restore --out BENCH_gameday.json
   $ legion-sim ledger check --all
   $ legion-sim ledger write gameday

``repro-cli`` is an alias of the same entry point.

Every invocation builds the same seeded testbed (``--seed``), so outputs
are reproducible and scriptable.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Optional, Sequence, Tuple

from ..bench.harness import ExperimentTable
from ..errors import LegionError
from ..metasystem import SCHEDULER_KINDS, Metasystem
from ..scheduler.base import ObjectClassRequest
from ..service.config import BACKPRESSURE_MODES
from ..workload.applications import wait_for_completion
from ..workload.testbed import (
    TestbedSpec,
    build_testbed,
    implementations_for_all_platforms,
)

__all__ = ["main", "build_parser"]


def _build_meta(args: argparse.Namespace) -> Metasystem:
    """The seeded testbed, with the layers the subcommand's flags ask
    for switched on: guardrails, then a chaos campaign."""
    meta = build_testbed(TestbedSpec(
        n_domains=args.domains,
        hosts_per_domain=args.hosts,
        platform_mix=args.platforms,
        background_load_mean=args.load,
        seed=args.seed,
        federation_shards=args.shards,
        federation_replication=args.replication,
        gossip_interval=args.gossip_interval,
        federation_cache_ttl=args.cache_ttl,
        sampler_window=getattr(args, "sampler_window", 0.0)))
    if getattr(args, "guardrails", False):
        meta.enable_guardrails()
    if getattr(args, "chaos_profile", ""):
        meta.start_chaos(profile=args.chaos_profile,
                         chaos_seed=args.chaos_seed,
                         horizon=getattr(args, "chaos_horizon", 0.0) or None)
    return meta


def _build_workload(args: argparse.Namespace, out, kind: str = ""):
    """Seeded testbed + the standard ``cli-app`` class + a scheduler —
    the setup every workload subcommand (run / trace / metrics /
    federation / bench) shares.  Returns ``(meta, app, scheduler)``, or
    ``None`` after printing the error when the scheduler kind is
    unknown (callers translate that into exit status 2)."""
    meta = _build_meta(args)
    app = meta.create_class("cli-app",
                            implementations_for_all_platforms(),
                            work_units=args.work)
    try:
        scheduler = meta.make_scheduler(kind or args.scheduler)
    except ValueError as exc:
        print(str(exc), file=out)
        return None
    return meta, app, scheduler


def _place_workload(args: argparse.Namespace, out):
    """:func:`_build_workload`, one placement of ``--count`` instances,
    and under ``--wait`` the wait for them: ``(meta, outcome)``, or
    ``None`` for an unknown scheduler kind."""
    workload = _build_workload(args, out)
    if workload is None:
        return None
    meta, app, scheduler = workload
    outcome = scheduler.run([ObjectClassRequest(app, count=args.count)])
    if outcome.ok and args.wait:
        wait_for_completion(meta, app, outcome.created)
    return meta, outcome


#: parsed flag -> runner keyword, for every flag that campaign-style
#: subcommands share through an argument group
_RUNNER_KWARGS = (
    ("seed", "seed"), ("domains", "n_domains"),
    ("hosts", "hosts_per_domain"), ("platforms", "platform_mix"),
    ("load", "background_load"), ("waves", "waves"), ("count", "per_wave"),
    ("work", "work"), ("wave_interval", "wave_interval"),
    ("users", "users"), ("duration", "duration"), ("workers", "workers"),
    ("queue_cap", "queue_cap"), ("backpressure", "backpressure"),
    ("rate", "requests_per_user_hour"), ("surge", "surge_multiplier"),
    ("host_slots", "host_slots"),
)


def _campaign_kwargs(args: argparse.Namespace, **extra) -> dict:
    """Testbed-shape, wave and service-tier kwargs shared by every
    campaign-style subcommand (chaos / guardrails / slo / economy /
    serve / gameday), so each runner call starts from one dict instead
    of re-assembling the same spec by hand.  A knob is included only
    when the subcommand defines it; ``extra`` layers on the
    subcommand-specific ones."""
    kwargs = {key: getattr(args, dest) for dest, key in _RUNNER_KWARGS
              if hasattr(args, dest)}
    kwargs.update(extra)
    return kwargs


def cmd_hosts(args: argparse.Namespace, out) -> int:
    meta = _build_meta(args)
    table = ExperimentTable("hosts", ["name", "domain", "arch", "os",
                                      "cpus", "speed", "load",
                                      "slots free"])
    for host in meta.hosts:
        spec = host.machine.spec
        table.add(host.machine.name, host.domain, spec.arch, spec.os_name,
                  spec.cpus, spec.speed,
                  round(host.machine.load_average, 2), host.free_slots)
    table.print(out)
    return 0


def cmd_vaults(args: argparse.Namespace, out) -> int:
    meta = _build_meta(args)
    table = ExperimentTable("vaults", ["name", "domain", "capacity (GB)",
                                       "OPRs"])
    for vault in meta.vaults:
        table.add(vault.location.node_id, vault.location.domain,
                  vault.capacity_bytes / 1e9, vault.opr_count())
    table.print(out)
    return 0


def cmd_context(args: argparse.Namespace, out) -> int:
    meta = _build_meta(args)
    for path, loid in meta.context.walk():
        print(f"{path:32s} {loid}", file=out)
    return 0


def cmd_query(args: argparse.Namespace, out) -> int:
    meta = _build_meta(args)
    try:
        records = meta.collection.query(args.expression)
    except Exception as exc:
        print(f"query error: {exc}", file=out)
        return 2
    for record in records:
        print(f"{record.get('host_name', '?'):16s} {record.member}",
              file=out)
    print(f"{len(records)} record(s)", file=out)
    return 0


def cmd_run(args: argparse.Namespace, out) -> int:
    workload = _build_workload(args, out)
    if workload is None:
        return 2
    meta, app, scheduler = workload
    outcome = scheduler.run([ObjectClassRequest(app, count=args.count)])
    if not outcome.ok:
        print(f"placement failed: {outcome.detail}", file=out)
        return 1
    print(f"placed {len(outcome.created)} instance(s) via "
          f"{args.scheduler} in {outcome.elapsed * 1e3:.1f} virtual ms "
          f"({outcome.collection_queries} Collection queries)", file=out)
    for mapping in outcome.feedback.reserved_entries:
        print(f"  {mapping}", file=out)
    if args.wait:
        n, t = wait_for_completion(meta, app, outcome.created)
        print(f"{n}/{len(outcome.created)} completed by virtual "
              f"t={t:.1f}s", file=out)
    if meta.chaos is not None:
        meta.chaos.teardown()
        stats = meta.chaos.stats()
        print(f"chaos: {sum(stats['injected'].values())} fault(s) "
              f"injected, {stats['jobs_lost']} job(s) lost, "
              f"{len(stats['residual_faults'])} residual after teardown",
              file=out)
    if args.trace:
        from ..bench.sequence import protocol_trace
        print(file=out)
        print(protocol_trace(meta.spans.spans, limit=args.trace), file=out)
    if args.trace_out:
        from ..obs.trace_export import (chrome_trace_json, group_by_trace,
                                        spans_to_jsonl)
        if args.trace_out.endswith(".jsonl"):
            text = spans_to_jsonl(meta.spans.spans)
        else:
            text = chrome_trace_json(meta.spans.spans, indent=2)
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(meta.spans.spans)} span(s) covering "
              f"{len(group_by_trace(meta.spans.spans))} trace(s) to "
              f"{args.trace_out}",
              file=out)
    return 0


def cmd_trace(args: argparse.Namespace, out) -> int:
    """Run a seeded workload and analyse/export its span traces."""
    from ..obs.trace_export import (
        aggregate_step_latencies,
        chrome_trace_json,
        group_by_trace,
        render_critical_path_report,
        render_step_aggregate,
        render_step_table,
        render_tree,
        spans_to_jsonl,
    )
    placed = _place_workload(args, out)
    if placed is None:
        return 2
    meta, outcome = placed
    spans = meta.spans.spans
    if args.mode == "tree":
        text = render_tree(spans)
    elif args.mode == "summary":
        text = render_step_table(
            spans,
            title=f"span latency: {args.count} x {args.work:.0f}-unit "
                  f"tasks via {args.scheduler} (seed {args.seed})")
    elif args.mode == "critical-path":
        text = render_critical_path_report(spans)
    elif args.mode == "steps":
        text = render_step_aggregate(
            aggregate_step_latencies(spans),
            title=f"cross-trace step latency: {args.count} x "
                  f"{args.work:.0f}-unit tasks via {args.scheduler} "
                  f"(seed {args.seed})")
    else:  # chrome
        text = chrome_trace_json(spans, indent=2)
    if args.out:
        if args.out.endswith(".jsonl") and args.mode == "chrome":
            text = spans_to_jsonl(spans)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.mode} output for {len(group_by_trace(spans))} "
              f"trace(s) to {args.out}", file=out)
    else:
        print(text, file=out)
    return 0 if outcome.ok else 1


def _parse_quantiles(text: str) -> tuple:
    """Parse ``p50,p90,p99``-style quantile lists (bare floats work too)."""
    quantiles = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            q = float(token[1:]) / 100.0 if token.lower().startswith("p") \
                else float(token)
        except ValueError:
            raise ValueError(f"bad quantile {token!r}: expected e.g. "
                             f"p50,p90,p99") from None
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile {token!r} out of range (0, 1)")
        quantiles.append(q)
    if not quantiles:
        raise ValueError("no quantiles given")
    return tuple(quantiles)


def cmd_metrics(args: argparse.Namespace, out) -> int:
    """Run a seeded workload and render the metrics snapshot."""
    from ..obs import (
        build_snapshot,
        render_report,
        snapshot_to_json,
        snapshot_to_prometheus,
    )
    placed = _place_workload(args, out)
    if placed is None:
        return 2
    meta, outcome = placed
    try:
        quantiles = _parse_quantiles(args.quantiles)
    except ValueError as exc:
        print(str(exc), file=out)
        return 2
    snapshot = build_snapshot(meta.metrics)
    if args.format == "json":
        print(snapshot_to_json(snapshot, indent=2), file=out)
    elif args.format == "prom":
        print(snapshot_to_prometheus(snapshot), end="", file=out)
    else:
        print(render_report(
            snapshot,
            title=f"metrics: {args.count} x {args.work:.0f}-unit tasks "
                  f"via {args.scheduler} (seed {args.seed})",
            quantiles=quantiles), file=out)
    return 0 if outcome.ok else 1


def cmd_bench(args: argparse.Namespace, out) -> int:
    table = ExperimentTable(
        f"scheduler comparison: {args.count} x {args.work:.0f}-unit tasks",
        ["scheduler", "ok", "makespan (s)", "sched latency (ms)"])
    for kind in args.scheduler or ["random", "irs", "load"]:
        workload = _build_workload(args, out, kind=kind)
        if workload is None:
            return 2
        meta, app, scheduler = workload
        outcome = scheduler.run([ObjectClassRequest(app,
                                                    count=args.count)])
        makespan = float("nan")
        if outcome.ok:
            n, t = wait_for_completion(meta, app, outcome.created)
            if n == len(outcome.created):
                makespan = t
        table.add(kind, outcome.ok, makespan, outcome.elapsed * 1e3)
    table.print(out)
    return 0


def cmd_federation(args: argparse.Namespace, out) -> int:
    """Run a seeded federated workload and print ring/gossip stats."""
    if args.shards < 2:
        args.shards = 3  # this subcommand only makes sense federated
    placed = _place_workload(args, out)
    if placed is None:
        return 2
    meta, outcome = placed

    router = meta.collection
    ring = router.ring
    table = ExperimentTable(
        f"ring layout: {args.shards} shards, replication "
        f"{router.replication} (seed {args.seed})",
        ["shard", "vnodes", "arc %", "members", "home members"])
    fractions = ring.arc_fractions()
    layout = ring.layout()
    for shard in meta.collection_shards:
        home = sum(1 for m in shard.collection.members()
                   if shard.is_home(m))
        table.add(shard.shard_id, layout[shard.shard_id],
                  round(100.0 * fractions[shard.shard_id], 1),
                  len(shard), home)
    table.print(out)

    print(file=out)
    placement = ExperimentTable(
        "replica placement (hosts)",
        ["member", "home", "replicas"])
    for host in meta.hosts:
        plist = ring.preference_list(str(host.loid), router.replication)
        placement.add(host.machine.name, plist[0], " ".join(plist[1:]))
    placement.print(out)

    print(file=out)
    print("query routing:", file=out)
    print(f"  queries served      {router.queries_served}", file=out)
    print(f"  partial queries     {router.partial_queries}", file=out)
    print(f"  healthy shards      {len(router.healthy_shards())}/"
          f"{len(router.shards)}", file=out)
    cache = router.cache_stats()
    print(f"  cache hit ratio     {cache['hit_ratio']:.2f} "
          f"({cache['hit']:.0f} hits / {cache['miss']:.0f} misses / "
          f"{cache['expired']:.0f} expired)", file=out)
    print(f"  mean staleness      {router.mean_staleness():.1f}s",
          file=out)
    if meta.gossip is not None:
        print("gossip:", file=out)
        print(f"  rounds              {meta.gossip.rounds}", file=out)
        print(f"  records exchanged   {meta.gossip.records_exchanged}",
              file=out)
        print(f"  bytes exchanged     {meta.gossip.bytes_exchanged}",
              file=out)
    else:
        print("gossip: disabled (--gossip-interval 0)", file=out)
    return 0 if outcome.ok else 1


def _campaign(args: argparse.Namespace, out, runner: Callable[..., Any],
              kwargs: dict, detail: str = "", gate: bool = True) -> int:
    """The one body behind every campaign subcommand: run, print the
    summary (plus the ``detail`` variant's own, for a comparison), write
    ``--out``, print each ``problems()`` line, and exit 0 / 1 — or 2
    when the runner rejects its arguments.  ``gate=False`` reports
    without judging (``--allow-exhausted``)."""
    try:
        result = runner(**kwargs)
    except (LegionError, ValueError) as exc:
        print(f"{args.command} error: {exc}", file=out)
        return 2
    print(result.summary(), file=out)
    if detail:
        print(file=out)
        print(result.reports[detail].summary(), file=out)
    if args.out:
        result.write(args.out)
        print(f"wrote {result.label} to {args.out}", file=out)
    problems = result.problems() if gate else []
    for problem in problems:
        print(f"ERROR: {problem}", file=out)
    return 1 if problems else 0


def cmd_chaos(args: argparse.Namespace, out) -> int:
    """Run a seeded fault-injection campaign and report resilience; the
    exit status is nonzero if any fault survives teardown."""
    from ..chaos.campaign import run_campaign, run_retry_comparison
    kwargs = _campaign_kwargs(
        args, profile=args.profile, chaos_seed=args.chaos_seed,
        scheduler=args.scheduler, horizon=args.horizon or None,
        shards=args.shards, guardrails=args.guardrails)
    if args.compare_retry:
        return _campaign(args, out, run_retry_comparison, kwargs)
    return _campaign(args, out, run_campaign,
                     dict(kwargs, retry=args.retry))


def cmd_guardrails(args: argparse.Namespace, out) -> int:
    """Benchmark the guardrails layer against the bare baseline.

    The identical seeded campaign runs twice — guardrails+retries and
    bare — and the exit status is nonzero if guardrails *regressed*
    survival (``--compare`` prints the table alone, without the full
    guardrails-mode report).
    """
    from ..guardrails.compare import run_comparison
    kwargs = _campaign_kwargs(
        args, profile=args.profile, chaos_seed=args.chaos_seed,
        scheduler=args.scheduler, horizon=args.horizon or None,
        shards=args.shards, include_events=args.events)
    return _campaign(args, out, run_comparison, kwargs,
                     detail="" if args.compare else "guardrails")


def cmd_economy(args: argparse.Namespace, out) -> int:
    """Run a seeded computational-economy campaign: per-user budgets and
    deadlines, market ask pricing, and reservation auctions.

    With ``--compare-baselines`` (the headline mode) the identical seeded
    world is replayed under the economy scheduler and each baseline; the
    exit status is nonzero unless the economy beats Random *and* IRS on
    both deadline-miss rate and total metered cost.
    """
    from ..economy.campaign import run_economy, run_economy_comparison
    kwargs = _campaign_kwargs(
        args, mode=args.mode, chaos_profile=args.chaos_profile or None,
        chaos_seed=args.chaos_seed, guardrails=args.guardrails,
        retry=args.retry, budget=args.budget, deadline=args.deadline,
        deadline_safety=args.deadline_safety)
    if args.compare_baselines:
        return _campaign(args, out, run_economy_comparison, kwargs,
                         detail="economy")
    return _campaign(args, out, run_economy,
                     dict(kwargs, scheduler=args.scheduler))


def cmd_serve(args: argparse.Namespace, out) -> int:
    """Run the live service tier — request gateway, bounded placement
    queue, worker pool — under seeded open-loop diurnal/bursty traffic
    with a deterministic overload surge, and report per-request e2e
    latency joined with the SLO engine's burn-rate verdicts.

    With ``--compare-shedding`` (the headline mode) the identical seeded
    overload runs twice — bounded backlog (shedding on) vs unbounded —
    and the exit status is nonzero unless every gate row of
    ``ServiceComparison.claims`` holds.
    """
    from ..service.report import run_service, run_service_comparison
    kwargs = _campaign_kwargs(args, scheduler=args.scheduler,
                              slo_threshold=args.slo_threshold)
    if args.compare_shedding:
        return _campaign(args, out, run_service_comparison, kwargs,
                         detail="shedding")
    return _campaign(args, out, run_service, kwargs,
                     gate=not args.allow_exhausted)


def cmd_gameday(args: argparse.Namespace, out) -> int:
    """Run a recovery game day: chaos kills workers/hosts/links under
    live service traffic while the journal/lease/Supervisor machinery
    keeps every request owned, and the report grades ground truth —
    lost requests and duplicate placements must both be zero, with at
    least one orphan actually recovered.

    With ``--compare-restore`` (the headline mode) the identical seeded
    game day runs twice — straight through, then torn down mid-run and
    restored from a checkpoint — and the exit status is nonzero unless
    both runs pass *and* their report cores match byte for byte.
    """
    from ..recovery import run_gameday, run_gameday_comparison
    kwargs = _campaign_kwargs(
        args, scheduler=args.scheduler, kills=args.kills,
        lease_ttl=args.lease_ttl,
        heartbeat_interval=args.heartbeat_interval,
        checkpoint_at=args.checkpoint_at or None)
    return _campaign(args, out,
                     run_gameday_comparison if args.compare_restore
                     else run_gameday, kwargs)


def cmd_slo(args: argparse.Namespace, out) -> int:
    """Run a seeded workload under windowed sampling and report SLO
    health: error budgets, burn-rate alerts, breached-window exemplar
    traces, and the critical-path steps behind them.

    The exit status is nonzero when any error budget is exhausted
    (suppress with ``--allow-exhausted``); two identical seeded runs
    produce byte-identical reports.
    """
    import json

    from ..obs.report import health_report_to_json, render_health_report
    from ..obs.slo import specs_from_dict

    if args.window <= 0:
        print(f"bad --window {args.window:g}: must be > 0", file=out)
        return 2
    specs = None
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                specs = specs_from_dict(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            print(f"bad --spec {args.spec!r}: {exc}", file=out)
            return 2

    if args.compare_guardrails:
        from ..guardrails.compare import run_comparison
        return _campaign(args, out, run_comparison, _campaign_kwargs(
            args, profile=args.chaos_profile or "hosts",
            chaos_seed=args.chaos_seed, scheduler=args.scheduler,
            shards=args.shards, sampler_window=args.window),
            gate=not args.allow_exhausted)

    args.sampler_window = args.window
    try:
        workload = _build_workload(args, out)
    except LegionError as exc:
        print(f"slo error: {exc}", file=out)
        return 2
    if workload is None:
        return 2
    meta, app, scheduler = workload
    if args.retry:
        meta.enable_retries()
    for _wave in range(args.waves):
        try:
            scheduler.run([ObjectClassRequest(app, count=args.count)])
        except LegionError:
            pass
        meta.advance(args.wave_interval)
    if meta.chaos is not None:
        meta.chaos.teardown()

    report = meta.slo_health_report(
        specs,
        title=f"slo health: {args.waves} x {args.count} instances via "
              f"{args.scheduler} (seed {args.seed}"
              + (f", chaos {args.chaos_profile}/{args.chaos_seed}"
                 if args.chaos_profile else "")
              + (", guardrails" if args.guardrails else "") + ")",
        include_windows=not args.no_windows)
    if args.format == "json":
        print(health_report_to_json(report), file=out)
    else:
        print(render_health_report(report), file=out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(health_report_to_json(report) + "\n")
        print(f"wrote SLO health report to {args.out}", file=out)
    if not report["healthy"] and not args.allow_exhausted:
        print("ERROR: error budget exhausted "
              f"({report['minutes_lost']:g} SLO minutes lost)", file=out)
        return 1
    return 0


def cmd_scale(args: argparse.Namespace, out) -> int:
    """Run the seeded placement waves at each ``--sizes`` system size;
    the exit status is nonzero unless every burst placed and hit the
    viable-hosts cache."""
    from ..bench.scale import run_scale
    try:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    except ValueError:
        print(f"bad --sizes {args.sizes!r}: expected comma-separated "
              f"integers", file=out)
        return 2
    return _campaign(args, out, run_scale, _campaign_kwargs(
        args, sizes=sizes, scheduler=args.scheduler))


def cmd_ledger(args: argparse.Namespace, out) -> int:
    """Check or regenerate the committed ``BENCH_*.json`` ledgers from
    the registry in :mod:`repro.tools.ledgers` — CI's single entry point
    for "run twice, byte-compare, check freshness, check the gate"."""
    from . import ledgers
    try:
        rows = ledgers.select(args.names, args.all)
    except ValueError as exc:
        print(f"ledger error: {exc}", file=out)
        return 2
    status = 0
    for ledger in rows:
        if args.action == "write":
            status = max(status, main(
                [*ledger.argv, "--out", ledger.filename], out=out))
            continue
        problems = ledgers.check_ledger(ledger, keep=args.keep or None)
        print(f"{ledger.filename}: {'FAILED' if problems else 'ok'}",
              file=out)
        for problem in problems:
            print(f"  ERROR: {problem}", file=out)
        status = max(status, 1 if problems else 0)
    return status


def _arg(*flags: str, **spec) -> Tuple[Tuple[str, ...], dict]:
    return flags, spec


_COUNT = _arg("--count", type=int, default=4,
              help="instances requested — per wave (and per user) in a "
                   "wave campaign (default %(default)s)")
_WORK = _arg("--work", type=float, default=200.0,
             help="work units per instance (default %(default)s)")
_SCHEDULER = _arg("--scheduler", default="irs",
                  help=" | ".join(SCHEDULER_KINDS)
                       + " (default %(default)s)")
_SEED = _arg("--seed", type=int, default=0,
             help="experiment seed (default 0)")
_WAVES = _arg("--waves", type=int, default=6,
              help="placement waves to attempt (default %(default)s)")
_CHAOS_SEED = _arg("--chaos-seed", type=int, default=0,
                   help="campaign seed, independent of --seed "
                        "(default %(default)s)")
_OUT = _arg("--out", default="", metavar="FILE",
            help="write the report/comparison JSON to FILE")
_ALLOW_EXHAUSTED = _arg("--allow-exhausted", action="store_true",
                        help="exit 0 even when an error budget is "
                             "exhausted")

#: every argument is declared once, in the group the subcommands share
#: it through; a group named after a subcommand holds its own flags
ARG_GROUPS = {
    "testbed": (
        _arg("--domains", type=int, default=2,
             help="administrative domains (default %(default)s)"),
        _arg("--hosts", type=int, default=4,
             help="hosts per domain (default %(default)s)"),
        _arg("--platforms", type=int, default=2,
             help="distinct platforms in the mix (default %(default)s)"),
        _arg("--load", type=float, default=0.5,
             help="mean background load (default %(default)s)"),
        _SEED,
        _arg("--shards", type=int, default=0,
             help="federate the Collection into N shards "
                  "(default 0 = one monolithic Collection)"),
        _arg("--replication", type=int, default=2,
             help="replicas per record when federated (default 2)"),
        _arg("--gossip-interval", type=float, default=0.0,
             help="anti-entropy sweep period in virtual seconds "
                  "(default 0 = gossip off)"),
        _arg("--cache-ttl", type=float, default=0.0,
             help="federation query-cache TTL in virtual seconds "
                  "(default 0 = cache off)"),
    ),
    "workload": (
        _COUNT, _WORK, _SCHEDULER,
        _arg("--wait", action="store_true",
             help="advance virtual time until completion"),
    ),
    "waves": (
        _WAVES, _COUNT, _WORK, _SCHEDULER,
        _arg("--wave-interval", type=float, default=90.0,
             help="virtual seconds between waves (default 90)"),
    ),
    "arm-chaos": (
        _arg("--chaos-profile", default="",
             help="arm a fault-injection campaign over the run (light | "
                  "hosts | partitions | lossy | mixed | heavy)"),
        _CHAOS_SEED,
    ),
    "chaos-horizon": (
        _arg("--chaos-horizon", type=float, default=0.0,
             help="stop injecting after this much virtual time "
                  "(default: profile horizon)"),
    ),
    "campaign": (
        _arg("--profile", default="mixed",
             help="campaign profile: light | hosts | partitions | lossy | "
                  "mixed | heavy (default %(default)s)"),
        _CHAOS_SEED,
        _arg("--horizon", type=float, default=0.0,
             help="campaign horizon override in virtual seconds"),
    ),
    "resilience": (
        _arg("--retry", action="store_true",
             help="enable the RetryPolicy resilience layer"),
        _arg("--guardrails", action="store_true",
             help="enable the guardrails self-healing layer"),
    ),
    "tier": (
        _arg("--users", type=int, default=1_000_000,
             help="traffic population size; arrival cost is O(requests), "
                  "not O(users), so millions are fine (default 1000000)"),
        _arg("--duration", type=float, default=240.0,
             help="open-loop traffic window in virtual seconds "
                  "(default 240)"),
        _arg("--workers", type=int, default=4,
             help="worker daemons draining the placement queue "
                  "(default 4)"),
        _arg("--queue-cap", type=int, default=64,
             help="bounded backlog size; 0 = unbounded, i.e. shedding "
                  "off (default 64)"),
        _arg("--backpressure", choices=BACKPRESSURE_MODES, default="shed",
             help="what a full backlog does to a new submit "
                  "(default shed)"),
        _SCHEDULER, _WORK,
        _arg("--rate", type=float, default=0.0036,
             help="requests per user per hour (default 0.0036 — 1 req/s "
                  "at a million users)"),
        _arg("--surge", type=float, default=12.0,
             help="overload surge rate multiplier through the middle "
                  "fifth of the run (default 12)"),
        _arg("--host-slots", type=int, default=8,
             help="reservation slots per host (default 8)"),
    ),
    "query": (
        _arg("expression", help="Collection query expression"),
    ),
    "run": (
        _arg("--trace", type=int, default=0, metavar="N",
             help="print a sequence diagram of the first N protocol "
                  "invocations"),
        _arg("--trace-out", default="", metavar="FILE",
             help="export span traces to FILE (Chrome trace-event JSON; "
                  "a .jsonl suffix dumps one span per line)"),
    ),
    "metrics": (
        _arg("--format", choices=("table", "json", "prom"),
             default="table", help="output format (default table)"),
        _arg("--quantiles", default="p50,p90", metavar="LIST",
             help="histogram quantile columns for the table format, "
                  "e.g. p50,p90,p99 (default p50,p90)"),
    ),
    "trace": (
        _arg("mode", choices=("tree", "summary", "critical-path", "steps",
                              "chrome"),
             help="tree = ASCII trace trees, summary = per-step latency "
                  "table, critical-path = dominant step per request, "
                  "steps = cross-trace per-step count/mean/p95 "
                  "aggregate, chrome = trace-event JSON"),
        _arg("--out", default="", metavar="FILE",
             help="write output to FILE instead of stdout (chrome mode + "
                  ".jsonl suffix dumps spans as JSONL)"),
    ),
    "chaos": (
        _arg("--compare-retry", action="store_true",
             help="run the identical campaign retry-off then retry-on "
                  "and print both survival rates"),
        _OUT,
    ),
    "guardrails": (
        _arg("--compare", action="store_true",
             help="print only the two-mode comparison table (omits "
                  "the full guardrails-mode report)"),
        _arg("--events", action="store_true",
             help="include per-fault event logs in --out JSON"),
        _OUT,
    ),
    "slo": (
        _arg("--window", type=float, default=30.0,
             help="sampling window in virtual seconds (default 30)"),
        _arg("--spec", default="", metavar="FILE",
             help="JSON file of SLO objectives ({\"slos\": [...]}; "
                  "default: the stock Legion objectives)"),
        _arg("--compare-guardrails", action="store_true",
             help="run the identical seeded campaign off / guardrails "
                  "and compare SLO minutes lost across the two modes"),
        _arg("--format", choices=("table", "json"), default="table",
             help="output format (default table)"),
        _arg("--no-windows", action="store_true",
             help="omit per-window verdict rows from the report"),
        _ALLOW_EXHAUSTED, _OUT,
    ),
    "scale": (
        _arg("--sizes", default="64,256,1024",
             help="comma-separated total host counts, each divisible by "
                  "4 (default 64,256,1024)"),
        _WAVES, _COUNT, _SCHEDULER, _SEED, _OUT,
    ),
    "economy": (
        _arg("--mode", choices=("time", "cost"), default="cost",
             help="economy optimization mode: minimize completion time "
                  "within budget, or cost within deadline (default cost)"),
        _arg("--users", type=int, default=2,
             help="concurrent users, each with their own budget, "
                  "deadline, and application class (default 2)"),
        _arg("--budget", type=float, default=40.0,
             help="per-user budget in currency units (default 40)"),
        _arg("--deadline", type=float, default=900.0,
             help="per-user experiment deadline in virtual seconds from "
                  "first submission (default 900)"),
        _arg("--deadline-safety", type=float, default=0.6,
             help="fraction of the remaining deadline a host's estimated "
                  "completion must fit within (default 0.6)"),
        _arg("--compare-baselines", action="store_true",
             help="replay the identical seeded campaign under "
                  "random/irs/cost baselines; exit nonzero unless the "
                  "economy beats random and irs on both deadline-miss "
                  "rate and total cost"),
        _OUT,
    ),
    "serve": (
        _arg("--slo-threshold", type=float, default=30.0,
             help="e2e latency SLO threshold in virtual seconds "
                  "(default 30)"),
        _arg("--compare-shedding", action="store_true",
             help="run the identical seeded overload with the bounded "
                  "backlog on then off; exit nonzero unless shedding "
                  "keeps p99 inside the SLO while the unbounded run "
                  "exhausts its error budget"),
        _ALLOW_EXHAUSTED, _OUT,
    ),
    "gameday": (
        _arg("--kills", type=int, default=2,
             help="worker crashes injected inside the surge (default 2; "
                  "the pass gate requires >= 2)"),
        _arg("--lease-ttl", type=float, default=20.0,
             help="request-ownership lease TTL in virtual seconds "
                  "(default 20)"),
        _arg("--heartbeat-interval", type=float, default=5.0,
             help="worker lease-renewal period (default 5)"),
        _arg("--checkpoint-at", type=float, default=0.0,
             help="from this virtual time on, wait for a safe point, "
                  "then checkpoint/teardown/restore the tier mid-run "
                  "(default 0 = off)"),
        _arg("--compare-restore", action="store_true",
             help="run the identical seeded game day straight through "
                  "and with a mid-run checkpoint/restore; exit nonzero "
                  "unless both pass and their report cores are "
                  "byte-identical"),
        _OUT,
    ),
    "bench": (
        _COUNT, _WORK,
        _arg("--scheduler", action="append",
             help="repeatable; default random, irs, load"),
    ),
    "ledger": (
        _arg("action", choices=("check", "write"),
             help="check = regenerate twice, byte-compare the runs and "
                  "the committed file, evaluate the gate; write = "
                  "regenerate the committed file in place"),
        _arg("names", nargs="*", metavar="NAME",
             help="ledgers to act on, e.g. chaos for BENCH_chaos.json"),
        _arg("--all", action="store_true", help="every registered ledger"),
        _arg("--keep", default="", metavar="DIR",
             help="check: keep each regenerated ledger and its run's "
                  "stdout in DIR"),
    ),
}

#: the serve campaign's stock world (matches run_service's defaults);
#: the game day runs on it too
_TIER_WORLD = dict(domains=3, hosts=6, platforms=3, load=0.3, work=10.0)

#: one row per subcommand: (name, handler, argument groups, defaults
#: that differ from the groups', help)
COMMANDS = (
    ("hosts", cmd_hosts, ("testbed",), {}, "list simulated hosts"),
    ("vaults", cmd_vaults, ("testbed",), {}, "list vaults"),
    ("context", cmd_context, ("testbed",), {}, "walk the context space"),
    ("query", cmd_query, ("testbed", "query"), {}, "query the Collection"),
    ("run", cmd_run,
     ("testbed", "workload", "arm-chaos", "chaos-horizon", "run"), {},
     "schedule instances of a class"),
    ("metrics", cmd_metrics, ("testbed", "workload", "metrics"), {},
     "run a workload and export the metrics snapshot"),
    ("trace", cmd_trace, ("trace", "testbed", "workload"), {},
     "run a workload and analyse its span traces"),
    ("federation", cmd_federation, ("testbed", "workload"), {},
     "run a federated workload and print ring layout, replica "
     "placement, and gossip/staleness stats"),
    ("chaos", cmd_chaos,
     ("testbed", "campaign", "waves", "resilience", "chaos"),
     dict(work=250.0),
     "run a seeded fault-injection campaign and report survival "
     "statistics"),
    ("guardrails", cmd_guardrails,
     ("testbed", "campaign", "waves", "guardrails"),
     # hosts: crash-dominated, the guardrails sweet spot
     dict(work=250.0, profile="hosts", chaos_seed=1),
     "benchmark the guardrails self-healing layer against the bare "
     "baseline"),
    ("slo", cmd_slo,
     ("testbed", "waves", "arm-chaos", "chaos-horizon", "resilience",
      "slo"),
     dict(work=250.0),
     "run a workload under windowed sampling and report SLO health: "
     "error budgets, burn-rate alerts, and breached-window exemplar "
     "traces"),
    ("scale", cmd_scale, ("scale",), dict(waves=4, count=6),
     "run the seeded placement waves at growing system sizes: the "
     "BENCH_scale.json campaign"),
    ("economy", cmd_economy,
     ("testbed", "waves", "arm-chaos", "resilience", "economy"),
     dict(work=250.0, count=2, scheduler="economy"),
     "run a computational-economy campaign: budgets, deadlines, market "
     "pricing, and reservation auctions"),
    ("serve", cmd_serve, ("testbed", "tier", "serve"), _TIER_WORLD,
     "run the live service tier under seeded open-loop traffic: request "
     "gateway, bounded placement queue, worker pool, and SLO verdicts"),
    ("gameday", cmd_gameday, ("testbed", "tier", "gameday"), _TIER_WORLD,
     "run a recovery game day: chaos kills workers under live service "
     "traffic; gates on zero lost requests, zero duplicate placements, "
     "and byte-identical checkpoint/restore"),
    ("bench", cmd_bench, ("testbed", "bench"), dict(count=6),
     "compare schedulers on one workload"),
    ("ledger", cmd_ledger, ("ledger",), {},
     "check or regenerate the committed BENCH_*.json ledgers"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legion-sim",
        description="Drive a simulated Legion metasystem from the "
                    "command line.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, groups, defaults, help_text in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for group in groups:
            for flags, spec in ARG_GROUPS[group]:
                p.add_argument(*flags, **spec)
        p.set_defaults(fn=handler, **defaults)
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args, out or sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
