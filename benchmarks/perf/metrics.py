"""Metric declarations, and the arithmetic from raw numbers to metrics.

``BENCHMARK.json`` at the repo root is the one declaration of the metric
names, units, directions and cross-seed bounds; this module loads it.
What its fixed schema has no room for lives here: ``MOVES`` (which
end-to-end metric each per-layer metric is expected to move, and on
which workload -- written down before anything was measured; README,
"How the metrics interact") and ``SAME_SEED_BOUNDS`` (the tighter gate
``run.py --compare`` applies when both sides ran the same seed).
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Any, Dict, List

__all__ = ["MANIFEST", "END_TO_END", "PER_LAYER", "MOVES",
           "SAME_SEED_BOUNDS", "SETUP_ABSOLUTE_FLOOR_S", "percentile",
           "end_to_end_metrics", "layer_metrics", "TraceTotals"]

MANIFEST = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
#: [{"name", "unit", "better", "bound"}]; the bound is the share of the
#: parent's median a metric may worsen by across *different* seeds
END_TO_END: List[Dict[str, Any]] = MANIFEST["end_to_end"]
#: [{"name", "unit", "better"}]
PER_LAYER: List[Dict[str, Any]] = MANIFEST["per_layer"]
_UNIT = {m["name"]: m["unit"] for m in END_TO_END}

#: ISSUE 11's regression bounds, for two runs of one seed: the workload
#: is then identical, so host metrics differ by machine noise only and
#: virtual metrics should not differ at all.  ``ok_frac`` is
#: ``1 - failed_frac``; its bound is absolute, the others are shares of
#: A's median.
SAME_SEED_BOUNDS = {
    "setup_s": ("relative", 0.10),
    "ops_per_s": ("relative", 0.10),
    "peak_rss_mb": ("relative", 0.10),
    "ok_frac": ("absolute", 0.005),
    "virt_p50_s": ("relative", 0.02),
    "virt_p99_s": ("relative", 0.02),
}
#: setup_s regresses only if it also worsens by this many seconds (a
#: 10 ms jitter on a 0.4 s set-up is not a finding)
SETUP_ABSOLUTE_FLOOR_S = 0.05

#: per-layer metric -> the end-to-end metric it should move, and where
MOVES = {
    # sim: Simulator.run_until/step/run, including generator process
    # bodies and scheduled callbacks not wrapped by another layer
    "sim.events":
        "ops_per_s on world_dynamics, then serve_surge/gameday_recovery",
    "sim.events_per_op": "ops_per_s on world_dynamics; ~flat on place_closed",
    "sim.events_per_s": "ops_per_s on world_dynamics",
    "sim.run_until_calls": "ops_per_s on place_closed (one per message hop)",
    "sim.self_s": "ops_per_s on world_dynamics",
    "sim.self_frac": "ops_per_s on world_dynamics, serve_surge",
    # net: Transport.invoke/parallel_invoke/transfer
    "net.invoke_calls": "ops_per_s on place_closed, serve_surge",
    "net.messages": "ops_per_s on place_closed, serve_surge",
    "net.messages_per_op":
        "ops_per_s on place_closed; near zero on world_dynamics",
    "net.messages_lost": "ok_frac, virt_p99_s on gameday_recovery",
    "net.retries": "virt_p99_s on gameday_recovery",
    "net.self_s": "ops_per_s on place_closed, serve_surge",
    "net.self_frac": "ops_per_s on place_closed; near zero on world_dynamics",
    # collection: Collection.query/update_entry/join
    "collection.query_calls": "ops_per_s on gameday_recovery",
    "collection.query_s":
        "ops_per_s on gameday_recovery; not on place_closed",
    "collection.update_calls": "ops_per_s on world_dynamics",
    "collection.update_s": "ops_per_s on world_dynamics; not on place_closed",
    "collection.members": "setup_s on world_dynamics",
    "collection.self_frac": "ops_per_s on world_dynamics, gameday_recovery",
    # scheduler: Scheduler.run/compute_schedule/viable_hosts
    "scheduler.run_calls": "ops_per_s on place_closed",
    "scheduler.collection_queries": "ops_per_s on gameday_recovery",
    "scheduler.viable_cache_hit_ratio":
        "ops_per_s on place_closed; 0 on gameday_recovery",
    "scheduler.tries_per_op": "ok_frac, virt_p99_s on place_closed",
    "scheduler.success_ratio": "ok_frac on place_closed",
    "scheduler.self_s": "ops_per_s on place_closed",
    "scheduler.self_frac": "ops_per_s on place_closed",
    # enactor: Enactor.make_reservations/enact_schedule/cancel_reservations
    "enactor.make_reservations_calls": "ops_per_s on place_closed",
    "enactor.enact_calls": "ops_per_s on place_closed",
    "enactor.reservation_requests": "ops_per_s on place_closed",
    "enactor.grant_ratio": "ok_frac, virt_p99_s on place_closed, serve_surge",
    "enactor.variant_attempts": "virt_p99_s on serve_surge",
    "enactor.cancellations": "virt_p99_s on serve_surge",
    "enactor.self_s": "ops_per_s on place_closed",
    "enactor.self_frac": "ops_per_s on place_closed",
    # hosts: HostObject reservations, starts and reassess (reassess_s
    # includes the attribute-database writes under it)
    "hosts.reserve_calls": "ops_per_s on place_closed",
    "hosts.reserve_s": "ops_per_s on place_closed",
    "hosts.start_calls": "ops_per_s on place_closed",
    "hosts.reassess_calls": "ops_per_s on world_dynamics",
    "hosts.reassess_s": "ops_per_s on world_dynamics",
    "hosts.self_frac": "ops_per_s on world_dynamics, place_closed",
    # objects: ClassObject.create_instance(s)/destroy_instance
    "objects.create_calls": "ops_per_s on place_closed",
    "objects.self_s": "ops_per_s on place_closed",
    "objects.self_frac": "ops_per_s on place_closed",
    # obs: SpanTracer (incl. span/span_if_active enter and exit),
    # MetricsRegistry.count/observe/set_gauge, MetricsSampler.flush
    "obs.span_calls":
        "ops_per_s on place_closed, serve_surge, gameday_recovery",
    "obs.spans_retained": "peak_rss_mb wherever spans accumulate",
    "obs.spans_per_op": "ops_per_s, peak_rss_mb on place_closed",
    "obs.metric_ops": "ops_per_s on place_closed, serve_surge",
    "obs.metric_ops_per_op": "ops_per_s on place_closed",
    "obs.sampler_windows": "ops_per_s on serve_surge, gameday_recovery",
    "obs.self_s": "ops_per_s on place_closed, serve_surge, gameday_recovery",
    "obs.self_frac": "ops_per_s on place_closed; no change on world_dynamics",
    # service: RequestGateway.submit/finish/requeue, PlacementQueue
    "service.submit_calls":
        "ops_per_s on serve_surge, gameday_recovery; 0 elsewhere",
    "service.queue_ops":
        "ops_per_s on serve_surge, gameday_recovery; 0 elsewhere",
    "service.shed": "ok_frac on serve_surge, gameday_recovery",
    "service.retries": "virt_p99_s on serve_surge, gameday_recovery",
    "service.worker_busy_frac": "virtual: ok_frac, virt_p99_s on serve_surge",
    "service.self_s": "ops_per_s on serve_surge, gameday_recovery",
    "service.self_frac": "ops_per_s on serve_surge, gameday_recovery",
    # recovery: RequestJournal.record, LeaseTable.grant/renew/release/expire
    "recovery.journal_entries":
        "peak_rss_mb on gameday_recovery; 0 elsewhere",
    "recovery.journal_entries_per_op": "ops_per_s on gameday_recovery",
    "recovery.journal_s": "ops_per_s on gameday_recovery",
    "recovery.lease_ops": "ops_per_s on gameday_recovery; 0 elsewhere",
    "recovery.orphans_recovered": "ok_frac, virt_p99_s on gameday_recovery",
    "recovery.self_s": "ops_per_s on gameday_recovery",
    "recovery.self_frac": "ops_per_s on gameday_recovery",
    # chaos: ChaosInjector.arm/teardown and the report's fault count
    "chaos.faults_injected": "ok_frac, virt_p99_s on gameday_recovery",
    "chaos.self_s": "ops_per_s on gameday_recovery",
    # workload: build_testbed
    "workload.build_s": "setup_s, chiefly on world_dynamics",
    # the benchmark's own cost
    "trace.overhead_frac":
        "nothing: traced wall / untraced wall of the same rounds - 1",
    "trace.unattributed_frac":
        "nothing: share of traced wall inside no wrapped call",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted sample list."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end_metrics(setup_samples: List[float], rounds: List[Any],
                       ref_rounds: int, peak_rss_mb: float
                       ) -> Dict[str, Dict[str, Any]]:
    """``rounds`` are workloads.RoundResult; virtual metrics use only the
    first ``ref_rounds`` of them."""
    rates = [rate for r in rounds for rate in r.slice_rates]
    reference = rounds[:ref_rounds]
    if reference[0].latencies is not None:
        pooled = [x for r in reference for x in r.latencies]
        p50 = percentile(pooled, 0.50)
        p99 = percentile(pooled, 0.99)
        samples = len(pooled)
    else:
        p50 = statistics.median(r.p50 for r in reference)
        p99 = statistics.median(r.p99 for r in reference)
        samples = sum(r.latency_count for r in reference)
    judged = sum(r.judged for r in reference)
    values = {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "ops_per_s": (statistics.median(rates), len(rates)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "ok_frac": (_ratio(sum(r.ok for r in reference), judged), judged),
        "virt_p50_s": (p50, samples),
        "virt_p99_s": (p99, samples),
    }
    return {name: {"value": value, "unit": _UNIT[name], "n": n}
            for name, (value, n) in values.items()}


class TraceTotals:
    """Sums over the traced rounds of one run."""

    def __init__(self) -> None:
        self.ops = 0
        self.traced_wall_s = 0.0
        self.untraced_wall_s = 0.0
        self.unattributed_s = 0.0
        self.build_s = 0.0
        self.layer_self_s: Dict[str, float] = {}
        #: span name -> {"calls", "total_s", "self_s"}
        self.by_name: Dict[str, Dict[str, float]] = {}
        #: watched-attribute deltas, result-hook tallies, report extras
        self.counts: Dict[str, float] = {}
        #: absolute end-of-round readings (last round wins)
        self.gauges: Dict[str, float] = {}

    def add_round(self, ops: int, untraced_wall_s: float,
                  summary: Dict[str, Any], counts: Dict[str, float],
                  gauges: Dict[str, float]) -> None:
        self.ops += ops
        self.untraced_wall_s += untraced_wall_s
        self.traced_wall_s += summary["wall_s"]
        self.unattributed_s += summary["unattributed_s"]
        self.build_s += summary["build_s"]
        for layer, value in summary["layer_self_s"].items():
            self.layer_self_s[layer] = \
                self.layer_self_s.get(layer, 0.0) + value
        for name, row in summary["by_name"].items():
            mine = self.by_name.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                mine[key] += value
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0.0) + value
        self.gauges.update(gauges)

    def calls(self, *names: str) -> float:
        return sum(self.by_name.get(n, {}).get("calls", 0) for n in names)

    def total_s(self, *names: str) -> float:
        return sum(self.by_name.get(n, {}).get("total_s", 0.0)
                   for n in names)


def layer_metrics(t: TraceTotals) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from one run's traced rounds."""
    wall = t.traced_wall_s
    ops = t.ops
    c = t.counts
    self_s = t.layer_self_s
    span_calls = t.calls("SpanTracer.start_span", "SpanTracer.record_span")
    metric_ops = t.calls("MetricsRegistry.count", "MetricsRegistry.observe",
                         "MetricsRegistry.set_gauge")
    run_calls = t.calls("Scheduler.run")
    lookups = (c.get("scheduler.viable_cache_hits", 0)
               + c.get("scheduler.viable_cache_misses", 0)
               + _uncached_lookups(t))
    out = {
        "sim.events": c.get("sim.events", 0),
        "sim.events_per_op": _ratio(c.get("sim.events", 0), ops),
        "sim.events_per_s": _ratio(c.get("sim.events", 0), wall),
        "sim.run_until_calls": t.calls("Simulator.run_until"),
        "net.invoke_calls": t.calls("Transport.invoke",
                                    "Transport.parallel_invoke",
                                    "Transport.transfer"),
        "net.messages": c.get("net.messages", 0),
        "net.messages_per_op": _ratio(c.get("net.messages", 0), ops),
        "net.messages_lost": c.get("net.messages_lost", 0),
        "net.retries": c.get("net.retries", 0),
        "collection.query_calls": t.calls("Collection.query"),
        "collection.query_s": t.total_s("Collection.query"),
        "collection.update_calls": t.calls("Collection.update_entry"),
        "collection.update_s": t.total_s("Collection.update_entry"),
        "collection.members": t.gauges.get("collection.members", 0),
        "scheduler.run_calls": run_calls,
        "scheduler.collection_queries":
            c.get("scheduler.collection_queries", 0),
        "scheduler.viable_cache_hit_ratio":
            _ratio(c.get("scheduler.viable_cache_hits", 0), lookups),
        "scheduler.tries_per_op": _ratio(c.get("scheduler.tries", 0),
                                         run_calls),
        "scheduler.success_ratio": _ratio(c.get("scheduler.ok", 0),
                                          run_calls),
        "enactor.make_reservations_calls":
            t.calls("Enactor.make_reservations"),
        "enactor.enact_calls": t.calls("Enactor.enact_schedule"),
        "enactor.reservation_requests":
            c.get("enactor.reservation_requests", 0),
        "enactor.grant_ratio":
            _ratio(c.get("enactor.reservations_granted", 0),
                   c.get("enactor.reservation_requests", 0)),
        "enactor.variant_attempts": c.get("enactor.variant_attempts", 0),
        "enactor.cancellations": c.get("enactor.cancellations", 0),
        "hosts.reserve_calls": t.calls("HostObject.make_reservation"),
        "hosts.reserve_s": t.total_s("HostObject.make_reservation"),
        "hosts.start_calls": t.calls("HostObject.start_object",
                                     "HostObject.start_objects"),
        "hosts.reassess_calls": t.calls("HostObject.reassess"),
        "hosts.reassess_s": t.total_s("HostObject.reassess"),
        "objects.create_calls": t.calls("ClassObject.create_instance",
                                        "ClassObject.create_instances"),
        "obs.span_calls": span_calls,
        "obs.spans_retained": c.get("obs.spans_retained", 0),
        "obs.spans_per_op": _ratio(c.get("obs.spans_retained", 0), ops),
        "obs.metric_ops": metric_ops,
        "obs.metric_ops_per_op": _ratio(metric_ops, ops),
        "obs.sampler_windows": t.gauges.get("obs.sampler_windows", 0),
        "service.submit_calls": t.calls("RequestGateway.submit"),
        "service.queue_ops": t.calls("PlacementQueue.offer",
                                     "PlacementQueue.pop",
                                     "PlacementQueue.requeue"),
        "service.shed": c.get("service.shed", 0),
        "service.retries": c.get("service.retries", 0),
        "service.worker_busy_frac":
            t.gauges.get("service.worker_busy_frac", 0),
        "recovery.journal_entries": c.get("recovery.journal_entries", 0),
        "recovery.journal_entries_per_op":
            _ratio(c.get("recovery.journal_entries", 0), ops),
        "recovery.journal_s": t.total_s("RequestJournal.record"),
        "recovery.lease_ops": t.calls("LeaseTable.grant", "LeaseTable.renew",
                                      "LeaseTable.release",
                                      "LeaseTable.expire"),
        "recovery.orphans_recovered":
            c.get("recovery.orphans_recovered", 0),
        "chaos.faults_injected": c.get("chaos.faults_injected", 0),
        "chaos.self_s": self_s.get("chaos", 0.0),
        "workload.build_s": t.build_s,
        "trace.overhead_frac": _ratio(wall, t.untraced_wall_s) - 1.0,
        "trace.unattributed_frac": _ratio(t.unattributed_s, wall),
    }
    for layer in ("sim", "net", "scheduler", "enactor", "objects", "obs",
                  "service", "recovery"):
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer in ("sim", "net", "collection", "scheduler", "enactor",
                  "hosts", "objects", "obs", "service", "recovery"):
        out[f"{layer}.self_frac"] = _ratio(self_s.get(layer, 0.0), wall)
    return out


def _uncached_lookups(t: TraceTotals) -> float:
    """``viable_hosts`` calls that bypassed the cache altogether (a
    scheduler built with ``viable_cache=False`` counts neither a hit nor
    a miss), so the hit ratio reads 0 there rather than 0/0."""
    return max(0.0, t.calls("Scheduler.viable_hosts")
               - t.counts.get("scheduler.viable_cache_hits", 0)
               - t.counts.get("scheduler.viable_cache_misses", 0))
