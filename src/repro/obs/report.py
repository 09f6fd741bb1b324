"""The unified SLO health report.

Joins everything the observability stack knows about one seeded run
into a single renderable/exportable document:

* the windowed metric history a
  :class:`~repro.obs.timeseries.MetricsSampler` captured;
* per-objective :class:`~repro.obs.slo.SLOResult` verdicts — error
  budgets, burn-rate alerts, SLO minutes lost;
* exemplar trace IDs from breached windows (the histogram exemplar
  hook), so a blown budget links straight to the causal timelines that
  blew it;
* the top critical-path steps across traces
  (:func:`~repro.obs.trace_export.aggregate_step_latencies` plus a
  dominant-step tally), so the report names *which protocol step* to
  attack first.

The JSON export sorts keys and contains only virtual-clock values, so
two identical seeded runs produce byte-identical reports — the property
the ``slo-smoke`` CI job pins.  ``legion-sim slo`` renders either form.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Sequence

from .slo import SLOResult, SLOSpec, evaluate_slos
from .timeseries import MetricsSampler, sparkline

__all__ = [
    "build_health_report",
    "health_report_to_json",
    "render_health_report",
]

#: how many step rows the critical-step section keeps
TOP_STEPS = 8


def build_health_report(sampler: MetricsSampler,
                        specs: Sequence[SLOSpec],
                        spans: Optional[Sequence[Any]] = None,
                        results: Optional[Sequence[SLOResult]] = None,
                        title: str = "slo health",
                        include_windows: bool = True) -> Dict[str, Any]:
    """Evaluate ``specs`` over the sampler's history and join the rest.

    Pass ``results`` to reuse an evaluation already computed; ``spans``
    (a SpanTracer's span list) feeds the critical-step section and is
    optional.  The returned dict is JSON-safe and deterministic.
    """
    if results is None:
        results = evaluate_slos(specs, sampler.windows)
    windows = sampler.windows
    report: Dict[str, Any] = {
        "title": title,
        "sampler": {
            "window_seconds": sampler.window,
            "windows": len(windows),
            "dropped_windows": sampler.dropped,
            "start": windows[0].start if windows else 0.0,
            "end": windows[-1].end if windows else 0.0,
        },
        "slos": [r.to_dict(include_windows=include_windows)
                 for r in results],
        "healthy": all(not r.exhausted for r in results),
        "alerts": sorted(
            (a.to_dict() for r in results for a in r.alerts),
            key=lambda a: (a["fired_at"], a["slo"], a["severity"])),
        "minutes_lost": round(sum(r.minutes_lost for r in results), 6),
        "breached_exemplars": sorted(
            {t for r in results for t in r.breached_exemplars()}),
    }
    if spans is not None:
        from .trace_export import (aggregate_step_latencies,
                                   dominant_tally, trace_summary)
        steps = aggregate_step_latencies(spans)
        steps.sort(key=lambda r: (-r["self"], r["step"]))
        report["critical_steps"] = [
            {"step": r["step"], "count": r["count"],
             "errors": r["errors"],
             "mean_s": round(r["mean"], 6),
             "p95_s": round(r["p"], 6),
             "max_s": round(r["max"], 6),
             "self_s": round(r["self"], 6)}
            for r in steps[:TOP_STEPS]]
        report["dominant_steps"] = [
            {"step": name, "traces_dominated": count}
            for name, count in dominant_tally(trace_summary(spans))
            if name]
    return report


def health_report_to_json(report: Dict[str, Any],
                          indent: Optional[int] = 2) -> str:
    """Byte-stable JSON (sorted keys, no NaN)."""
    return json.dumps(report, sort_keys=True, indent=indent,
                      separators=(",", ": ") if indent else (",", ":"),
                      allow_nan=False)


def _budget_bar(remaining: float, width: int = 20) -> str:
    """[#####-----] budget meter, clamped to [0, 1]."""
    filled = int(round(max(0.0, min(1.0, remaining)) * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def render_health_report(report: Dict[str, Any]) -> str:
    """The terminal rendering ``legion-sim slo`` prints by default."""
    sampler = report["sampler"]
    lines = [
        f"== {report['title']} ==",
        f"windows: {sampler['windows']} x "
        f"{sampler['window_seconds']:g}s "
        f"(virtual t={sampler['start']:g}s..{sampler['end']:g}s, "
        f"{sampler['dropped_windows']} dropped)",
        "",
    ]
    for slo in report["slos"]:
        spec = slo["spec"]
        budget = slo["budget"]
        events = slo["events"]
        verdict = "EXHAUSTED" if budget["exhausted"] else "ok"
        lines.append(
            f"slo {spec['name']:<22s} target {spec['target']:.3f}  "
            f"compliance {slo['compliance']:.4f}  "
            f"budget {_budget_bar(budget['remaining'])} "
            f"{100.0 * max(0.0, budget['remaining']):5.1f}%  {verdict}")
        lines.append(
            f"    events good/bad/total "
            f"{events['good']:g}/{events['bad']:g}/{events['total']:g}"
            f"  minutes lost {slo['minutes_lost']:g}"
            f"  breached windows {slo['breached_windows']}"
            f"  alerts {len(slo['alerts'])}")
        if "windows" in slo:
            burns = [v["burn_rate"] for v in slo["windows"]]
            lines.append(f"    burn {sparkline(burns, width=60)}")
        if slo["breached_exemplars"]:
            shown = slo["breached_exemplars"][:6]
            more = len(slo["breached_exemplars"]) - len(shown)
            lines.append(
                "    exemplar traces " + " ".join(shown)
                + (f" (+{more} more)" if more > 0 else ""))
    if report["alerts"]:
        lines.append("")
        lines.append("burn-rate alerts:")
        for alert in report["alerts"]:
            lines.append(
                f"  t={alert['fired_at']:>9.1f}s  {alert['severity']:<5s}"
                f" {alert['slo']:<22s} burn {alert['burn_rate']:.2f}"
                f" (window {alert['window_index']})")
    if report.get("critical_steps"):
        lines.append("")
        lines.append("top critical-path steps (by total self time):")
        lines.append(f"  {'step':26s} {'count':>6s} {'mean_s':>10s} "
                     f"{'p95_s':>10s} {'self_s':>10s}")
        for row in report["critical_steps"]:
            lines.append(
                f"  {row['step']:26s} {row['count']:>6d} "
                f"{row['mean_s']:>10.6f} {row['p95_s']:>10.6f} "
                f"{row['self_s']:>10.6f}")
    if report.get("dominant_steps"):
        lines.append("dominant step overall: " + ", ".join(
            f"{row['step']} x{row['traces_dominated']}"
            for row in report["dominant_steps"][:5]))
    lines.append("")
    lines.append("overall: " + ("HEALTHY" if report["healthy"]
                                else "BUDGET EXHAUSTED")
                 + f" ({report['minutes_lost']:g} SLO minutes lost)")
    return "\n".join(lines)
