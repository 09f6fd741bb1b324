"""Snapshot and export formats for the metrics registry.

Three renderings of one deterministic snapshot structure:

* :func:`build_snapshot` — the canonical JSON-safe dict (sorted names,
  sorted label keys, no NaN/Inf);
* :func:`snapshot_to_json` / :func:`json_to_snapshot` — a byte-stable
  round-trip (``json_to_snapshot(snapshot_to_json(s)) == s``, pinned by
  ``tests/test_obs.py``);
* :func:`snapshot_to_prometheus` — prometheus text exposition format
  (``name{label="v"} value`` plus ``_bucket``/``_sum``/``_count`` for
  histograms);
* :func:`render_report` — the human-readable table behind
  ``repro-cli metrics``.

Bucket upper bounds are serialized as strings (``"0.005"``, ``"+Inf"``)
so the JSON stays standard (no ``Infinity`` literals).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from .registry import bucket_quantile

__all__ = [
    "build_snapshot",
    "snapshot_to_json",
    "json_to_snapshot",
    "snapshot_to_prometheus",
    "render_report",
]


def _finite(x: float) -> Optional[float]:
    """A float suitable for strict JSON; None for NaN/Inf/empty."""
    if x != x or x in (float("inf"), float("-inf")):
        return None
    return float(x)


def build_snapshot(registry) -> Dict[str, Any]:
    """The canonical snapshot dict for a :class:`MetricsRegistry`."""
    metrics: List[Dict[str, Any]] = []
    for name, family, labels, series in registry.series():
        if not metrics or metrics[-1]["name"] != name:
            metrics.append({
                "name": name,
                "kind": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "series": [],
            })
        entry: Dict[str, Any] = {"labels": labels}
        if family.kind == "histogram":
            bounds = series.bucket_labels()
            entry.update({
                "count": series.count,
                "sum": _finite(series.sum) or 0.0,
                "min": _finite(series.stats.minimum),
                "max": _finite(series.stats.maximum),
                "mean": _finite(series.stats.mean),
                "buckets": [[b, c] for b, c in
                            zip(bounds, series.cumulative_counts())],
                "exemplars": [
                    [bounds[idx], _finite(value) or 0.0, trace_id]
                    for idx, (value, trace_id)
                    in sorted(series.exemplars.items())
                ],
            })
        else:
            entry["value"] = _finite(series.read()) or 0.0
        metrics[-1]["series"].append(entry)
    return {"metrics": metrics}


def snapshot_to_json(snapshot: Dict[str, Any],
                     indent: Optional[int] = None) -> str:
    return json.dumps(snapshot, sort_keys=True, indent=indent,
                      separators=(",", ": ") if indent else (",", ":"),
                      allow_nan=False)


def json_to_snapshot(text: str) -> Dict[str, Any]:
    return json.loads(text)


def _label_str(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"


def _merge_label_str(labels: Dict[str, str], extra: Dict[str, str]) -> str:
    merged = dict(labels)
    merged.update(extra)
    return _label_str(merged)


def snapshot_to_prometheus(snapshot: Dict[str, Any]) -> str:
    """Prometheus text exposition of a snapshot."""
    lines: List[str] = []
    for metric in snapshot["metrics"]:
        name = metric["name"]
        if metric["help"]:
            lines.append(f"# HELP {name} {metric['help']}")
        lines.append(f"# TYPE {name} {metric['kind']}")
        for series in metric["series"]:
            labels = series["labels"]
            if metric["kind"] == "histogram":
                for bound, cum in series["buckets"]:
                    lines.append(
                        f"{name}_bucket"
                        f"{_merge_label_str(labels, {'le': bound})} {cum}")
                lines.append(
                    f"{name}_sum{_label_str(labels)} {series['sum']}")
                lines.append(
                    f"{name}_count{_label_str(labels)} {series['count']}")
            else:
                lines.append(
                    f"{name}{_label_str(labels)} {series['value']}")
    return "\n".join(lines) + ("\n" if lines else "")


def _series_quantile(series: Dict[str, Any], q: float) -> Optional[float]:
    """Interpolated quantile recomputed from a snapshot's bucket counts."""
    count = series["count"]
    if not count:
        return None
    buckets = ((series["max"] if bound == "+Inf" else float(bound), cum)
               for bound, cum in series["buckets"])
    return bucket_quantile(buckets, count, series["min"], series["max"], q)


def _fmt(x: Optional[float]) -> str:
    if x is None:
        return "-"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.6g}"


def _max_exemplar(series: Dict[str, Any]) -> str:
    """Trace id of the largest exemplared observation in a series."""
    exemplars = series.get("exemplars") or []
    if not exemplars:
        return "-"
    return max(exemplars, key=lambda e: e[1])[2]


def render_report(snapshot: Dict[str, Any], title: str = "metrics",
                  quantiles: Sequence[float] = (0.5, 0.9)) -> str:
    """Human-readable report: one line per series, the requested
    quantiles for histograms (interpolated from cumulative buckets),
    and the trace exemplar nearest the max observation."""
    qcols = "".join(f" {'p' + format(100.0 * q, 'g'):>10s}"
                    for q in quantiles)
    lines = [f"== {title} ==",
             f"{'metric':44s} {'value/count':>12s} "
             f"{'mean':>10s}{qcols} {'max':>10s} "
             f"{'trace':>10s}"]
    for metric in snapshot["metrics"]:
        for series in metric["series"]:
            label = metric["name"] + _label_str(series["labels"])
            if metric["kind"] == "histogram":
                qvals = "".join(
                    f" {_fmt(_series_quantile(series, q)):>10s}"
                    for q in quantiles)
                lines.append(
                    f"{label:44s} {series['count']:>12d} "
                    f"{_fmt(series['mean']):>10s}"
                    f"{qvals} "
                    f"{_fmt(series['max']):>10s} "
                    f"{_max_exemplar(series):>10s}")
            else:
                dashes = "".join(f" {'-':>10s}" for _ in quantiles)
                lines.append(
                    f"{label:44s} {_fmt(series['value']):>12s} "
                    f"{'-':>10s}{dashes} {'-':>10s} "
                    f"{'-':>10s}")
    return "\n".join(lines)
