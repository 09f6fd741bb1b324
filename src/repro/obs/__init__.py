"""repro.obs — the runtime observability subsystem.

A :class:`MetricsRegistry` — one flat store of counter, gauge and
histogram families recorded by one-line calls whose keywords are the
labels (``count``, ``observe``, ``set_gauge``, ``gauge_fn``, virtual-clock
``time``) and read by one sorted iterator (``series``) — with
deterministic snapshots and JSON/prometheus exporters, plus causal span
tracing: a :class:`SpanTracer` of per-request :class:`Span` trees over
the placement protocol, with critical-path analysis and Chrome-trace
export in :mod:`repro.obs.trace_export`.  On top of both: windowed time-series
history (:mod:`repro.obs.timeseries`), declarative SLOs with error
budgets and burn-rate alerts (:mod:`repro.obs.slo`), and the unified
health report behind ``legion-sim slo`` (:mod:`repro.obs.report`).
Every Metasystem owns one of each
(``meta.metrics``, ``meta.spans``); the metric and span catalogues are
documented in ``docs/observability.md``.
"""

from .export import (
    build_snapshot,
    json_to_snapshot,
    render_report,
    snapshot_to_json,
    snapshot_to_prometheus,
)
from .registry import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
    Timer,
)
from .spans import (
    NULL_SPANS,
    NullSpanTracer,
    Span,
    SpanTracer,
    TraceContext,
)
from .trace_export import (
    aggregate_step_latencies,
    chrome_trace,
    chrome_trace_json,
    critical_path,
    render_critical_path_report,
    render_step_aggregate,
    render_step_table,
    render_tree,
    spans_to_jsonl,
    trace_summary,
    validate_chrome_trace,
)
from .timeseries import (
    MetricsSampler,
    Window,
    series_key,
    sparkline,
    windows_to_jsonl,
)
from .slo import (
    BurnAlert,
    SLOResult,
    SLOSpec,
    WindowVerdict,
    default_legion_slos,
    evaluate_slo,
    evaluate_slos,
    specs_from_dict,
    specs_to_dict,
)
from .report import (
    build_health_report,
    health_report_to_json,
    render_health_report,
)

__all__ = [
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "Histogram",
    "Timer",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "build_snapshot",
    "snapshot_to_json",
    "json_to_snapshot",
    "snapshot_to_prometheus",
    "render_report",
    "Span",
    "SpanTracer",
    "NullSpanTracer",
    "NULL_SPANS",
    "TraceContext",
    "chrome_trace",
    "chrome_trace_json",
    "critical_path",
    "render_critical_path_report",
    "render_step_table",
    "render_tree",
    "spans_to_jsonl",
    "trace_summary",
    "aggregate_step_latencies",
    "render_step_aggregate",
    "validate_chrome_trace",
    "MetricsSampler",
    "Window",
    "series_key",
    "sparkline",
    "windows_to_jsonl",
    "SLOSpec",
    "SLOResult",
    "WindowVerdict",
    "BurnAlert",
    "evaluate_slo",
    "evaluate_slos",
    "specs_from_dict",
    "specs_to_dict",
    "default_legion_slos",
    "build_health_report",
    "health_report_to_json",
    "render_health_report",
]
