"""Declarative service-level objectives over windowed metric history.

An :class:`SLOSpec` names an objective against the time series a
:class:`~repro.obs.timeseries.MetricsSampler` captured:

* ``kind="latency"`` — a latency target: the fraction of observations
  of a histogram metric that must land at or under ``threshold``
  (virtual seconds) is at least ``target``.  Good/bad event counts are
  estimated per window from the windowed bucket deltas, interpolating
  inside the bucket containing the threshold (prometheus
  ``histogram_quantile`` semantics in reverse);
* ``kind="ratio"`` — a success-ratio target: ``good`` counter events
  over ``total`` counter events (or over ``good`` + ``bad`` when a
  ``bad`` counter is named instead) must be at least ``target``.

Evaluation (:func:`evaluate_slo`) walks the retained windows and
produces, per window, good/bad/total event estimates and a **burn
rate** — the rate at which the error budget is being consumed, where
1.0 means "exactly the steady-state allowance" (bad fraction equals
``1 - target``).  Cumulative accounting yields the **error budget**:
``allowed_bad = (1 - target) * total_events``; the budget is exhausted
when cumulative bad events meet or exceed it.

Burn-rate alerts follow the standard fast/slow multiwindow pattern:

* **fast** — a single window burning at ≥ ``fast_burn`` (default 14.4,
  the classic "2% of a 30-day budget in an hour" multiplier) fires a
  page-severity alert at that window's end time;
* **slow** — the aggregated burn over the last ``slow_windows`` windows
  at ≥ ``slow_burn`` (default 6.0) fires a ticket-severity alert.

Everything is derived from virtual-clock windows, so alert firing times
and budget numbers are deterministic for a seeded run (pinned by
``tests/test_slo.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence

from .timeseries import Window

__all__ = [
    "SLOSpec",
    "WindowVerdict",
    "BurnAlert",
    "SLOResult",
    "evaluate_slo",
    "evaluate_slos",
    "specs_from_dict",
    "specs_to_dict",
    "default_legion_slos",
]

#: default fast-burn multiplier (one window at this rate pages)
DEFAULT_FAST_BURN = 14.4
#: default slow-burn multiplier over the slow lookback
DEFAULT_SLOW_BURN = 6.0
#: default slow-burn lookback, in windows
DEFAULT_SLOW_WINDOWS = 6


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective (see module docstring for semantics)."""

    name: str
    kind: str                       # "latency" | "ratio"
    target: float                   # fraction of good events, e.g. 0.99
    description: str = ""
    # latency objectives
    metric: str = ""                # histogram metric name
    labels: Mapping[str, str] = field(default_factory=dict)
    threshold: float = 0.0          # good when observation <= threshold (s)
    # ratio objectives
    good: str = ""                  # counter of good events
    good_labels: Mapping[str, str] = field(default_factory=dict)
    total: str = ""                 # counter of all events, or:
    total_labels: Mapping[str, str] = field(default_factory=dict)
    bad: str = ""                   # counter of bad events (total = g + b)
    bad_labels: Mapping[str, str] = field(default_factory=dict)
    # alerting knobs
    fast_burn: float = DEFAULT_FAST_BURN
    slow_burn: float = DEFAULT_SLOW_BURN
    slow_windows: int = DEFAULT_SLOW_WINDOWS

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "ratio"):
            raise ValueError(
                f"SLO {self.name!r}: kind must be 'latency' or 'ratio', "
                f"got {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"SLO {self.name!r}: target must be in (0, 1), "
                f"got {self.target}")
        if self.kind == "latency":
            if not self.metric:
                raise ValueError(
                    f"latency SLO {self.name!r} needs a metric")
            if self.threshold <= 0:
                raise ValueError(
                    f"latency SLO {self.name!r} needs a positive "
                    f"threshold")
        else:
            if not self.good:
                raise ValueError(
                    f"ratio SLO {self.name!r} needs a good counter")
            if not self.total and not self.bad:
                raise ValueError(
                    f"ratio SLO {self.name!r} needs a total or bad "
                    f"counter")

    @property
    def budget_fraction(self) -> float:
        """The error budget as a fraction of total events."""
        return 1.0 - self.target

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
        }
        if self.description:
            out["description"] = self.description
        if self.kind == "latency":
            out["metric"] = self.metric
            out["threshold"] = self.threshold
            if self.labels:
                out["labels"] = dict(sorted(self.labels.items()))
        else:
            out["good"] = self.good
            if self.good_labels:
                out["good_labels"] = dict(sorted(self.good_labels.items()))
            if self.total:
                out["total"] = self.total
                if self.total_labels:
                    out["total_labels"] = dict(
                        sorted(self.total_labels.items()))
            if self.bad:
                out["bad"] = self.bad
                if self.bad_labels:
                    out["bad_labels"] = dict(sorted(self.bad_labels.items()))
        if self.fast_burn != DEFAULT_FAST_BURN:
            out["fast_burn"] = self.fast_burn
        if self.slow_burn != DEFAULT_SLOW_BURN:
            out["slow_burn"] = self.slow_burn
        if self.slow_windows != DEFAULT_SLOW_WINDOWS:
            out["slow_windows"] = self.slow_windows
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SLOSpec":
        known = {
            "name", "kind", "target", "description", "metric", "labels",
            "threshold", "good", "good_labels", "total", "total_labels",
            "bad", "bad_labels", "fast_burn", "slow_burn", "slow_windows",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown SLO spec field(s): {unknown}")
        return cls(**{k: data[k] for k in data})


@dataclass
class WindowVerdict:
    """Per-window good/bad accounting for one objective."""

    index: int
    start: float
    end: float
    good: float
    bad: float
    total: float
    burn_rate: float
    breached: bool
    #: exemplar trace IDs fresh in this window (latency objectives only)
    exemplars: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "good": round(self.good, 6),
            "bad": round(self.bad, 6),
            "total": round(self.total, 6),
            "burn_rate": round(self.burn_rate, 6),
            "breached": self.breached,
            "exemplars": list(self.exemplars),
        }


@dataclass(frozen=True)
class BurnAlert:
    """One deterministic burn-rate alert firing."""

    slo: str
    severity: str       # "fast" (page) | "slow" (ticket)
    window_index: int
    fired_at: float     # the breaching window's end time
    burn_rate: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "slo": self.slo,
            "severity": self.severity,
            "window_index": self.window_index,
            "fired_at": self.fired_at,
            "burn_rate": round(self.burn_rate, 6),
        }


@dataclass
class SLOResult:
    """Everything :func:`evaluate_slo` derived for one objective."""

    spec: SLOSpec
    verdicts: List[WindowVerdict] = field(default_factory=list)
    alerts: List[BurnAlert] = field(default_factory=list)
    good: float = 0.0
    bad: float = 0.0
    total: float = 0.0

    # -- budget -------------------------------------------------------------
    @property
    def allowed_bad(self) -> float:
        return self.spec.budget_fraction * self.total

    @property
    def budget_consumed(self) -> float:
        """Fraction of the error budget consumed (may exceed 1.0)."""
        allowed = self.allowed_bad
        if allowed <= 0:
            return 0.0 if self.bad <= 0 else float(len(self.verdicts) or 1)
        return self.bad / allowed

    @property
    def budget_remaining(self) -> float:
        return 1.0 - self.budget_consumed

    @property
    def exhausted(self) -> bool:
        return self.total > 0 and self.budget_consumed >= 1.0

    @property
    def compliance(self) -> float:
        """Achieved good fraction (1.0 when no events arrived)."""
        if self.total <= 0:
            return 1.0
        return self.good / self.total

    @property
    def minutes_lost(self) -> float:
        """SLO minutes lost: total duration of breached windows."""
        return sum((v.end - v.start) for v in self.verdicts
                   if v.breached) / 60.0

    @property
    def breached_windows(self) -> int:
        return sum(1 for v in self.verdicts if v.breached)

    def breached_exemplars(self) -> List[str]:
        """Deterministic union of exemplar trace IDs from breached
        windows — the traces to pull up when the budget went."""
        seen: Dict[str, None] = {}
        for v in self.verdicts:
            if v.breached:
                for trace_id in v.exemplars:
                    seen.setdefault(trace_id)
        return sorted(seen)

    def to_dict(self, include_windows: bool = True) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "spec": self.spec.to_dict(),
            "events": {
                "good": round(self.good, 6),
                "bad": round(self.bad, 6),
                "total": round(self.total, 6),
            },
            "compliance": round(self.compliance, 6),
            "budget": {
                "allowed_bad": round(self.allowed_bad, 6),
                "consumed": round(self.budget_consumed, 6),
                "remaining": round(self.budget_remaining, 6),
                "exhausted": self.exhausted,
            },
            "minutes_lost": round(self.minutes_lost, 6),
            "breached_windows": self.breached_windows,
            "alerts": [a.to_dict() for a in self.alerts],
            "breached_exemplars": self.breached_exemplars(),
        }
        if include_windows:
            out["windows"] = [v.to_dict() for v in self.verdicts]
        return out


# ---------------------------------------------------------------------------
# per-window event extraction
# ---------------------------------------------------------------------------
def _good_below_threshold(row: Mapping[str, Any],
                          threshold: float) -> float:
    """Estimated observations at or under ``threshold`` in one windowed
    histogram row (linear interpolation inside the containing bucket)."""
    good = 0.0
    lo = 0.0
    for bound_str, delta in row.get("buckets", ()):
        if not delta:
            if bound_str != "+Inf":
                lo = float(bound_str)
            continue
        if bound_str == "+Inf":
            # unbounded overflow bucket: nothing in it can be proven good
            break
        hi = float(bound_str)
        if hi <= threshold:
            good += delta
        elif lo < threshold:
            width = hi - lo
            frac = (threshold - lo) / width if width > 0 else 0.0
            good += delta * frac
            break
        else:
            break
        lo = hi
    return good


def _window_events(spec: SLOSpec, window: Window
                   ) -> tuple:
    """(good, total, exemplars) event estimates for one window."""
    if spec.kind == "latency":
        good = 0.0
        total = 0.0
        exemplars: List[str] = []
        for row in window.matching(spec.metric, dict(spec.labels)):
            if row.get("kind") != "histogram":
                continue
            total += float(row.get("count", 0))
            good += _good_below_threshold(row, spec.threshold)
            exemplars.extend(row.get("exemplars", ()))
        return good, total, sorted(set(exemplars))
    good = sum(float(row.get("delta", 0.0))
               for row in window.matching(spec.good,
                                          dict(spec.good_labels))
               if row.get("kind") == "counter")
    if spec.total:
        total = sum(float(row.get("delta", 0.0))
                    for row in window.matching(spec.total,
                                               dict(spec.total_labels))
                    if row.get("kind") == "counter")
        total = max(total, good)
    else:
        bad = sum(float(row.get("delta", 0.0))
                  for row in window.matching(spec.bad,
                                             dict(spec.bad_labels))
                  if row.get("kind") == "counter")
        total = good + bad
    return good, total, []


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------
def evaluate_slo(spec: SLOSpec, windows: Sequence[Window]) -> SLOResult:
    """Walk the windows and derive verdicts, budget, and alerts."""
    result = SLOResult(spec=spec)
    budget_fraction = spec.budget_fraction
    recent: List[WindowVerdict] = []
    for window in windows:
        good, total, exemplars = _window_events(spec, window)
        bad = max(0.0, total - good)
        if total > 0:
            burn = (bad / total) / budget_fraction
        else:
            burn = 0.0
        verdict = WindowVerdict(
            index=window.index, start=window.start, end=window.end,
            good=good, bad=bad, total=total, burn_rate=burn,
            breached=burn > 1.0, exemplars=list(exemplars))
        result.verdicts.append(verdict)
        result.good += good
        result.bad += bad
        result.total += total
        # fast burn: this window alone
        if total > 0 and burn >= spec.fast_burn:
            result.alerts.append(BurnAlert(
                slo=spec.name, severity="fast",
                window_index=window.index, fired_at=window.end,
                burn_rate=burn))
        # slow burn: aggregated over the trailing lookback
        recent.append(verdict)
        if len(recent) > spec.slow_windows:
            recent.pop(0)
        slow_total = sum(v.total for v in recent)
        slow_bad = sum(v.bad for v in recent)
        if slow_total > 0:
            slow_rate = (slow_bad / slow_total) / budget_fraction
            if slow_rate >= spec.slow_burn:
                result.alerts.append(BurnAlert(
                    slo=spec.name, severity="slow",
                    window_index=window.index, fired_at=window.end,
                    burn_rate=slow_rate))
    return result


def evaluate_slos(specs: Sequence[SLOSpec],
                  windows: Sequence[Window]) -> List[SLOResult]:
    """Evaluate every objective (in the given order) over one history."""
    return [evaluate_slo(spec, windows) for spec in specs]


# ---------------------------------------------------------------------------
# spec documents
# ---------------------------------------------------------------------------
def specs_from_dict(doc: Mapping[str, Any]) -> List[SLOSpec]:
    """Parse a spec document: ``{"slos": [{...}, ...]}`` (the ``--spec``
    file format of ``legion-sim slo``)."""
    raw = doc.get("slos")
    if not isinstance(raw, list) or not raw:
        raise ValueError("spec document needs a non-empty 'slos' list")
    return [SLOSpec.from_dict(entry) for entry in raw]


def specs_to_dict(specs: Sequence[SLOSpec]) -> Dict[str, Any]:
    return {"slos": [spec.to_dict() for spec in specs]}


def default_legion_slos() -> List[SLOSpec]:
    """The stock objectives for a Legion metasystem run.

    Fed by the placement instrumentation in
    :meth:`repro.scheduler.base.Scheduler.run` (``placement_seconds``,
    ``placement_requests_total``) and the Enactor's reservation
    counters — the signals the guardrails layer is designed to protect.
    """
    return [
        SLOSpec(
            name="placement-latency",
            kind="latency",
            target=0.95,
            metric="placement_seconds",
            threshold=1.0,
            description="95% of placement requests finish within 1 "
                        "virtual second"),
        SLOSpec(
            name="placement-success",
            kind="ratio",
            target=0.9,
            good="placement_requests_total",
            good_labels={"ok": "true"},
            total="placement_requests_total",
            description="90% of placement requests succeed"),
        SLOSpec(
            name="reservation-success",
            kind="ratio",
            target=0.85,
            good="enactor_reservations_granted_total",
            total="enactor_reservation_requests_total",
            description="85% of reservation RPCs are granted"),
    ]
