"""ResilienceReport: what survived a chaos campaign, with JSON export.

The report is the campaign's measurable outcome — the "resilience
trajectory" datapoint written to ``BENCH_chaos.json`` by CI.  All
fields are plain data and the JSON export sorts keys, so two runs with
the same seeds produce byte-identical documents (pinned by
``tests/test_chaos.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..audit.claims import Claim, verdict_lines
from ..campaign import Comparison, Report

__all__ = ["ResilienceReport", "RetryComparison"]


@dataclass
class ResilienceReport(Report):
    """Aggregated survival metrics for one campaign run.  Each ledger
    block is a dict field, so code reads a number by the dotted name a
    claim reads it by (``rep.guardrails["wasted_reservation_attempts"]``)."""

    label = "ResilienceReport"

    profile: str = ""
    chaos_seed: int = 0
    testbed_seed: int = 0
    scheduler: str = ""
    retry_enabled: bool = False
    horizon: float = 0.0
    waves: int = 0
    per_wave: int = 0

    #: placement under fire; ``placements`` holds the host names chosen
    #: per successful wave (empty list = failed wave)
    placement: Dict[str, Any] = field(default_factory=dict)
    #: work completed vs. lost
    work: Dict[str, Any] = field(default_factory=dict)
    #: resilience machinery: transport and reservation retries
    retries: Dict[str, int] = field(default_factory=dict)
    #: guardrails machinery; wasted_reservation_attempts is counted in
    #: every mode — it is the benchmark's comparison metric
    guardrails: Dict[str, Any] = field(default_factory=dict)
    #: fault accounting (from ChaosInjector.stats(), less the lost work)
    faults: Dict[str, Any] = field(default_factory=dict)

    #: SLO summary when the campaign armed a metrics sampler
    #: (``sampler_window`` > 0): minutes lost, alert count, budget
    #: consumption per objective.  Empty when sampling was off, and
    #: omitted from :meth:`to_dict` then so pre-sampler benchmark
    #: ledgers stay byte-identical.
    slo: Dict[str, Any] = field(default_factory=dict)

    #: full per-fault event log (FaultRecord.to_dict())
    events: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        doc = super().to_dict()
        if not self.slo:
            del doc["slo"]
        return doc

    def problems(self) -> List[str]:
        """The campaign gate: teardown must leave no fault behind."""
        residual = self.faults["residual_faults"]
        if not residual:
            return []
        return [f"{len(residual)} residual fault(s) survived teardown"]

    def summary(self) -> str:
        """A compact human-readable digest for the CLI."""
        placement, work, faults = self.placement, self.work, self.faults
        guard = self.guardrails
        lines = [
            f"chaos campaign {self.profile!r} "
            f"(chaos-seed {self.chaos_seed}, horizon {self.horizon:.0f}s, "
            f"retry {'on' if self.retry_enabled else 'off'})",
            f"  faults             {sum(faults['injected'].values())} "
            f"injected / {sum(faults['reverted'].values())} "
            f"reverted / {faults['skipped']} skipped "
            f"(of {faults['planned']} planned)",
            f"  forced repairs     {faults['forced_repairs']}",
            f"  residual faults    {len(faults['residual_faults'])}",
            f"  placement          {placement['successes']}/"
            f"{placement['attempts']} waves ok "
            f"({100.0 * placement['success_rate']:.1f}%)",
            f"  instances          {placement['instances_created']} "
            f"created, {work['instances_completed']} completed, "
            f"{work['jobs_lost']} job(s) lost "
            f"({work['work_lost']:.0f} work units)",
            f"  retries            transport {self.retries['transport']}, "
            f"reservation {self.retries['reservation']}",
            f"  guardrails         "
            f"{'on' if guard['enabled'] else 'off'}: "
            f"{guard['wasted_reservation_attempts']} wasted "
            f"reservation(s), {guard['load_shed']} shed, "
            f"{guard['breaker_opens']} breaker open(s), "
            f"{guard['breaker_fast_fails']} fast-fail(s)",
            f"  MTTR               mean {faults['mttr_mean']:.1f}s, "
            f"max {faults['mttr_max']:.1f}s",
        ]
        if self.slo:
            lines.append(
                f"  slo                {self.slo['minutes_lost']:g} "
                f"minute(s) lost, {self.slo['alerts']} burn alert(s), "
                f"{self.slo['exhausted']} budget(s) exhausted "
                f"(window {self.slo['window_seconds']:g}s)")
        return "\n".join(lines)


class RetryComparison(Comparison):
    """The identical campaign with the RetryPolicy off (``"off"``) then
    on (``"retry"``) — what ``legion-sim chaos --compare-retry`` prints."""

    label = "retry comparison"
    claims = (
        Claim("faults were injected", "faults.injected", "higher", "retry",
              0),
        Claim("retries fired", "retries", "higher", "retry", 0),
        Claim("retry places more waves than off", "placement.successes",
              "higher", "retry", "off"),
    )

    def problems(self) -> List[str]:
        return super().problems() + max(
            self.reports.values(),
            key=lambda rep: len(rep.faults["residual_faults"])).problems()

    def summary(self) -> str:
        return "\n\n".join([self.reports["off"].summary(),
                            self.reports["retry"].summary(),
                            "\n".join(verdict_lines(self.claims,
                                                     self.arms()))])
