"""EconomyReport / EconomyComparison: what the economy bought, exportable.

The deliverable of an economy campaign (GridSim-style broker evaluation,
PAPERS.md): per-user cost and budget state, deadline-miss rate, cost
overrun, auction efficiency — serialized with sorted keys and rounded
floats so a committed ``BENCH_economy.json`` is byte-stable across runs
of the same seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..audit.claims import Claim, failures, verdict_lines
from ..campaign import Comparison, Report, stable_round

__all__ = ["EconomyReport", "EconomyComparison"]


@dataclass
class EconomyReport(Report):
    """Aggregated outcome of one seeded economy campaign."""

    label = "EconomyReport"

    scheduler: str = "economy"
    mode: str = "cost"
    seed: int = 0
    chaos_profile: Optional[str] = None
    chaos_seed: int = 0
    guardrails_enabled: bool = False
    retry_enabled: bool = False

    users: int = 1
    budget: float = 0.0
    deadline: float = 0.0
    waves: int = 0
    per_wave: int = 0
    work: float = 0.0
    wave_interval: float = 0.0
    horizon: float = 0.0

    instances_requested: int = 0
    instances_created: int = 0
    instances_completed: int = 0
    deadline_met: int = 0
    deadline_missed: int = 0

    placement_attempts: int = 0
    placement_successes: int = 0
    budget_rejections: int = 0
    bid_escalations: int = 0

    #: ground-truth metered cost (accounting Ledger, host prices)
    total_cost: float = 0.0
    #: what users were charged (auction rates for bound instances)
    user_spend: float = 0.0
    cost_overrun: float = 0.0

    auction: Optional[Dict[str, Any]] = None
    per_user: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def deadline_miss_rate(self) -> float:
        """Missed / requested — never-created instances count as missed."""
        if self.instances_requested <= 0:
            return 0.0
        return self.deadline_missed / self.instances_requested

    @property
    def auction_efficiency(self) -> float:
        if not self.auction:
            return 1.0
        return float(self.auction.get("efficiency", 1.0))

    def to_dict(self) -> Dict[str, Any]:
        doc = super().to_dict()
        doc["deadline_miss_rate"] = stable_round(self.deadline_miss_rate)
        return doc

    def summary(self) -> str:
        lines = [
            f"economy campaign: scheduler={self.scheduler} "
            f"mode={self.mode} seed={self.seed} "
            f"chaos={self.chaos_profile or 'off'} "
            f"guardrails={'on' if self.guardrails_enabled else 'off'}",
            f"  instances: requested={self.instances_requested} "
            f"created={self.instances_created} "
            f"completed={self.instances_completed}",
            f"  deadline:  met={self.deadline_met} "
            f"missed={self.deadline_missed} "
            f"miss-rate={self.deadline_miss_rate:.3f}",
            f"  cost:      metered={self.total_cost:.4f} "
            f"user-spend={self.user_spend:.4f} "
            f"overrun={self.cost_overrun:.4f}",
        ]
        if self.auction:
            lines.append(
                f"  auction:   rounds={self.auction.get('rounds', 0)} "
                f"cleared={self.auction.get('cleared_rounds', 0)} "
                f"efficiency={self.auction_efficiency:.4f} "
                f"escalations={self.bid_escalations}")
        for name in sorted(self.per_user):
            u = self.per_user[name]
            lines.append(
                f"  user {name}: spent={u.get('spent', 0.0):.4f} "
                f"missed={u.get('missed', 0)}/{u.get('requested', 0)} "
                f"overrun={u.get('overrun', 0.0):.4f}")
        return "\n".join(lines)


class EconomyComparison(Comparison):
    """Economy vs. baseline schedulers on the identical seeded world."""

    label = "economy comparison"
    claims = (
        Claim("economy beats random on deadline-miss rate",
              "deadline_miss_rate", "lower", "economy", "random", gate=True),
        Claim("economy beats random on total cost", "total_cost", "lower",
              "economy", "random", gate=True),
        Claim("economy beats irs on deadline-miss rate",
              "deadline_miss_rate", "lower", "economy", "irs", gate=True),
        Claim("economy beats irs on total cost", "total_cost", "lower",
              "economy", "irs", gate=True),
        Claim("no user overspent their budget", "cost_overrun", "lower",
              "economy", 0, strict=False),
        Claim("auctions cleared", "auction.cleared_rounds", "higher",
              "economy", 0),
    )

    def verdict(self) -> Dict[str, Any]:
        arms = self.arms()
        gates = [claim for claim in self.claims if claim.gate]
        return {
            "economy_beats_baselines": not failures(gates, arms),
            "gate": {baseline: not failures(
                [claim for claim in gates if claim.baseline == baseline],
                arms) for baseline in sorted({c.baseline for c in gates})},
        }

    def summary(self) -> str:
        header = (f"{'scheduler':<12} {'miss-rate':>9} {'total-cost':>10} "
                  f"{'created':>7} {'completed':>9} {'spend':>9}")
        lines = [header, "-" * len(header)]
        for name in sorted(self.reports):
            r = self.reports[name]
            lines.append(
                f"{name:<12} {r.deadline_miss_rate:>9.3f} "
                f"{r.total_cost:>10.4f} {r.instances_created:>7} "
                f"{r.instances_completed:>9} {r.user_spend:>9.4f}")
        return "\n".join(lines + verdict_lines(self.claims, self.arms()))
