"""Guardrails benchmark: off vs. guardrails+retries.

Runs the *same* seeded chaos campaign twice — identical testbed seed,
identical fault timeline — flipping only the resilience layers:

* ``off``        — no retries, no guardrails
* ``guardrails`` — guardrails + retries (this subsystem)

and reports survival alongside **wasted reservation attempts**
(reservations issued to hosts that were DOWN at issue time): guardrails
keep the survival while routing reservation rounds away from dead
hosts.  The JSON export is the ``BENCH_guardrails.json``
resilience-trajectory datapoint and is byte-stable for fixed seeds.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Mapping

from ..audit.claims import Claim, failures, verdict_lines
from ..campaign import Comparison, run_variants, stable_round

__all__ = ["CLAIMS", "SLO_CLAIMS", "GuardrailsComparison",
           "run_comparison"]

#: what each benchmark mode switches on, in escalation order
MODE_FLAGS = {"off": dict(retry=False, guardrails=False),
              "guardrails": dict(retry=True, guardrails=True)}

#: both hold = ``guardrails_improve``
SURVIVAL = Claim("guardrails keep survival", "placement.success_rate",
                 "higher", "guardrails", "off", strict=False)
WASTED = Claim("guardrails waste fewer reservation attempts",
               "guardrails.wasted_reservation_attempts", "lower",
               "guardrails", "off")
#: ``legion-sim guardrails``: guardrails must not regress survival
CLAIMS = (replace(SURVIVAL, gate=True), WASTED)
#: ``legion-sim slo --compare-guardrails``: guardrails must keep every
#: error budget
SLO_CLAIMS = (SURVIVAL, WASTED,
              Claim("no error budget exhausted with guardrails on",
                    "slo.exhausted", "lower", "guardrails", 0,
                    strict=False, gate=True))


class GuardrailsComparison(Comparison):
    """Reports for both modes plus the derived benefit deltas."""

    reports_key = "modes"
    claims = CLAIMS

    def __init__(self, reports: Mapping[str, Any]) -> None:
        super().__init__(reports)
        if self.has_slo:
            self.claims = SLO_CLAIMS

    @property
    def label(self) -> str:
        return ("guardrails SLO comparison" if self.has_slo
                else "guardrails comparison")

    # -- derived -----------------------------------------------------------
    def survival(self, mode: str) -> float:
        return self.reports[mode].placement["success_rate"]

    def wasted(self, mode: str) -> int:
        return self.reports[mode].guardrails["wasted_reservation_attempts"]

    def slo_minutes(self, mode: str) -> float:
        """SLO minutes lost in ``mode`` (0.0 when sampling was off)."""
        return float(self.reports[mode].slo.get("minutes_lost", 0.0))

    @property
    def has_slo(self) -> bool:
        """True when every mode ran with the metrics sampler armed."""
        return all(rep.slo for rep in self.reports.values()) \
            and bool(self.reports)

    def verdict(self) -> Dict[str, Any]:
        first = self.reports["off"]
        doc = {
            "profile": first.profile,
            "chaos_seed": first.chaos_seed,
            "testbed_seed": first.testbed_seed,
            "benefit": {
                "survival_off": self.survival("off"),
                "survival_guardrails": self.survival("guardrails"),
                "survival_delta":
                    self.survival("guardrails") - self.survival("off"),
                "wasted_off": self.wasted("off"),
                "wasted_guardrails": self.wasted("guardrails"),
                "wasted_delta":
                    self.wasted("off") - self.wasted("guardrails"),
                "guardrails_improve": not failures((SURVIVAL, WASTED),
                                                   self.arms()),
            },
        }
        # only present under sampling, so the committed pre-sampler
        # BENCH_guardrails.json ledger stays byte-identical
        if self.has_slo:
            doc["benefit"]["slo_minutes_off"] = self.slo_minutes("off")
            doc["benefit"]["slo_minutes_guardrails"] = \
                self.slo_minutes("guardrails")
            doc["benefit"]["slo_minutes_saved"] = stable_round(
                self.slo_minutes("off") - self.slo_minutes("guardrails"))
        return doc

    def summary(self) -> str:
        first = self.reports["off"]
        lines = [
            f"guardrails benchmark {first.profile!r} "
            f"(chaos-seed {first.chaos_seed}, testbed-seed "
            f"{first.testbed_seed})",
            f"  {'mode':<12} {'survival':>9} {'wasted':>7} "
            f"{'shed':>5} {'opens':>6} {'retries':>8} {'completed':>10}",
        ]
        for mode, rep in self.reports.items():
            guard = rep.guardrails
            lines.append(
                f"  {mode:<12} {100.0 * self.survival(mode):>8.1f}% "
                f"{guard['wasted_reservation_attempts']:>7} "
                f"{guard['load_shed']:>5} "
                f"{guard['breaker_opens']:>6} "
                f"{sum(rep.retries.values()):>8} "
                f"{rep.work['instances_completed']:>10}")
        if self.has_slo:
            lines.append(
                f"  slo minutes lost: off {self.slo_minutes('off'):g}, "
                f"guardrails {self.slo_minutes('guardrails'):g}")
        return "\n".join(lines + verdict_lines(self.claims, self.arms()))


def run_comparison(profile: str = "hosts",
                   chaos_seed: int = 0,
                   seed: int = 0,
                   include_events: bool = False,
                   **campaign_kwargs: Any) -> GuardrailsComparison:
    """Run the off / guardrails+retries pair.

    Both campaigns share every seed, so the fault timelines are
    identical and the comparison measures the policy, not the luck.
    Extra keyword arguments flow through to
    :func:`~repro.chaos.campaign.run_campaign`.
    """
    from ..chaos.campaign import run_campaign

    return GuardrailsComparison(run_variants(
        run_campaign, MODE_FLAGS, profile=profile, chaos_seed=chaos_seed,
        seed=seed, include_events=include_events, **campaign_kwargs))
