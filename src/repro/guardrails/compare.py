"""Three-way guardrails benchmark: off vs. retries-only vs. guardrails+retries.

Runs the *same* seeded chaos campaign three times — identical testbed
seed, identical fault timeline — flipping only the resilience layer:

* ``off``        — no retries, no guardrails (the PR 3 baseline)
* ``retries``    — RetryPolicy only (the PR 4 resilience layer)
* ``guardrails`` — guardrails + retries (this subsystem)

and reports survival alongside **wasted reservation attempts**
(reservations issued to hosts that were DOWN at issue time).  Retries
buy survival by paying extra rounds against dead hosts; guardrails keep
the survival while routing those rounds to live ones.  The JSON export
is the ``BENCH_guardrails.json`` resilience-trajectory datapoint and is
byte-stable for fixed seeds.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..campaign import Comparison, run_variants, stable_round

__all__ = ["MODES", "GuardrailsComparison", "run_comparison"]

#: what each benchmark mode switches on, in escalation order
MODE_FLAGS = {"off": dict(retry=False, guardrails=False),
              "retries": dict(retry=True, guardrails=False),
              "guardrails": dict(retry=True, guardrails=True)}
#: benchmark modes in escalation order
MODES = tuple(MODE_FLAGS)


class GuardrailsComparison(Comparison):
    """Reports for all three modes plus the derived benefit deltas."""

    reports_key = "modes"

    @property
    def label(self) -> str:
        return ("guardrails SLO comparison" if self.has_slo
                else "guardrails comparison")

    # -- derived -----------------------------------------------------------
    def survival(self, mode: str) -> float:
        return self.reports[mode].placement_success_rate

    def wasted(self, mode: str) -> int:
        return self.reports[mode].wasted_reservation_attempts

    @property
    def survival_delta(self) -> float:
        """guardrails+retries survival minus retries-only survival."""
        return self.survival("guardrails") - self.survival("retries")

    @property
    def wasted_delta(self) -> int:
        """wasted attempts saved by guardrails vs. retries-only."""
        return self.wasted("retries") - self.wasted("guardrails")

    @property
    def guardrails_improve(self) -> bool:
        """The acceptance-criterion predicate: survival no worse AND
        strictly fewer wasted reservation attempts."""
        return self.survival_delta >= 0 and self.wasted_delta > 0

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
                "survival_retries": self.survival("retries"),
                "survival_guardrails": self.survival("guardrails"),
                "survival_delta": self.survival_delta,
                "wasted_off": self.wasted("off"),
                "wasted_retries": self.wasted("retries"),
                "wasted_guardrails": self.wasted("guardrails"),
                "wasted_delta": self.wasted_delta,
                "guardrails_improve": self.guardrails_improve,
            },
        }
        # only present under sampling, so the committed pre-sampler
        # BENCH_guardrails.json ledger stays byte-identical
        if self.has_slo:
            doc["benefit"]["slo_minutes_off"] = self.slo_minutes("off")
            doc["benefit"]["slo_minutes_retries"] = \
                self.slo_minutes("retries")
            doc["benefit"]["slo_minutes_guardrails"] = \
                self.slo_minutes("guardrails")
            doc["benefit"]["slo_minutes_saved"] = stable_round(
                self.slo_minutes("off") - self.slo_minutes("guardrails"))
        return doc

    def problems(self) -> List[str]:
        """Sampled (``legion-sim slo --compare-guardrails``): guardrails
        must keep every error budget.  Unsampled (``legion-sim
        guardrails``): guardrails must not regress survival."""
        if self.has_slo:
            exhausted = self.reports["guardrails"].slo["exhausted"]
            return [f"{exhausted} error budget(s) exhausted with "
                    f"guardrails on"] if exhausted else []
        if self.survival_delta < 0:
            return [f"guardrails regressed survival by "
                    f"{-100.0 * self.survival_delta:.1f} percentage points"]
        return []

    def summary(self) -> str:
        first = self.reports["off"]
        lines = [
            f"guardrails benchmark {first.profile!r} "
            f"(chaos-seed {first.chaos_seed}, testbed-seed "
            f"{first.testbed_seed})",
            f"  {'mode':<12} {'survival':>9} {'wasted':>7} "
            f"{'shed':>5} {'opens':>6} {'retries':>8} {'completed':>10}",
        ]
        for mode in MODES:
            if mode not in self.reports:
                continue
            rep = self.reports[mode]
            lines.append(
                f"  {mode:<12} {100.0 * rep.placement_success_rate:>8.1f}% "
                f"{rep.wasted_reservation_attempts:>7} "
                f"{rep.load_shed:>5} "
                f"{rep.breaker_opens:>6} "
                f"{rep.transport_retries + rep.reservation_retries:>8} "
                f"{rep.instances_completed:>10}")
        lines.append(
            f"  benefit: survival {self.survival_delta:+.3f} vs retries, "
            f"wasted attempts {-self.wasted_delta:+d} "
            f"({'improves' if self.guardrails_improve else 'NO IMPROVEMENT'})")
        if self.has_slo:
            lines.append(
                f"  slo minutes lost: off {self.slo_minutes('off'):g}, "
                f"retries {self.slo_minutes('retries'):g}, "
                f"guardrails {self.slo_minutes('guardrails'):g}")
        return "\n".join(lines)


def run_comparison(profile: str = "hosts",
                   chaos_seed: int = 0,
                   seed: int = 0,
                   include_events: bool = False,
                   **campaign_kwargs: Any) -> GuardrailsComparison:
    """Run the off / retries-only / guardrails+retries triple.

    All three campaigns share every seed, so the fault timelines are
    identical and the comparison measures the policy, not the luck.
    Extra keyword arguments flow through to
    :func:`~repro.chaos.campaign.run_campaign`.
    """
    from ..chaos.campaign import run_campaign

    return GuardrailsComparison(run_variants(
        run_campaign, MODE_FLAGS, profile=profile, chaos_seed=chaos_seed,
        seed=seed, include_events=include_events, **campaign_kwargs))
