"""run_economy / run_economy_comparison: seeded economy experiments.

Mirrors :func:`repro.chaos.campaign.run_campaign`: build the standard
testbed, enable the economy (market pricing + budgets active for *every*
scheduler so metered costs are comparable), optionally arm a chaos
campaign and the guardrails, drive per-user placement waves, drain, and
aggregate an :class:`~repro.economy.report.EconomyReport`.

Deadline semantics are Nimrod/G's experiment deadline: each user's clock
starts at their first submission (t=0 here) and every one of their
instances must complete within ``deadline`` virtual seconds of that —
late completions *and* instances that were never created both count as
misses.  The comparison runner replays the identical seeded world under
Random, IRS, cost-aware, and the economy scheduler; common random
numbers make the deltas pure policy.

Imports of the testbed/metasystem layers happen inside the functions to
keep ``repro.economy`` importable without a cycle.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..campaign import (WAVE_DRAIN_STEP, drain, jobs_done, run_variants,
                        stable_round, standard_world)
from ..errors import LegionError
from .report import EconomyComparison, EconomyReport

__all__ = ["run_economy", "run_economy_comparison"]

#: scheduler kinds the comparison runner knows how to drive
BASELINES = ("random", "irs", "cost")


def _user_names(users: int) -> List[str]:
    return [f"u{i}" for i in range(users)]


def run_economy(scheduler: str = "economy",
                mode: str = "cost",
                seed: int = 0,
                chaos_profile: Optional[str] = None,
                chaos_seed: int = 0,
                guardrails: bool = False,
                retry: bool = False,
                users: int = 2,
                budget: float = 40.0,
                deadline: float = 900.0,
                waves: int = 6,
                per_wave: int = 2,
                work: float = 250.0,
                wave_interval: float = 90.0,
                deadline_safety: float = 0.6,
                n_domains: int = 3,
                hosts_per_domain: int = 6,
                platform_mix: int = 3,
                background_load: float = 0.5,
                drain_time: float = 4000.0,
                meta: Any = None) -> EconomyReport:
    """Run one seeded economy campaign and return its EconomyReport.

    ``scheduler`` is ``"economy"`` (auction-cleared, per-user
    budget/deadline boxes, ``mode`` selects time- or cost-optimize) or a
    baseline kind (``random``/``irs``/``cost``); the economy layer is
    enabled either way so every run meters identical market prices.
    Pass a prebuilt ``meta`` to reuse a custom testbed (it must not have
    chaos started yet).
    """
    from ..scheduler.base import ObjectClassRequest
    from ..workload.testbed import implementations_for_all_platforms

    if users < 1:
        raise ValueError("users must be >= 1")
    if meta is None:
        meta = standard_world(seed, n_domains, hosts_per_domain,
                              platform_mix, background_load)
    suite = meta.enable_economy()
    horizon = waves * wave_interval
    if guardrails:
        meta.enable_guardrails()
    if retry:
        meta.enable_retries()
    injector = None
    if chaos_profile:
        injector = meta.start_chaos(profile=chaos_profile,
                                    chaos_seed=chaos_seed,
                                    horizon=horizon)

    names = _user_names(users)
    apps: Dict[str, Any] = {}
    scheds: Dict[str, Any] = {}
    baseline_sched = None
    for name in names:
        suite.budgets.ensure(name, budget=budget, deadline=deadline)
        app = meta.create_class(f"econ-app-{name}",
                                implementations_for_all_platforms(),
                                work_units=work)
        apps[name] = app
        suite.budgets.register_class(app.loid, name)
        if scheduler == "economy":
            scheds[name] = meta.make_scheduler(
                "economy", mode=mode, user=name,
                deadline_safety=deadline_safety)
        else:
            if baseline_sched is None:
                if scheduler == "cost":
                    baseline_sched = meta.make_scheduler(
                        "cost", deadline=deadline)
                else:
                    baseline_sched = meta.make_scheduler(scheduler)
            scheds[name] = baseline_sched

    report = EconomyReport(
        scheduler=scheduler,
        mode=mode if scheduler == "economy" else "n/a",
        seed=seed, chaos_profile=chaos_profile, chaos_seed=chaos_seed,
        guardrails_enabled=guardrails, retry_enabled=retry,
        users=users, budget=budget, deadline=deadline,
        waves=waves, per_wave=per_wave, work=work,
        wave_interval=wave_interval, horizon=horizon,
        instances_requested=users * waves * per_wave)

    #: (user, instance_loid, submitted_at) for deadline audit
    placed: List[Tuple[str, Any, float]] = []
    t0 = meta.now
    for _wave in range(waves):
        for name in names:
            report.placement_attempts += 1
            try:
                outcome = scheds[name].run(
                    [ObjectClassRequest(apps[name], count=per_wave)])
            except LegionError:
                outcome = None
            if outcome is not None and outcome.ok:
                report.placement_successes += 1
                report.instances_created += len(outcome.created)
                now = meta.now
                for loid in outcome.created:
                    placed.append((name, loid, now))
        meta.advance(wave_interval)

    if meta.now < t0 + horizon:
        meta.advance(t0 + horizon - meta.now)
    if injector is not None:
        injector.teardown()

    # drain: let surviving jobs run out on a fault-free world
    drain(meta, jobs_done, drain_time, WAVE_DRAIN_STEP)

    # deadline audit: completion within the user's experiment deadline
    per_user: Dict[str, Dict[str, Any]] = {
        name: {"requested": waves * per_wave, "created": 0,
               "met": 0, "missed": 0}
        for name in names}
    for name, loid, _submitted in placed:
        per_user[name]["created"] += 1
        instance = apps[name].instances.get(loid)
        completed = (instance.attributes.get("completed_at")
                     if instance is not None else None)
        if completed is not None and completed - t0 <= deadline:
            per_user[name]["met"] += 1
            report.deadline_met += 1
        if completed is not None:
            report.instances_completed += 1
    for name in names:
        u = per_user[name]
        u["missed"] = u["requested"] - u["met"]
        account = suite.budgets.account(name)
        u["spent"] = stable_round(account.spent)
        u["overrun"] = stable_round(account.overrun)
        u["miss_rate"] = stable_round(u["missed"] / max(1, u["requested"]))
    report.deadline_missed = (report.instances_requested
                              - report.deadline_met)
    report.per_user = per_user

    report.total_cost = stable_round(suite.ledger.total)
    report.user_spend = stable_round(suite.budgets.total_spent)
    report.cost_overrun = stable_round(
        sum(a.overrun for a in suite.budgets.accounts.values()))
    report.budget_rejections = suite.budgets.rejections
    if scheduler == "economy":
        report.auction = suite.auction.to_dict()
        report.bid_escalations = sum(s.escalations
                                     for s in scheds.values())
    meta.metrics.set_gauge("economy_deadline_miss_rate",
                           report.deadline_miss_rate,
                           help="missed / requested for the last campaign",
                           scheduler=scheduler)
    return report


def run_economy_comparison(mode: str = "cost",
                           baselines: Tuple[str, ...] = BASELINES,
                           **kwargs) -> EconomyComparison:
    """Replay the identical seeded campaign under the economy scheduler
    and each baseline; the report dict feeds ``BENCH_economy.json``."""
    variants = {"economy": dict(scheduler="economy", mode=mode)}
    variants.update({kind: dict(scheduler=kind) for kind in baselines})
    return EconomyComparison(run_variants(run_economy, variants, **kwargs))
