"""run_campaign: a complete seeded chaos experiment over a testbed.

Builds the standard testbed, arms a generated campaign, drives placement
waves through a Scheduler while faults land, tears the injector down,
and aggregates everything into a
:class:`~repro.chaos.report.ResilienceReport`.  This is the engine
behind ``legion-sim chaos`` and the determinism/retry-benefit tests.

Imports of the testbed/metasystem layers happen inside the function to
keep ``repro.chaos`` importable without a cycle
(metasystem → chaos → testbed → metasystem).
"""

from __future__ import annotations

from typing import Any, Optional

from ..campaign import (WAVE_DRAIN_STEP, drain, jobs_done, run_variants,
                        slo_block, standard_world)
from ..errors import LegionError
from .report import ResilienceReport, RetryComparison

__all__ = ["run_campaign", "run_retry_comparison"]


def run_campaign(profile: str = "mixed",
                 chaos_seed: int = 0,
                 seed: int = 0,
                 scheduler: str = "irs",
                 waves: int = 6,
                 per_wave: int = 4,
                 work: float = 250.0,
                 wave_interval: float = 90.0,
                 horizon: Optional[float] = None,
                 retry: bool = False,
                 guardrails: bool = False,
                 n_domains: int = 3,
                 hosts_per_domain: int = 6,
                 platform_mix: int = 3,
                 background_load: float = 0.5,
                 shards: int = 0,
                 drain_time: float = 4000.0,
                 include_events: bool = True,
                 sampler_window: float = 0.0,
                 meta: Any = None) -> ResilienceReport:
    """Run one seeded campaign and return its ResilienceReport.

    ``retry`` flips the resilience layer
    (:meth:`~repro.metasystem.Metasystem.enable_retries`) and
    ``guardrails`` the failure-detection layer
    (:meth:`~repro.metasystem.Metasystem.enable_guardrails`) — the
    fault timeline is identical either way, so flipping either knob
    measures the policy, not different luck.  Pass a prebuilt ``meta``
    to reuse a custom testbed (it must not have chaos started yet).
    """
    from ..scheduler.base import ObjectClassRequest
    from ..workload.testbed import implementations_for_all_platforms

    if meta is None:
        meta = standard_world(seed, n_domains, hosts_per_domain,
                              platform_mix, background_load,
                              federation_shards=shards)
    if horizon is None:
        horizon = waves * wave_interval
    if sampler_window and meta.sampler is None:
        meta.start_sampler(window=sampler_window)
    if guardrails:
        meta.enable_guardrails()
    if retry:
        meta.enable_retries()
    injector = meta.start_chaos(profile=profile, chaos_seed=chaos_seed,
                                horizon=horizon)

    app = meta.create_class("chaos-app",
                            implementations_for_all_platforms(),
                            work_units=work)
    sched = meta.make_scheduler(scheduler)

    report = ResilienceReport(
        profile=profile, chaos_seed=chaos_seed, testbed_seed=seed,
        scheduler=scheduler, retry_enabled=retry,
        guardrails_enabled=guardrails, horizon=horizon,
        waves=waves, per_wave=per_wave,
        instances_requested=waves * per_wave)

    for _wave in range(waves):
        report.placement_attempts += 1
        try:
            outcome = sched.run([ObjectClassRequest(app, count=per_wave)])
        except LegionError:
            outcome = None
        if outcome is not None and outcome.ok:
            report.placement_successes += 1
            report.instances_created += len(outcome.created)
            hosts = []
            for mapping in outcome.feedback.reserved_entries:
                host = meta.resolve(mapping.host_loid)
                hosts.append(host.machine.name if host is not None
                             else str(mapping.host_loid))
            report.placements.append(sorted(hosts))
        else:
            report.placements.append([])
        meta.advance(wave_interval)

    if meta.now < horizon:
        meta.advance(horizon - meta.now)
    injector.teardown()

    # drain: let surviving jobs run to completion on a fault-free world
    drain(meta, jobs_done, drain_time, WAVE_DRAIN_STEP)

    stats = injector.stats()
    report.instances_completed = sum(h.machine.completed_jobs
                                     for h in meta.hosts)
    report.jobs_lost = stats["jobs_lost"]
    report.work_lost = stats["work_lost"]
    report.transport_retries = meta.transport.retries
    report.reservation_retries = meta.enactor.stats.reservation_retries
    # counted in every mode — the benchmark's comparison metric
    report.wasted_reservation_attempts = \
        meta.enactor.stats.wasted_reservation_attempts
    report.load_shed = meta.enactor.stats.load_shed
    if meta.guardrails is not None:
        report.breaker_opens = meta.guardrails.board.total_opens()
        report.breaker_fast_fails = meta.guardrails.board.total_fast_fails()
        report.health_transitions = meta.guardrails.monitor.transitions
        report.admission_rejections = meta.guardrails.admission.rejections
    report.faults_planned = stats["planned"]
    report.faults_injected = stats["injected"]
    report.faults_reverted = stats["reverted"]
    report.faults_skipped = stats["skipped"]
    report.fault_errors = stats["errors"]
    report.forced_repairs = stats["forced_repairs"]
    report.residual_faults = stats["residual_faults"]
    report.mttr_mean = stats["mttr_mean"]
    report.mttr_max = stats["mttr_max"]
    if meta.sampler is not None:
        report.slo, _ = slo_block(meta, meta.default_slos())
    if include_events:
        report.events = [r.to_dict() for r in injector.records]
    return report


def run_retry_comparison(**campaign_kwargs: Any) -> RetryComparison:
    """Run the identical seeded campaign retry-off then retry-on; extra
    keyword arguments flow through to :func:`run_campaign`."""
    return RetryComparison(run_variants(
        run_campaign, {"off": dict(retry=False), "retry": dict(retry=True)},
        **campaign_kwargs))
