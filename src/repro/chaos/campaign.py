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

    successes = created = 0
    placements = []
    for _wave in range(waves):
        try:
            outcome = sched.run([ObjectClassRequest(app, count=per_wave)])
        except LegionError:
            outcome = None
        hosts = []  # an empty list = a failed wave
        if outcome is not None and outcome.ok:
            successes += 1
            created += len(outcome.created)
            for mapping in outcome.feedback.reserved_entries:
                host = meta.resolve(mapping.host_loid)
                hosts.append(host.machine.name if host is not None
                             else str(mapping.host_loid))
        placements.append(sorted(hosts))
        meta.advance(wave_interval)

    if meta.now < horizon:
        meta.advance(horizon - meta.now)
    injector.teardown()

    # drain: let surviving jobs run to completion on a fault-free world
    drain(meta, jobs_done, drain_time, WAVE_DRAIN_STEP)

    faults = injector.stats()
    enactor = meta.enactor.stats
    suite = meta.guardrails
    return ResilienceReport(
        profile=profile, chaos_seed=chaos_seed, testbed_seed=seed,
        scheduler=scheduler, retry_enabled=retry, horizon=horizon,
        waves=waves, per_wave=per_wave,
        placement={"attempts": waves, "successes": successes,
                   "success_rate": successes / waves if waves else 0.0,
                   "instances_requested": waves * per_wave,
                   "instances_created": created, "placements": placements},
        work={"instances_completed": sum(h.machine.completed_jobs
                                         for h in meta.hosts),
              "jobs_lost": faults.pop("jobs_lost"),
              "work_lost": faults.pop("work_lost")},
        retries={"transport": meta.transport.retries,
                 "reservation": enactor.reservation_retries},
        guardrails={
            "enabled": guardrails,
            # counted in every mode — the benchmark's comparison metric
            "wasted_reservation_attempts":
                enactor.wasted_reservation_attempts,
            "load_shed": enactor.load_shed,
            "breaker_opens": suite.board.total_opens() if suite else 0,
            "breaker_fast_fails":
                suite.board.total_fast_fails() if suite else 0,
            "health_transitions":
                suite.monitor.transitions if suite else 0,
            "admission_rejections":
                suite.admission.rejections if suite else 0},
        faults=faults,
        slo=(slo_block(meta, meta.default_slos())[0]
             if meta.sampler is not None else {}),
        events=([r.to_dict() for r in injector.records]
                if include_events else []))


def run_retry_comparison(**campaign_kwargs: Any) -> RetryComparison:
    """Run the identical seeded campaign retry-off then retry-on; extra
    keyword arguments flow through to :func:`run_campaign`."""
    return RetryComparison(run_variants(
        run_campaign, {"off": dict(retry=False), "retry": dict(retry=True)},
        **campaign_kwargs))
