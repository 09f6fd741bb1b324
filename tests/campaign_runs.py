"""Shrunk runs of every ledger campaign, each handing back its world.

``CAMPAIGNS`` maps a name to ``run(tracing) -> (meta, report)``: the
campaign behind each committed ``BENCH_*.json`` at a size tier-1 can
afford, on a world built at the given tracing level.  The step-order
audit reads the spans of each (``test_protocol_audit.py``) and the
obs-level invariance gate compares them across levels
(``test_determinism.py``).  A runner that takes ``meta=`` gets its world
that way; ``run_gameday`` and ``run_scale`` build their own, so the
world builder they call is wrapped instead.
"""

import dataclasses
from unittest import mock

from repro.bench import run_scale
from repro.campaign import standard_world
from repro.chaos import run_campaign
from repro.economy import run_economy
from repro.recovery import gameday
from repro.service import run_service
from repro.workload import testbed

#: seed, domains, hosts per domain, platforms, background load
SMALL_WORLD = (3, 2, 4, 2, 0.5)


def chaos(tracing):
    meta = standard_world(*SMALL_WORLD, tracing=tracing)
    return meta, run_campaign(
        profile="lossy", chaos_seed=9, seed=3, waves=4, per_wave=3,
        retry=True, meta=meta)


def guardrails(tracing):
    meta = standard_world(*SMALL_WORLD, tracing=tracing)
    return meta, run_campaign(
        profile="hosts", seed=3, waves=4, per_wave=3, retry=True,
        guardrails=True, include_events=False, meta=meta)


def economy(tracing):
    meta = standard_world(*SMALL_WORLD, tracing=tracing)
    return meta, run_economy(
        mode="cost", seed=3, chaos_profile="lossy", guardrails=True,
        retry=True, waves=4, per_wave=3, users=2, meta=meta)


def service(tracing):
    meta = standard_world(7, 3, 6, 3, 0.3, host_slots=8,
                          sampler_window=30.0, tracing=tracing)
    return meta, run_service(seed=7, duration=240.0, meta=meta)


def gameday_restored(tracing):
    built = []

    def world(*args, **spec):
        built.append(standard_world(*args, tracing=tracing, **spec))
        return built[-1]

    with mock.patch.object(gameday, "standard_world", world):
        report = gameday.run_gameday(seed=7, duration=240.0,
                                     checkpoint_at=180.0)
    meta, = built
    return meta, report


def scale(tracing):
    built = []
    build_testbed = testbed.build_testbed

    def world(spec):
        built.append(build_testbed(dataclasses.replace(spec, tracing=tracing)))
        return built[-1]

    with mock.patch.object(testbed, "build_testbed", world):
        report = run_scale(sizes=(64,))
    meta, = built
    return meta, report


CAMPAIGNS = {
    "chaos": chaos,
    "guardrails": guardrails,
    "economy": economy,
    "service": service,
    "gameday": gameday_restored,
    "scale": scale,
}
