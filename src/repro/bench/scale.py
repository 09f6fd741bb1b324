"""The scale campaign: the ``BENCH_scale.json`` ledger.

Legion was "intended to connect many thousands, perhaps millions, of
hosts".  This campaign runs one fixed, seeded sequence of placement
waves on testbeds of growing size and records what the model computes
at each size: placements, instances, virtual seconds, kernel events,
messages, Collection queries and viable-cache hits.  Every field is
deterministic, so ``legion-sim ledger check scale`` byte-compares the
ledger like every other one.  How fast the simulator itself runs is
measured by ``benchmarks/perf``, not here.

Regenerate the committed ledger with::

   legion-sim ledger write scale
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Sequence

from ..campaign import Report, stable_round
from .harness import ExperimentTable

__all__ = ["DEFAULT_SIZES", "ScaleDatapoint", "ScaleReport", "run_scale"]

#: committed-ledger system sizes (total hosts)
DEFAULT_SIZES = (64, 256, 1024)

#: virtual seconds between waves
WAVE_INTERVAL = 60.0


@dataclass
class ScaleDatapoint:
    """One system size's ledger entry."""

    hosts: int
    waves: int
    per_wave: int
    seed: int
    scheduler: str
    placements: int
    instances: int
    virtual_s: float
    events: int
    messages: int
    collection_queries: int
    viable_cache_hits: int


@dataclass
class ScaleReport(Report):
    """The wave workload at every size, smallest first."""

    label = "scale ledger"

    points: List[ScaleDatapoint]

    def to_dict(self) -> Dict[str, Any]:
        return {"sizes": [asdict(p) for p in self.points]}

    def summary(self) -> str:
        table = ExperimentTable(
            "scale — placement waves vs system size",
            ["hosts", "placements", "instances", "virtual s", "events",
             "messages", "queries", "cache hits"])
        for p in self.points:
            table.add(p.hosts, p.placements, p.instances, p.virtual_s,
                      p.events, p.messages, p.collection_queries,
                      p.viable_cache_hits)
        return table.render()

    def problems(self) -> List[str]:
        """Every burst placed, and every burst's second lookup hit the
        viable-hosts cache."""
        problems: List[str] = []
        for p in self.points:
            if p.placements != 2 * p.waves:
                problems.append(f"{p.hosts} hosts: {p.placements} of "
                                f"{2 * p.waves} burst requests placed")
            if p.viable_cache_hits < p.waves:
                problems.append(f"{p.hosts} hosts: {p.viable_cache_hits} "
                                f"viable-cache hits over {p.waves} bursts")
        return problems


def run_scale(sizes: Sequence[int] = DEFAULT_SIZES, waves: int = 4,
              per_wave: int = 6, seed: int = 0,
              scheduler: str = "irs") -> ScaleReport:
    """Run the seeded wave workload at each system size.

    Sizes must be divisible by 4 (the testbed uses four domains).
    """
    from ..scheduler.base import ObjectClassRequest
    # looked up on the module at call time, so a test can wrap it
    from ..workload import testbed

    points: List[ScaleDatapoint] = []
    for n in sizes:
        if n % 4:
            raise ValueError(f"size {n} not divisible by 4 domains")
        meta = testbed.build_testbed(testbed.TestbedSpec(
            seed=seed, n_domains=4, hosts_per_domain=n // 4,
            platform_mix=3, background_load_mean=0.5))
        app = meta.create_class("scale-app",
                                testbed.implementations_for_all_platforms(),
                                work_units=100.0)
        sched = meta.make_scheduler(scheduler)
        v0 = meta.now
        e0 = meta.sim.events_processed
        m0 = meta.transport.messages_sent
        placements = instances = 0
        for _wave in range(waves):
            # each wave is a burst of two back-to-back requests (two
            # users submitting in the same instant): the second request
            # exercises the Scheduler's viable-hosts cache, while the
            # advance between waves refreshes host attributes and so
            # forces revalidation
            for _burst in range(2):
                outcome = sched.run(
                    [ObjectClassRequest(app, count=per_wave)])
                if outcome.ok:
                    placements += 1
                    instances += len(outcome.created)
            meta.advance(WAVE_INTERVAL)
        points.append(ScaleDatapoint(
            hosts=n, waves=waves, per_wave=per_wave, seed=seed,
            scheduler=scheduler, placements=placements,
            instances=instances, virtual_s=stable_round(meta.now - v0),
            events=meta.sim.events_processed - e0,
            messages=meta.transport.messages_sent - m0,
            collection_queries=sched.collection_queries,
            viable_cache_hits=sched.viable_cache_hits))
    return ScaleReport(points)
