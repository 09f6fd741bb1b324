"""Declarative fault timelines and seeded campaign generators.

A :class:`ChaosPlan` is a sorted list of :class:`FaultEvent`\\ s — pure
data, independent of any live metasystem — that the
:class:`~repro.chaos.injector.ChaosInjector` schedules on the virtual
clock.  Plans come from two places:

* **hand-written timelines** for scripted scenarios (tests, demos):
  ``ChaosPlan([FaultEvent(at=30, kind="host_crash", target="dom0-ws1",
  duration=60)])``;
* **seeded campaign generation** (:func:`generate_campaign`): each
  (fault class, target) pair gets its own named RNG stream from a
  registry rooted at the campaign seed, and outages arrive as a renewal
  process — exponential MTBF gaps between exponential-MTTR busy periods
  — so per-target faults never overlap and the same seed over the same
  testbed yields a byte-identical campaign regardless of what else the
  simulation does (common random numbers discipline, as in
  :mod:`repro.sim.rng`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..errors import ChaosError
from ..sim.rng import RngRegistry, derive_seed

if TYPE_CHECKING:  # pragma: no cover
    from ..metasystem import Metasystem

__all__ = [
    "FaultEvent",
    "FaultClassConfig",
    "CampaignConfig",
    "ChaosPlan",
    "PROFILES",
    "generate_campaign",
]


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: apply at ``at``, revert ``duration`` later.

    ``duration=0`` means the fault persists until injector teardown
    (one-shot repair kinds ignore duration entirely)."""

    at: float
    kind: str
    target: str = ""
    duration: float = 0.0
    magnitude: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"at": self.at, "kind": self.kind, "target": self.target,
                "duration": self.duration, "magnitude": self.magnitude}


@dataclass(frozen=True)
class FaultClassConfig:
    """Renewal-process parameters for one fault class.

    ``mtbf`` is the mean gap between outages *per target*; ``mttr`` the
    mean outage duration; ``magnitude`` the (lo, hi) uniform range for
    the fault's intensity (loss probability, latency factor, load delta).
    """

    mtbf: float
    mttr: float
    magnitude: Tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.mtbf <= 0 or self.mttr <= 0:
            raise ValueError("mtbf and mttr must be positive")


@dataclass(frozen=True)
class CampaignConfig:
    """A full campaign: a horizon plus per-fault-class renewal configs."""

    horizon: float = 600.0
    classes: Dict[str, FaultClassConfig] = field(default_factory=dict)

    def with_horizon(self, horizon: float) -> "CampaignConfig":
        return replace(self, horizon=float(horizon))


@dataclass
class ChaosPlan:
    """A sorted, serializable fault timeline."""

    events: List[FaultEvent] = field(default_factory=list)
    horizon: float = 0.0
    seed: int = 0
    profile: str = ""

    def __post_init__(self) -> None:
        from .faults import FAULT_CLASSES
        for event in self.events:
            if event.kind not in FAULT_CLASSES:
                raise ChaosError(f"unknown fault kind {event.kind!r}")
            if event.at < 0 or event.duration < 0:
                raise ChaosError(
                    f"event times must be non-negative: {event}")
        self.events = sorted(self.events,
                             key=lambda e: (e.at, e.kind, e.target))
        if not self.horizon and self.events:
            self.horizon = max(e.at + e.duration for e in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def counts_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {"horizon": self.horizon, "seed": self.seed,
                "profile": self.profile,
                "events": [e.to_dict() for e in self.events]}


#: named campaign shapes for the CLI / testbed knob.  MTBF/MTTR are per
#: target, in virtual seconds.
PROFILES: Dict[str, CampaignConfig] = {
    "light": CampaignConfig(horizon=600.0, classes={
        "host_crash": FaultClassConfig(mtbf=1200.0, mttr=60.0),
    }),
    "hosts": CampaignConfig(horizon=600.0, classes={
        "host_crash": FaultClassConfig(mtbf=400.0, mttr=90.0),
    }),
    "partitions": CampaignConfig(horizon=600.0, classes={
        "domain_partition": FaultClassConfig(mtbf=500.0, mttr=80.0),
    }),
    "lossy": CampaignConfig(horizon=600.0, classes={
        "message_loss_spike": FaultClassConfig(
            mtbf=150.0, mttr=150.0, magnitude=(0.35, 0.6)),
    }),
    "mixed": CampaignConfig(horizon=600.0, classes={
        "host_crash": FaultClassConfig(mtbf=900.0, mttr=80.0),
        "domain_partition": FaultClassConfig(mtbf=1000.0, mttr=70.0),
        "message_loss_spike": FaultClassConfig(
            mtbf=300.0, mttr=100.0, magnitude=(0.25, 0.5)),
        "latency_spike": FaultClassConfig(
            mtbf=500.0, mttr=90.0, magnitude=(2.0, 5.0)),
        "load_surge": FaultClassConfig(
            mtbf=400.0, mttr=120.0, magnitude=(2.0, 6.0)),
    }),
    "heavy": CampaignConfig(horizon=600.0, classes={
        "host_crash": FaultClassConfig(mtbf=300.0, mttr=100.0),
        "domain_partition": FaultClassConfig(mtbf=400.0, mttr=90.0),
        "message_loss_spike": FaultClassConfig(
            mtbf=150.0, mttr=130.0, magnitude=(0.4, 0.7)),
        "latency_spike": FaultClassConfig(
            mtbf=300.0, mttr=100.0, magnitude=(3.0, 8.0)),
        "load_surge": FaultClassConfig(
            mtbf=200.0, mttr=150.0, magnitude=(3.0, 8.0)),
        "shard_outage": FaultClassConfig(mtbf=500.0, mttr=120.0),
    }),
}


def _targets_for(meta: "Metasystem", kind: str) -> List[str]:
    """Deterministic target universe for one fault class."""
    if kind in ("host_crash", "load_surge"):
        return sorted(h.machine.name for h in meta.hosts)
    if kind == "domain_partition":
        names = sorted(d.name for d in meta.topology.domains())
        return [f"{a}|{b}" for a, b in combinations(names, 2)]
    if kind in ("message_loss_spike", "latency_spike"):
        return [""]  # transport-wide
    if kind == "shard_outage":
        if meta.federation_config is None:
            return []
        return sorted(s.shard_id for s in meta.collection_shards)
    if kind in ("worker_crash", "worker_revive"):
        if meta.service is None:
            return []
        return [f"worker-{i}" for i in range(meta.service.pool.size)]
    raise ChaosError(f"unknown fault kind {kind!r}")


def generate_campaign(meta: "Metasystem",
                      config: CampaignConfig,
                      seed: int = 0,
                      profile: str = "") -> ChaosPlan:
    """Generate a seeded campaign over the metasystem's current topology.

    Pure function of (topology names, config, seed): the generator uses
    its *own* RNG registry rooted at the campaign seed — never the
    metasystem's streams — so generating a campaign perturbs nothing and
    the same seed reproduces the same timeline byte for byte.
    """
    rngs = RngRegistry(derive_seed(seed, "chaos", "campaign"))
    events: List[FaultEvent] = []
    for kind in sorted(config.classes):
        cls_cfg = config.classes[kind]
        for target in _targets_for(meta, kind):
            rng = rngs.stream(kind, target or "-")
            t = 0.0
            while True:
                t += float(rng.exponential(cls_cfg.mtbf))
                if t >= config.horizon:
                    break
                duration = float(rng.exponential(cls_cfg.mttr))
                lo, hi = cls_cfg.magnitude
                magnitude = (float(rng.uniform(lo, hi)) if hi > lo
                             else float(lo))
                events.append(FaultEvent(at=t, kind=kind, target=target,
                                         duration=duration,
                                         magnitude=magnitude))
                t += duration  # sequential renewal: no per-target overlap
    return ChaosPlan(events=events, horizon=config.horizon, seed=seed,
                     profile=profile)
