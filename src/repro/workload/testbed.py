"""Standard simulated testbeds.

The paper's testbed was the late-1990s Legion deployment: departmental Unix
workstations of several architectures, SMP servers, and queue-managed
clusters, spread over multiple administrative domains.  These builders
produce deterministic synthetic equivalents (DESIGN.md section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..hosts.machine import LoadWalk, MachineSpec
from ..metasystem import Metasystem
from ..objects.class_object import Implementation

__all__ = [
    "PLATFORMS",
    "TestbedSpec",
    "build_testbed",
    "small_campus",
    "multi_domain",
    "implementations_for_all_platforms",
]

#: the 1999-era platform zoo: (arch, os_name, os_version, relative speed)
PLATFORMS: List[Tuple[str, str, str, float]] = [
    ("sparc", "SunOS", "5.7", 1.0),
    ("x86", "Linux", "2.2", 1.2),
    ("mips", "IRIX", "6.5", 1.5),
    ("alpha", "OSF1", "4.0", 2.0),
    ("rs6000", "AIX", "4.3", 1.3),
]
#: each further domain is this much farther away (domain ``d`` sits at
#: distance ``1 + DOMAIN_DISTANCE_STEP * d``); each domain has one vault
DOMAIN_DISTANCE_STEP = 0.5


def implementations_for_all_platforms(memory_mb: float = 16.0
                                      ) -> List[Implementation]:
    """An implementation per platform — a maximally portable class."""
    return [Implementation(arch, os_name, memory_mb=memory_mb,
                           relative_speed=speed)
            for arch, os_name, _ver, speed in PLATFORMS]


@dataclass
class TestbedSpec:
    """Parameters for :func:`build_testbed`."""

    __test__ = False  # not a pytest test class despite the name

    n_domains: int = 3
    hosts_per_domain: int = 8
    #: how many distinct platforms appear (1 = homogeneous)
    platform_mix: int = 3
    #: mean background load of workstation load walks (0 disables dynamics)
    background_load_mean: float = 0.5
    load_spike_prob: float = 0.0
    #: domains that additionally get a batch cluster, e.g. {0: "backfill"}
    batch_clusters: dict = field(default_factory=dict)
    batch_nodes: int = 16
    seed: int = 0
    host_slots: int = 4
    reassess_interval: float = 30.0
    #: "off" | "spans" — passed to :class:`Metasystem`
    tracing: str = "spans"
    #: federate the information database into this many Collection
    #: shards (0 = single monolithic Collection)
    federation_shards: int = 0
    #: replicas per record when federated
    federation_replication: int = 2
    #: anti-entropy sweep period in virtual seconds (0 disables gossip)
    gossip_interval: float = 0.0
    #: router-side query cache TTL in virtual seconds (0 disables)
    federation_cache_ttl: float = 0.0
    #: enable the self-healing guardrails layer
    #: (:meth:`~repro.metasystem.Metasystem.enable_guardrails`)
    guardrails: bool = False
    #: arm a chaos campaign over the built testbed ("" disables); a name
    #: from :data:`repro.chaos.plan.PROFILES`
    chaos_profile: str = ""
    #: campaign seed (independent of the testbed seed)
    chaos_seed: int = 0
    #: campaign horizon override in virtual seconds (0 = profile default)
    chaos_horizon: float = 0.0
    #: arm the windowed time-series sampler with this window length in
    #: virtual seconds (0 disables; feeds the SLO engine and
    #: ``legion-sim slo``)
    sampler_window: float = 0.0
    #: enable the computational-economy layer (market pricing, budgets,
    #: auctions — :meth:`~repro.metasystem.Metasystem.enable_economy`)
    economy: bool = False
    #: start the live service tier (gateway + placement queue + worker
    #: pool — :meth:`~repro.metasystem.Metasystem.start_service`); True
    #: for defaults or a :class:`~repro.service.config.ServiceConfig`
    service: object = None

    def __post_init__(self) -> None:
        if self.n_domains < 1 or self.hosts_per_domain < 1:
            raise ValueError("need at least one domain and one host")
        if not 1 <= self.platform_mix <= len(PLATFORMS):
            raise ValueError(
                f"platform_mix must be in [1, {len(PLATFORMS)}]")


def build_testbed(spec: Optional[TestbedSpec] = None, **kwargs) -> Metasystem:
    """Build a metasystem testbed from a :class:`TestbedSpec`."""
    if spec is None:
        spec = TestbedSpec(**kwargs)
    elif kwargs:
        raise TypeError("pass either a TestbedSpec or keyword arguments")
    federation = None
    if spec.federation_shards:
        from ..federation.router import FederationConfig
        federation = FederationConfig(
            shards=spec.federation_shards,
            replication=spec.federation_replication,
            gossip_interval=spec.gossip_interval,
            cache_ttl=spec.federation_cache_ttl)
    meta = Metasystem(seed=spec.seed,
                      reassess_interval=spec.reassess_interval,
                      tracing=spec.tracing,
                      federation=federation)
    spec_rng = meta.rngs.stream("testbed")
    for d in range(spec.n_domains):
        domain = f"dom{d}"
        meta.add_domain(domain, distance=1.0 + DOMAIN_DISTANCE_STEP * d)
        meta.add_vault(domain, name=f"{domain}-vault0")
        for h in range(spec.hosts_per_domain):
            arch, os_name, os_ver, speed = PLATFORMS[
                (d + h) % spec.platform_mix]
            machine_spec = MachineSpec(
                arch=arch, os_name=os_name, os_version=os_ver,
                cpus=1 + int(spec_rng.integers(0, 2)),
                speed=speed * float(spec_rng.uniform(0.8, 1.2)),
                memory_mb=float(spec_rng.choice([64.0, 128.0, 256.0])))
            walk = None
            if spec.background_load_mean > 0:
                walk = LoadWalk(mean=spec.background_load_mean,
                                spike_prob=spec.load_spike_prob)
            meta.add_unix_host(
                f"{domain}-ws{h}", domain, machine_spec,
                load_walk=walk,
                initial_load=(spec.background_load_mean
                              * float(spec_rng.uniform(0.5, 1.5))),
                slots=spec.host_slots)
        kind = spec.batch_clusters.get(d)
        if kind:
            meta.add_batch_host(f"{domain}-cluster", domain,
                                queue_kind=kind, nodes=spec.batch_nodes)
    if spec.sampler_window:
        meta.start_sampler(window=spec.sampler_window)
    if spec.economy:
        meta.enable_economy()
    if spec.guardrails:
        meta.enable_guardrails()
    if spec.service:
        if spec.service is True:
            meta.start_service()
        else:
            meta.start_service(config=spec.service)
    if spec.chaos_profile:
        meta.start_chaos(profile=spec.chaos_profile,
                         chaos_seed=spec.chaos_seed,
                         horizon=spec.chaos_horizon or None)
    return meta


def small_campus(seed: int = 0, hosts: int = 8,
                 dynamics: bool = True) -> Metasystem:
    """One department: a single domain of Unix workstations plus a vault."""
    return build_testbed(TestbedSpec(
        n_domains=1, hosts_per_domain=hosts, platform_mix=2,
        background_load_mean=0.5 if dynamics else 0.0, seed=seed))


def multi_domain(n_domains: int = 4, hosts_per_domain: int = 8,
                 seed: int = 0, platform_mix: int = 3,
                 dynamics: bool = True,
                 spike_prob: float = 0.0) -> Metasystem:
    """The metacomputing setting: several autonomous domains."""
    return build_testbed(TestbedSpec(
        n_domains=n_domains, hosts_per_domain=hosts_per_domain,
        platform_mix=platform_mix,
        background_load_mean=0.6 if dynamics else 0.0,
        load_spike_prob=spike_prob, seed=seed))
