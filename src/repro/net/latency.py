"""Latency and transfer-time models for the simulated wide-area network.

Calibrated to late-1990s metacomputing conditions (the paper's era):
sub-millisecond local calls, ~1 ms LAN round-trips within a domain, and tens
to hundreds of milliseconds between administrative domains, with heavy-tailed
jitter.  The inter-domain latency is a constructor argument so experiments
can sweep it; the rest are constants of :class:`MetasystemLatencyModel`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sim.distributions import Clipped, Distribution, LogNormal
from .topology import NetLocation, Topology

__all__ = ["LatencyModel", "MetasystemLatencyModel", "ZeroLatencyModel"]


class LatencyModel:
    """Abstract one-way message latency + bulk-transfer model."""

    def sample_latency(self, rng: np.random.Generator,
                       src: Optional[NetLocation],
                       dst: NetLocation) -> float:
        raise NotImplementedError

    def transfer_time(self, rng: np.random.Generator,
                      nbytes: float,
                      src: Optional[NetLocation],
                      dst: NetLocation) -> float:
        raise NotImplementedError


class MetasystemLatencyModel(LatencyModel):
    """Domain-aware latency: local < intra-domain < inter-domain.

    Parameters
    ----------
    topology:
        Used for domain-distance scaling of inter-domain latency.
    inter:
        Base one-way latency distribution across domains, multiplied by
        the topology's domain distance.
    """

    #: cost of a method call on the same node (seconds)
    LOCAL_OVERHEAD = 50e-6
    #: base one-way latency within a domain: LogNormal(mu, sigma) with a
    #: median of ~0.5 ms
    INTRA: Distribution = Clipped(
        LogNormal(mu=-7.6, sigma=0.35), low=1e-4, high=0.05)
    #: bulk-transfer bandwidth in bytes/second within / across domains
    #: (for OPR migration)
    INTRA_BANDWIDTH = 1.0e6
    INTER_BANDWIDTH = 100.0e3

    def __init__(self, topology: Topology,
                 inter: Optional[Distribution] = None):
        self.topology = topology
        # median of ~25 ms
        self.inter = inter or Clipped(
            LogNormal(mu=-3.7, sigma=0.5), low=5e-3, high=2.0)

    def sample_latency(self, rng: np.random.Generator,
                       src: Optional[NetLocation],
                       dst: NetLocation) -> float:
        if src is not None and src == dst:
            return self.LOCAL_OVERHEAD
        if src is None or src.domain == dst.domain:
            return float(self.INTRA.sample(rng))
        scale = 0.5 * self.topology.domain_distance(src.domain, dst.domain)
        return float(self.inter.sample(rng)) * max(scale, 1.0)

    def transfer_time(self, rng: np.random.Generator,
                      nbytes: float,
                      src: Optional[NetLocation],
                      dst: NetLocation) -> float:
        lat = self.sample_latency(rng, src, dst)
        if src is not None and src == dst:
            return lat
        if src is None or src.domain == dst.domain:
            bw = self.INTRA_BANDWIDTH
        else:
            bw = self.INTER_BANDWIDTH
        return lat + float(nbytes) / bw


class ZeroLatencyModel(LatencyModel):
    """All calls are free — for pure-algorithm unit tests and microbenches."""

    def sample_latency(self, rng: np.random.Generator,
                       src: Optional[NetLocation],
                       dst: NetLocation) -> float:
        return 0.0

    def transfer_time(self, rng: np.random.Generator,
                      nbytes: float,
                      src: Optional[NetLocation],
                      dst: NetLocation) -> float:
        return 0.0
