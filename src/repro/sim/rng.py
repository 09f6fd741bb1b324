"""Reproducible random-number streams.

Every stochastic component of the simulated metasystem (per-machine load
walks, network latency sampling, scheduler tie-breaking, failure injection)
draws from its *own* named stream derived from a single experiment seed.
This guarantees that, e.g., adding one more scheduler does not perturb the
load traces — a standard variance-reduction discipline for simulation
studies (common random numbers).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Sequence

import numpy as np

__all__ = ["RngRegistry", "derive_seed"]


def derive_seed(root_seed: int, *names: str) -> int:
    """Derive a 64-bit child seed from a root seed and a name path.

    Uses SHA-256 over the root seed and the path components so that streams
    are independent of creation order and stable across runs and platforms.
    """
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode("utf-8"))
    for name in names:
        h.update(b"\x00")
        h.update(str(name).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


class RngRegistry:
    """Factory and cache of named :class:`numpy.random.Generator` streams.

    >>> rngs = RngRegistry(seed=42)
    >>> a = rngs.stream("machine", "host-3", "load")
    >>> b = rngs.stream("machine", "host-3", "load")
    >>> a is b
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[Sequence[str], np.random.Generator] = {}

    def stream(self, *names: str) -> np.random.Generator:
        """Return (creating if needed) the stream for the given name path."""
        key = tuple(str(n) for n in names)
        gen = self._streams.get(key)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self.seed, *key))
            self._streams[key] = gen
        return gen
