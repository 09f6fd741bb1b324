"""Typed, revertible fault actions.

Each :class:`Fault` wraps one of the metasystem's existing failure
primitives (``SimMachine.fail``/``recover``, ``Topology.partition``/
``set_node_down``, the transport's loss/latency spike hooks, federation
shard outages) behind a uniform ``apply(meta)`` / ``revert(meta)`` pair,
so the :class:`~repro.chaos.injector.ChaosInjector` can schedule them on
the virtual clock and guarantee every applied fault is reverted.

Design rules:

* **revertible** — ``revert`` restores exactly the state ``apply``
  changed.  Transport-level spikes use the composable push/pop hooks on
  :class:`~repro.net.transport.Transport` (max of loss spikes, product
  of latency factors), so overlapping faults may revert in any order;
* **explicit failure** — applying a fault that cannot take effect (e.g.
  crashing a host that is already down) raises
  :class:`~repro.errors.ChaosError` rather than silently no-oping, so
  campaign reports never over-count injected faults;
* **bookkeeping** — ``apply`` records collateral damage (jobs lost with
  a crashed host) in :attr:`Fault.info` for the ResilienceReport.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Type

from ..errors import ChaosError, NetworkError

if TYPE_CHECKING:  # pragma: no cover — avoid the metasystem import cycle
    from ..metasystem import Metasystem

__all__ = [
    "Fault",
    "HostCrash",
    "DomainPartition",
    "MessageLossSpike",
    "LatencySpike",
    "LoadSurge",
    "FederationShardOutage",
    "WorkerCrash",
    "WorkerRevive",
    "FAULT_CLASSES",
    "make_fault",
]


class Fault:
    """One revertible fault action against a metasystem."""

    kind = "fault"
    #: one-shot faults are repairs (a worker revive): applied once, nothing
    #: to revert
    one_shot = False
    #: faults sharing a lock group may not overlap on the same target;
    #: None means the group is the fault's own kind
    lock_group: Optional[str] = None

    def __init__(self, target: str = "", magnitude: float = 0.0):
        self.target = target
        self.magnitude = float(magnitude)
        self.applied = False
        #: collateral recorded by apply() (lost jobs, routing used, ...)
        self.info: Dict[str, Any] = {}

    @property
    def lock_key(self) -> Tuple[str, str]:
        return (self.lock_group or self.kind, self.target)

    # -- lifecycle ----------------------------------------------------------
    def apply(self, meta: "Metasystem") -> None:
        if self.applied:
            raise ChaosError(f"{self!r} already applied")
        self._apply(meta)
        self.applied = True

    def revert(self, meta: "Metasystem") -> None:
        if not self.applied:
            raise ChaosError(f"{self!r} was never applied")
        self._revert(meta)
        self.applied = False

    def _apply(self, meta: "Metasystem") -> None:
        raise NotImplementedError

    def _revert(self, meta: "Metasystem") -> None:
        pass

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.target or '*'}>"


def _machine_of(meta: "Metasystem", name: str):
    try:
        return meta.host_by_name(name).machine
    except Exception:
        raise ChaosError(f"unknown host {name!r}") from None


def _domain_pair(target: str) -> Tuple[str, str]:
    parts = target.split("|")
    if len(parts) != 2 or not all(parts):
        raise ChaosError(
            f"partition target must be 'domainA|domainB', got {target!r}")
    return parts[0], parts[1]


class HostCrash(Fault):
    """Crash a host: its machine fails (running jobs are lost) and its
    network node goes down, so in-flight RPCs to it fail honestly."""

    kind = "host_crash"
    lock_group = "host"

    def _apply(self, meta: "Metasystem") -> None:
        machine = _machine_of(meta, self.target)
        if not machine.up:
            raise ChaosError(f"host {self.target} is already down")
        lost = machine.fail()
        meta.topology.set_node_down(machine.location, True)
        self.info["lost_jobs"] = len(lost)
        self.info["lost_work"] = float(sum(j.remaining for j in lost))

    def _revert(self, meta: "Metasystem") -> None:
        machine = _machine_of(meta, self.target)
        meta.topology.set_node_down(machine.location, False)
        machine.recover()


class DomainPartition(Fault):
    """Cut connectivity between two administrative domains."""

    kind = "domain_partition"
    lock_group = "partition"

    def _apply(self, meta: "Metasystem") -> None:
        a, b = _domain_pair(self.target)
        if tuple(sorted((a, b))) in meta.topology.partitions():
            raise ChaosError(f"{a}|{b} is already partitioned")
        try:
            meta.topology.partition(a, b)
        except NetworkError as exc:
            raise ChaosError(str(exc)) from None

    def _revert(self, meta: "Metasystem") -> None:
        a, b = _domain_pair(self.target)
        meta.topology.heal(a, b)


class MessageLossSpike(Fault):
    """Raise the transport's message-loss probability to ``magnitude``
    (effective loss is the max of base probability and active spikes)."""

    kind = "message_loss_spike"

    def _apply(self, meta: "Metasystem") -> None:
        if not 0.0 < self.magnitude <= 1.0:
            raise ChaosError(
                f"loss spike magnitude must be in (0, 1], "
                f"got {self.magnitude}")
        meta.transport.push_loss_spike(self.magnitude)

    def _revert(self, meta: "Metasystem") -> None:
        try:
            meta.transport.pop_loss_spike(self.magnitude)
        except ValueError:
            pass  # already force-cleared by teardown


class LatencySpike(Fault):
    """Multiply sampled network latency by ``magnitude`` (active spikes
    compose as a product)."""

    kind = "latency_spike"

    def _apply(self, meta: "Metasystem") -> None:
        if self.magnitude <= 1.0:
            raise ChaosError(
                f"latency spike factor must exceed 1, got {self.magnitude}")
        meta.transport.push_latency_factor(self.magnitude)

    def _revert(self, meta: "Metasystem") -> None:
        try:
            meta.transport.pop_latency_factor(self.magnitude)
        except ValueError:
            pass  # already force-cleared by teardown


class LoadSurge(Fault):
    """Add ``magnitude`` background load to one host (another user's
    heavy job), slowing every object placed there."""

    kind = "load_surge"

    def _apply(self, meta: "Metasystem") -> None:
        if self.magnitude <= 0.0:
            raise ChaosError(
                f"load surge magnitude must be positive, "
                f"got {self.magnitude}")
        machine = _machine_of(meta, self.target)
        machine.set_background_load(machine.background_load + self.magnitude)

    def _revert(self, meta: "Metasystem") -> None:
        machine = _machine_of(meta, self.target)
        machine.set_background_load(machine.background_load - self.magnitude)


class FederationShardOutage(Fault):
    """Take one federated Collection shard offline — through the topology
    when the shard has a network node, else via the router's forced-down
    override."""

    kind = "shard_outage"

    def _shard(self, meta: "Metasystem"):
        shards = getattr(meta.collection, "shards_by_id", None)
        if not shards or self.target not in shards:
            raise ChaosError(
                f"no federation shard {self.target!r} "
                f"(is the metasystem federated?)")
        return shards[self.target]

    def _apply(self, meta: "Metasystem") -> None:
        shard = self._shard(meta)
        if shard.location is not None:
            if not meta.topology.node_up(shard.location):
                raise ChaosError(f"shard {self.target} is already down")
            meta.topology.set_node_down(shard.location, True)
            self.info["via"] = "topology"
        else:
            if shard.forced_down:
                raise ChaosError(f"shard {self.target} is already down")
            shard.forced_down = True
            self.info["via"] = "forced"

    def _revert(self, meta: "Metasystem") -> None:
        shard = self._shard(meta)
        if self.info.get("via") == "topology":
            meta.topology.set_node_down(shard.location, False)
        else:
            shard.forced_down = False


def _worker_pool(meta: "Metasystem", target: str) -> Tuple[Any, int]:
    suite = getattr(meta, "service", None)
    if suite is None:
        raise ChaosError(
            f"no live service tier to crash {target!r} in "
            f"(call start_service first)")
    try:
        idx = int(target.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        raise ChaosError(
            f"worker target must be 'worker-N', got {target!r}") from None
    if not 0 <= idx < suite.pool.size:
        raise ChaosError(f"no worker {idx} in a pool of {suite.pool.size}")
    return suite.pool, idx


class WorkerCrash(Fault):
    """Kill one service-tier placement worker mid-whatever-it-is-doing.

    The worker's generator dies at its next resume point (no cleanup
    runs — in particular its lease is never released, which is the whole
    point: the Supervisor must detect the expiry and recover the orphan).
    The pool is resolved **lazily** at apply/revert time, so the same
    fault object keeps working across a checkpoint-restore that rebuilt
    the pool.
    """

    kind = "worker_crash"
    lock_group = "worker"

    def _apply(self, meta: "Metasystem") -> None:
        pool, idx = _worker_pool(meta, self.target)
        pool.kill(idx)  # ChaosError if already dead

    def _revert(self, meta: "Metasystem") -> None:
        pool, idx = _worker_pool(meta, self.target)
        pool.revive(idx)


class WorkerRevive(Fault):
    """One-shot repair: restart a killed worker (declarative plans)."""

    kind = "worker_revive"
    lock_group = "worker"
    one_shot = True

    def _apply(self, meta: "Metasystem") -> None:
        pool, idx = _worker_pool(meta, self.target)
        pool.revive(idx)  # ChaosError if alive


#: registry used by plans to instantiate faults from serialized events
FAULT_CLASSES: Dict[str, Type[Fault]] = {
    cls.kind: cls
    for cls in (HostCrash, DomainPartition, MessageLossSpike, LatencySpike,
                LoadSurge, FederationShardOutage, WorkerCrash, WorkerRevive)
}


def make_fault(kind: str, target: str = "",
               magnitude: float = 0.0) -> Fault:
    cls = FAULT_CLASSES.get(kind)
    if cls is None:
        raise ChaosError(f"unknown fault kind {kind!r}; choose from "
                         f"{sorted(FAULT_CLASSES)}")
    return cls(target=target, magnitude=magnitude)
