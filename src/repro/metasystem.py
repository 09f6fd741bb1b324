"""The Metasystem facade: bootstrap and wiring for a simulated Legion system.

This is the library's main entry point.  It assembles the substrate
(simulator, RNG streams, topology, transport), the core objects (Fig. 1:
LegionClass-style minting, Host and Vault objects and their guardian
classes), and the RMI service objects (Collection, Enactor, Monitor), and
binds everything into a context space.

Typical use::

    from repro import Metasystem, MachineSpec

    meta = Metasystem(seed=42)
    meta.add_domain("uva")
    for i in range(8):
        meta.add_unix_host(f"uva-ws{i}", "uva", MachineSpec(arch="sparc",
                                                            os_name="SunOS"))
    meta.add_vault("uva")
    app = meta.create_class("MyApp", [Implementation("sparc", "SunOS")],
                            work_units=300.0)
    scheduler = meta.make_scheduler("random")
    outcome = scheduler.run([ObjectClassRequest(app, count=4)])
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from .collection.collection import Collection, Credential
from .collection.daemon import DataCollectionDaemon
from .enactor.enactor import Enactor
from .errors import (LegionError, NetworkError, NotAMemberError,
                     UnknownObjectError)
from .federation.ring import ConsistentHashRing
from .federation.router import FederatedCollection, FederationConfig
from .federation.shard import CollectionShard
from .federation.sync import GossipDaemon
from .hosts.batch_host import BatchQueueHost
from .hosts.host_object import HostObject
from .hosts.machine import LoadWalk, MachineSpec, SimMachine
from .hosts.unix_host import UnixHost
from .monitor.migration import Migrator
from .monitor.monitor import ExecutionMonitor
from .accounting.cost_sched import CostAwareScheduler
from .naming.context import ContextSpace
from .naming.loid import LOID, LOIDMinter
from .net.latency import LatencyModel, MetasystemLatencyModel
from .net.topology import AdministrativeDomain, NetLocation, Topology
from .net.transport import Transport
from .objects.base import LegionObject
from .obs.registry import MetricsRegistry
from .obs.spans import NULL_SPANS, SpanTracer
from .objects.class_object import ClassObject, Implementation, Placement
from .queues.backfill import BackfillQueue
from .queues.base import QueueSystem
from .queues.condor import CondorPool
from .queues.fcfs import FCFSQueue
from .scheduler.base import Scheduler
from .scheduler.gang import GangScheduler
from .scheduler.irs import IRSScheduler
from .scheduler.kofn import KofNScheduler
from .scheduler.load_aware import LoadAwareScheduler
from .scheduler.mct import MCTScheduler
from .scheduler.random_sched import RandomScheduler
from .scheduler.round_robin import RoundRobinScheduler
from .scheduler.stencil import StencilScheduler
from .sim.kernel import Simulator
from .sim.rng import RngRegistry
from .vaults.vault_object import VaultObject

__all__ = ["Metasystem", "SCHEDULER_KINDS"]

_SCHEDULER_KINDS = {
    "random": RandomScheduler,
    "irs": IRSScheduler,
    "cost": CostAwareScheduler,
    "load": LoadAwareScheduler,
    "mct": MCTScheduler,
    "gang": GangScheduler,
    "round-robin": RoundRobinScheduler,
    "stencil": StencilScheduler,
    "kofn": KofNScheduler,
}
_ECONOMY_KINDS = ("economy", "economy-cost", "economy-time")
#: the LOID domain every object of a metasystem is minted in
LOID_DOMAIN = "legion"
#: network node names of the placed Collection and Enactor services
COLLECTION_NODE = "collection-svc"
ENACTOR_NODE = "enactor-svc"
#: the machine behind a batch host: the queue's front-end node
BATCH_FRONTEND_SPEC = MachineSpec(cpus=2, memory_mb=512.0)
#: every kind :meth:`Metasystem.make_scheduler` accepts — the one list
#: its error message and the CLI's ``--scheduler`` help are read from
SCHEDULER_KINDS = tuple(sorted([*_SCHEDULER_KINDS, *_ECONOMY_KINDS]))


class Metasystem:
    """A fully wired, simulated Legion metasystem."""

    def __init__(self, seed: int = 0,
                 latency_model: Optional[LatencyModel] = None,
                 reassess_interval: float = 30.0,
                 require_collection_auth: bool = True,
                 tracing: str = "spans",
                 federation: Any = None):
        if tracing not in ("off", "spans"):
            raise ValueError(
                f"tracing must be 'off' or 'spans', got {tracing!r}")
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        self.tracing = tracing
        if tracing == "spans":
            self.spans: SpanTracer = SpanTracer(self.sim.clock)
        else:
            self.spans = NULL_SPANS
        self.metrics = MetricsRegistry(clock=self.sim.clock)
        self.metrics.gauge_fn("sim_events_processed",
                              lambda: self.sim.events_processed,
                              help="kernel actions dispatched so far")
        self.metrics.gauge_fn("sim_queue_depth",
                              lambda: self.sim.queue_depth,
                              help="actions pending on the event heap")
        self.metrics.gauge_fn("span_records",
                              lambda: len(self.spans),
                              help="spans currently retained")
        if tracing == "spans":
            # outlier histogram buckets remember which trace produced
            # them (exemplars)
            self.metrics.set_exemplar_provider(
                lambda: self.spans.current_trace_id)
        self.topology = Topology()
        self.latency_model = latency_model or MetasystemLatencyModel(
            self.topology)
        self.transport = Transport(self.sim, self.topology,
                                   self.latency_model, self.rngs,
                                   metrics=self.metrics,
                                   spans=self.spans)
        self.minter = LOIDMinter(LOID_DOMAIN)
        self.context = ContextSpace()
        self.reassess_interval = reassess_interval

        self._registry: Dict[LOID, Any] = {}
        self.hosts: List[HostObject] = []
        self.vaults: List[VaultObject] = []
        self.classes: Dict[str, ClassObject] = {}

        # the information database: one monolithic Collection by default,
        # or — with the ``federation=`` knob — a consistent-hash federation
        # of peer Collection shards behind the same Fig. 4 interface
        self.federation_config = FederationConfig.normalize(federation)
        self.collection_shards: List[CollectionShard] = []
        self.gossip: Optional[GossipDaemon] = None
        if self.federation_config is None:
            self.collection = Collection(
                self.minter.mint("svc", "collection"),
                require_auth=require_collection_auth,
                clock=lambda: self.sim.now, metrics=self.metrics,
                spans=self.spans)
        else:
            self.collection = self._build_federation(
                self.federation_config, require_collection_auth)
        self._register(self.collection)
        self.context.bind("/etc/Collection", self.collection.loid)
        self._host_credentials: Dict[LOID, Credential] = {}
        #: the push-model sink every host shares, bound once
        self._push_host = self._push_to_collection

        self.enactor = Enactor(self.transport, self.resolve)
        self.migrator = Migrator(self.transport, self.resolve)
        self.monitor: Optional[ExecutionMonitor] = None
        self._machine_serial = itertools.count()

        # optional layers, each installed by its enable_* / start_* method
        self.chaos: Optional[Any] = None
        self.guardrails: Optional[Any] = None
        self.sampler: Optional[Any] = None
        self.economy: Optional[Any] = None
        self.service: Optional[Any] = None

    # ------------------------------------------------------------------
    # federation
    # ------------------------------------------------------------------
    def _build_federation(self, cfg: FederationConfig,
                          require_auth: bool) -> FederatedCollection:
        """Assemble shards, ring, router, and (optionally) gossip."""
        ring = ConsistentHashRing(seed=self.rngs.seed)
        for i in range(cfg.shards):
            shard_id = f"shard{i}"
            ring.add_shard(shard_id)
            coll = Collection(
                self.minter.mint("svc", f"collection-{shard_id}"),
                require_auth=require_auth,
                clock=lambda: self.sim.now, metrics=self.metrics,
                spans=self.spans)
            shard = CollectionShard(shard_id, coll, ring,
                                    cfg.replication)
            self.collection_shards.append(shard)
            self._register(coll)
            self.context.bind(f"/etc/Collection.{shard_id}", coll.loid)
            self.metrics.gauge_fn("federation_shard_members",
                                  lambda s=shard: float(len(s)),
                                  help="records held per federation shard",
                                  shard=shard_id)
        router = FederatedCollection(
            self.minter.mint("svc", "collection"),
            self.collection_shards, ring, cfg.replication,
            transport=self.transport, clock=lambda: self.sim.now,
            metrics=self.metrics, require_auth=require_auth,
            cache_ttl=cfg.cache_ttl, spans=self.spans)
        if cfg.gossip_interval > 0:
            self.gossip = GossipDaemon(
                self.sim, self.collection_shards,
                interval=cfg.gossip_interval,
                rng=self.rngs.stream("federation", "gossip"),
                transport=self.transport, metrics=self.metrics,
                spans=self.spans)
            self.gossip.start()
        return router

    def place_federation(self, domains: Optional[Sequence[str]] = None
                         ) -> List[NetLocation]:
        """Give every federation shard a network node (round-robin over
        ``domains``, default all registered domains), so scatter-gather
        queries and replica writes cost real messages and shards can be
        partitioned or taken down through the topology."""
        if self.federation_config is None:
            raise LegionError("metasystem is not federated")
        names = list(domains) if domains else [
            d.name for d in self.topology.domains()]
        if not names:
            raise LegionError("no domains to place shards in")
        locations = []
        for i, shard in enumerate(self.collection_shards):
            location = self.topology.add_node(
                names[i % len(names)], f"collection-{shard.shard_id}")
            shard.location = location
            locations.append(location)
        return locations

    # ------------------------------------------------------------------
    # registry / naming
    # ------------------------------------------------------------------
    def _register(self, obj: Any) -> None:
        self._registry[obj.loid] = obj

    def resolve(self, loid: LOID) -> Any:
        """The system-wide LOID resolver handed to Classes/Enactor/etc."""
        return self._registry.get(loid)

    def resolve_strict(self, loid: LOID) -> Any:
        obj = self._registry.get(loid)
        if obj is None:
            raise UnknownObjectError(f"no object registered for {loid}")
        return obj

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_domain(self, name: str, distance: float = 1.0,
                   description: str = "") -> AdministrativeDomain:
        return self.topology.add_domain(
            AdministrativeDomain(name, description, distance))

    def place_collection(self, domain: str) -> NetLocation:
        """Give the Collection a network location so queries and updates
        cost real (simulated) messages — required for experiments that
        measure information-service latency (E2, E3, E6)."""
        location = self.topology.add_node(domain, COLLECTION_NODE)
        self.collection.location = location
        return location

    def place_enactor(self, domain: str) -> NetLocation:
        """Give the Enactor a service location (reservation requests then
        originate from that node rather than a free endpoint)."""
        location = self.topology.add_node(domain, ENACTOR_NODE)
        self.enactor.location = location
        self.enactor.coallocator.src = location
        return location

    # ------------------------------------------------------------------
    # hosts
    # ------------------------------------------------------------------
    def _wire_host(self, host: HostObject, push_to_collection: bool) -> None:
        self._register(host)
        self.hosts.append(host)
        self.context.bind(f"/hosts/{host.machine.name}", host.loid)
        # same-domain vaults are compatible by default
        for vault in self.vaults:
            if vault.location.domain == host.domain:
                host.add_compatible_vault(vault.loid)
        host.reassess()
        credential = self.collection.join(host.loid,
                                          host.attributes.snapshot())
        self._host_credentials[host.loid] = credential
        if push_to_collection:
            host.add_push_target(self._push_host)
        self._attach_layers(host, self.guardrails, self.economy)
        host.start_periodic_reassessment()

    def _attach_layers(self, host: HostObject, guardrails: Any,
                       economy: Any) -> None:
        """Give ``host`` its share of the per-host layers that are not
        ``None``: the shared admission controller and a HealthMonitor
        watch (guardrails), the ledger's billing hook and a market ask
        (economy).  The one path for a host present when a layer is
        enabled and for a host added after."""
        if guardrails is not None:
            host.admission = guardrails.admission
            guardrails.monitor.watch(
                host, self._host_credentials.get(host.loid))
        if economy is not None:
            economy.ledger.attach(host)
            economy.market.enroll(host)

    def _push_to_collection(self, host: HostObject, now: float) -> None:
        """Deposit ``host``'s attributes into the Collection (the push
        model), under the credential it joined with."""
        try:
            try:
                self.collection.update_entry(
                    host.loid, host.attributes.snapshot(),
                    self._host_credentials[host.loid])
            except NotAMemberError:
                # the health-aware daemon evicted the record while the
                # host was DOWN — recovery re-joins (credentials are
                # deterministic per member, so the stored one stays valid)
                self.collection.join(host.loid, host.attributes.snapshot())
        except NetworkError:
            # no replica of a federated record took the write (lost or
            # unreachable); as HealthMonitor._publish does, drop it: the
            # next reassessment pushes again
            pass

    def add_unix_host(self, name: str, domain: str,
                      spec: Optional[MachineSpec] = None,
                      load_walk: Optional[LoadWalk] = None,
                      initial_load: float = 0.0,
                      slots: int = 0,
                      price: float = 0.0,
                      push_to_collection: bool = True) -> UnixHost:
        """Create a workstation/SMP machine plus its Unix Host Object."""
        spec = spec or MachineSpec()
        location = self.topology.add_node(domain, name)
        machine = SimMachine(name, spec, location, self.sim, self.rngs,
                             load_walk=load_walk, initial_load=initial_load)
        host = UnixHost(self.minter.mint("host", name), machine, self.sim,
                        slots=slots, price_per_cpu_second=price,
                        reassess_interval=self.reassess_interval,
                        metrics=self.metrics, spans=self.spans)
        self._wire_host(host, push_to_collection)
        return host

    def add_batch_host(self, name: str, domain: str,
                       queue_kind: str = "fcfs", nodes: int = 16,
                       max_queue_length: int = 1000,
                       **queue_kwargs) -> BatchQueueHost:
        """Create a queue-managed cluster fronted by a Batch Queue Host.

        ``queue_kind``: ``"fcfs"`` (LoadLeveler/Codine-like), ``"backfill"``
        (Maui-like, reservation capable), or ``"condor"`` (cycle-scavenged
        pool).
        """
        location = self.topology.add_node(domain, name)
        machine = SimMachine(name, BATCH_FRONTEND_SPEC, location, self.sim,
                             self.rngs)
        queue: QueueSystem
        if queue_kind == "fcfs":
            queue = FCFSQueue(self.sim, nodes, name=f"{name}-fcfs",
                              **queue_kwargs)
        elif queue_kind == "backfill":
            queue = BackfillQueue(self.sim, nodes, name=f"{name}-maui",
                                  **queue_kwargs)
        elif queue_kind == "condor":
            queue = CondorPool(self.sim, nodes, self.rngs,
                               name=f"{name}-condor", **queue_kwargs)
        else:
            raise ValueError(f"unknown queue kind {queue_kind!r}")
        host = BatchQueueHost(self.minter.mint("host", name), machine,
                              self.sim, queue,
                              max_queue_length=max_queue_length,
                              reassess_interval=self.reassess_interval,
                              metrics=self.metrics, spans=self.spans)
        self._wire_host(host, push_to_collection=True)
        return host

    # ------------------------------------------------------------------
    # vaults
    # ------------------------------------------------------------------
    def add_vault(self, domain: str, name: str = "",
                  capacity_bytes: float = 10e9,
                  allowed_domains: Optional[List[str]] = None
                  ) -> VaultObject:
        """Create a Vault in a domain and make same-domain hosts compatible."""
        name = name or f"{domain}-vault{next(self._machine_serial)}"
        location = self.topology.add_node(domain, name)
        vault = VaultObject(self.minter.mint("vault", name), location,
                            capacity_bytes=capacity_bytes,
                            allowed_domains=allowed_domains,
                            spans=self.spans)
        self._register(vault)
        self.vaults.append(vault)
        self.context.bind(f"/vaults/{name}", vault.loid)
        for host in self.hosts:
            if host.domain == domain:
                host.add_compatible_vault(vault.loid)
                host.reassess()
                cred = self._host_credentials.get(host.loid)
                if cred is not None:
                    self.collection.update_entry(
                        host.loid, host.attributes.snapshot(), cred)
        return vault

    # ------------------------------------------------------------------
    # classes
    # ------------------------------------------------------------------
    def create_class(self, name: str,
                     implementations: Sequence[Implementation],
                     work_units: Optional[float] = None,
                     memory_mb: float = 8.0,
                     attr_factory: Optional[
                         Callable[[LOID], Mapping[str, Any]]] = None
                     ) -> ClassObject:
        """Create a Class object whose instances carry workload attributes.

        ``work_units`` makes every instance a finite job of that size;
        ``attr_factory`` may instead compute per-instance attributes (it
        receives the new instance's LOID).
        """
        def factory(loid: LOID, class_loid: LOID) -> LegionObject:
            instance = LegionObject(loid, class_loid)
            if work_units is not None:
                instance.attributes.set("work_units", float(work_units))
            instance.attributes.set("memory_mb", float(memory_mb))
            if attr_factory is not None:
                instance.attributes.update(dict(attr_factory(loid)))
            return instance

        class_obj = ClassObject(
            self.minter.mint("class", name), name, self.minter,
            self.resolve, implementations=list(implementations),
            instance_factory=factory,
            default_placer=self._default_placer)
        # advertise expected resource characteristics on the class itself
        # ("any Scheduler may query the object classes to determine such
        # information", section 3.3)
        if work_units is not None:
            class_obj.attributes.set("work_units", float(work_units))
        class_obj.attributes.set("memory_mb", float(memory_mb))
        self._register(class_obj)
        self.classes[name] = class_obj
        self.context.bind(f"/classes/{name}", class_obj.loid)
        return class_obj

    def _default_placer(self, class_obj: ClassObject,
                        hint: Any) -> Optional[Placement]:
        """The Class's quick, "almost certainly non-optimal" placement
        (section 2.1): a single random viable host from the Collection.

        ``hint`` may be a vault LOID (implicit reactivation passes the
        object's existing vault): candidates are then restricted to hosts
        that can reach it.
        """
        from .scheduler.base import implementation_query
        try:
            query = implementation_query(class_obj.get_implementations())
        except LegionError:
            return None
        records = self.collection.query(query)
        if isinstance(hint, LOID):
            records = [r for r in records
                       if str(hint) in (r.get("compatible_vaults") or [])]
        if not records:
            return None
        rng = self.rngs.stream("class", class_obj.name, "default-placer")
        record = records[int(rng.integers(0, len(records)))]
        if isinstance(hint, LOID):
            return Placement(host_loid=record.member, vault_loid=hint)
        vaults = Scheduler.compatible_vaults_of(record)
        if not vaults:
            return None
        return Placement(host_loid=record.member, vault_loid=vaults[0])

    # ------------------------------------------------------------------
    # RMI services
    # ------------------------------------------------------------------
    def make_scheduler(self, kind: str = "random", **kwargs) -> Scheduler:
        """Instantiate one of the bundled Schedulers, fully wired.

        ``kind="economy"`` (or the explicit ``"economy-cost"`` /
        ``"economy-time"`` spellings) builds an
        :class:`~repro.economy.sched.EconomyScheduler`, enabling the
        economy layer on demand and auto-provisioning the named
        ``user=`` account at ``DEFAULT_BUDGET`` / ``DEFAULT_DEADLINE`` if
        it does not exist yet.
        """
        if kind in _ECONOMY_KINDS:
            from .economy import EconomyScheduler
            from .economy.config import DEFAULT_BUDGET, DEFAULT_DEADLINE
            suite = self.enable_economy()
            mode = kwargs.pop("mode", None)
            if mode is None:
                mode = "time" if kind == "economy-time" else "cost"
            user = kwargs.pop("user", "default")
            suite.budgets.ensure(user, budget=DEFAULT_BUDGET,
                                 deadline=DEFAULT_DEADLINE)
            rng = kwargs.pop("rng", None)
            if rng is None:
                rng = self.rngs.stream("scheduler", kind, user)
            return EconomyScheduler(
                self.collection, self.enactor, self.transport, rng=rng,
                budgets=suite.budgets, auction=suite.auction,
                market=suite.market, user=user, mode=mode, **kwargs)
        cls = _SCHEDULER_KINDS.get(kind)
        if cls is None:
            raise ValueError(
                f"unknown scheduler kind {kind!r}; choose from "
                f"{list(SCHEDULER_KINDS)}")
        rng = kwargs.pop("rng", None)
        if rng is None:
            rng = self.rngs.stream("scheduler", kind)
        return cls(self.collection, self.enactor, self.transport,
                   rng=rng, **kwargs)

    def make_daemon(self, interval: float = 60.0,
                    evict_down_after: Optional[float] = None
                    ) -> DataCollectionDaemon:
        daemon = DataCollectionDaemon(
            self.sim, [self.collection], interval=interval,
            metrics=self.metrics)
        if self.guardrails is not None:
            # health-aware sweeps: skip DOWN sources and evict their
            # records once DOWN longer than the horizon (default: twice
            # the monitor's down_after threshold)
            horizon = (evict_down_after if evict_down_after is not None
                       else 2.0 * self.guardrails.config.down_after)
            daemon.attach_health(self.guardrails.monitor,
                                 evict_after=horizon)
        for host in self.hosts:
            daemon.watch(host)
        return daemon

    def make_monitor(self, **kwargs) -> ExecutionMonitor:
        self.monitor = ExecutionMonitor(self.migrator, self.collection,
                                        self.resolve, **kwargs)
        return self.monitor

    # ------------------------------------------------------------------
    # time-series telemetry / SLOs
    # ------------------------------------------------------------------
    def start_sampler(self, window: float = 30.0) -> Any:
        """Arm the windowed time-series sampler
        (:class:`~repro.obs.timeseries.MetricsSampler`): registry deltas
        are captured every ``window`` virtual seconds into a bounded
        ring, the substrate the SLO engine and ``legion-sim slo``
        evaluate.  The sampler draws no random numbers, so arming it
        never perturbs the seeded streams of an existing scenario."""
        from .obs.timeseries import MetricsSampler
        if self.sampler is not None:
            raise LegionError("a metrics sampler is already armed")
        self.sampler = MetricsSampler(self.sim, self.metrics,
                                      window=window).start()
        return self.sampler

    def default_slos(self) -> List[Any]:
        """The stock Legion objectives
        (:func:`~repro.obs.slo.default_legion_slos`)."""
        from .obs.slo import default_legion_slos
        return default_legion_slos()

    def slo_health_report(self, specs: Optional[Sequence[Any]] = None,
                          include_windows: bool = True,
                          title: str = "slo health") -> Dict[str, Any]:
        """Flush the sampler and build the unified health report
        (:func:`~repro.obs.report.build_health_report`) over the given
        objectives (default: :meth:`default_slos`)."""
        from .obs.report import build_health_report
        if self.sampler is None:
            raise LegionError(
                "no metrics sampler armed (call start_sampler())")
        self.sampler.flush()
        return build_health_report(
            self.sampler,
            list(specs) if specs is not None else self.default_slos(),
            spans=self.spans.spans, title=title,
            include_windows=include_windows)

    # ------------------------------------------------------------------
    # chaos / resilience
    # ------------------------------------------------------------------
    def start_chaos(self, profile: Any = "", chaos_seed: int = 0,
                    horizon: Optional[float] = None) -> Any:
        """Generate and arm a fault-injection campaign.

        The campaign is generated from ``profile`` (a name in
        :data:`repro.chaos.plan.PROFILES` or a
        :class:`~repro.chaos.plan.CampaignConfig`).  Call after hosts are
        built — campaign generation targets the current topology.
        Returns the armed :class:`~repro.chaos.injector.ChaosInjector`.
        """
        from .chaos.injector import ChaosInjector
        from .chaos.plan import PROFILES, CampaignConfig, generate_campaign
        if self.chaos is not None:
            raise LegionError("a chaos injector is already armed")
        if not profile:
            raise LegionError("no chaos profile (pass profile=)")
        if isinstance(profile, str):
            config = PROFILES.get(profile)
            if config is None:
                raise LegionError(
                    f"unknown chaos profile {profile!r}; choose from "
                    f"{sorted(PROFILES)}")
            profile_name = profile
        elif isinstance(profile, CampaignConfig):
            config = profile
            profile_name = "custom"
        else:
            raise LegionError(
                f"chaos profile must be a name or a CampaignConfig, "
                f"got {type(profile)}")
        if horizon:
            config = config.with_horizon(horizon)
        built = generate_campaign(self, config, seed=chaos_seed,
                                  profile=profile_name)
        self.chaos = ChaosInjector(self, built).arm()
        return self.chaos

    def enable_guardrails(self, config: Any = None) -> Any:
        """Install the self-healing layer (detect → quarantine → route
        around → probe → recover):

        * a :class:`~repro.guardrails.health.HealthMonitor` classifying
          hosts LIVE/SUSPECT/DOWN and publishing ``host_health`` into
          Collection records,
        * per-destination circuit breakers on the transport,
        * a shared load-aware admission controller on every Host Object,
        * query-time exclusion of DOWN records in the Collection (and
          every federation shard), plus Enactor-side load shedding.

        Idempotent — a second call returns the existing suite.  The layer
        draws no random numbers, so enabling it never perturbs the seeded
        streams of an existing scenario.  ``config`` is a
        :class:`~repro.guardrails.config.GuardrailConfig` (default: its
        defaults).
        """
        from .guardrails import (
            AdmissionController,
            BreakerBoard,
            GuardrailConfig,
            GuardrailSuite,
            HealthMonitor,
        )
        if self.guardrails is not None:
            return self.guardrails
        if config is None:
            config = GuardrailConfig()
        monitor = HealthMonitor(
            self.sim, self.collection,
            suspect_after=config.suspect_after,
            down_after=config.down_after,
            metrics=self.metrics, spans=self.spans)
        board = BreakerBoard(
            lambda: self.sim.now,
            failure_threshold=config.breaker_failure_threshold,
            metrics=self.metrics, spans=self.spans,
            listener=monitor.note_outcome)
        admission = AdmissionController(
            max_pending=config.admission_max_pending,
            load_limit=config.admission_load_limit,
            metrics=self.metrics)
        self.transport.breakers = board
        self.enactor.health = monitor
        self.collection.exclude_down_members = True
        suite = GuardrailSuite(config, monitor, board, admission)
        for host in self.hosts:
            self._attach_layers(host, suite, None)
        monitor.start()
        self.guardrails = suite
        return suite

    def enable_economy(self, config: Any = None) -> Any:
        """Install the computational-economy layer:

        * a metered accounting :class:`~repro.accounting.ledger.Ledger`
          attached to every Host (cycles x price on completion/kill),
        * a :class:`~repro.economy.market.Market` that prices hosts from
          speed and repricess them from load/utilization on a seeded
          daemon, publishing ``host_ask_price`` into Collection records,
        * a :class:`~repro.economy.budget.BudgetManager` hooked into the
          ledger so charges land on per-user accounts,
        * a :class:`~repro.economy.auction.SealedBidAuction` the economic
          schedulers clear their reservation rounds through.

        Idempotent — a second call returns the existing suite.  Market
        jitter draws only from the dedicated ``("economy", "market")``
        stream, so enabling the economy never perturbs the other seeded
        streams of an existing scenario.  ``config`` is an
        :class:`~repro.economy.config.EconomyConfig` (default: its
        defaults).
        """
        from .accounting.ledger import Ledger
        from .economy import (
            BudgetManager,
            EconomyConfig,
            EconomySuite,
            Market,
            SealedBidAuction,
        )
        if self.economy is not None:
            return self.economy
        if config is None:
            config = EconomyConfig()
        ledger = Ledger(clock=lambda: self.sim.now)
        budgets = BudgetManager(clock=lambda: self.sim.now,
                                metrics=self.metrics)
        budgets.attach_ledger(ledger)
        market = Market(
            self.sim, rng=self.rngs.stream("economy", "market"),
            repricing_jitter=config.repricing_jitter, metrics=self.metrics)
        auction = SealedBidAuction(metrics=self.metrics)
        suite = EconomySuite(config=config, market=market, auction=auction,
                             budgets=budgets, ledger=ledger)
        for host in self.hosts:
            self._attach_layers(host, None, suite)
        market.start()
        self.metrics.gauge_fn("economy_budget_committed",
                              lambda: budgets.total_committed,
                              help="funds held against pending placements")
        self.economy = suite
        return suite

    def enable_retries(self, **kwargs) -> Any:
        """Install the opt-in resilience layer: a shared RetryPolicy
        (built from ``kwargs``) on the transport (idempotent calls) and
        the Enactor (reservation round).  Jitter draws from a dedicated
        seeded stream, keeping retry-enabled runs deterministic."""
        from .chaos.retry import RetryPolicy
        policy = RetryPolicy(rng=self.rngs.stream("chaos", "retry"),
                             **kwargs)
        self.transport.retry_policy = policy
        self.enactor.retry_policy = policy
        return policy

    def start_service(self, config: Any = None, app: Any = None,
                      recovery: Any = None) -> Any:
        """Start the live service tier: a typed
        :class:`~repro.service.gateway.RequestGateway` feeding a bounded
        :class:`~repro.service.queue.PlacementQueue` drained by a
        :class:`~repro.service.workers.WorkerPool` of seeded daemons
        driving :meth:`~repro.scheduler.base.Scheduler.run`.

        ``app`` is the Class placed per request (default: a maximally
        portable ``service-app`` class sized by the config's ``work``).
        Idempotent — a second call returns the existing suite, and
        raises a :class:`~repro.errors.LegionError` if that suite was
        stopped (:meth:`stop_service` detaches it first).  All
        randomness draws from dedicated ``("service", ...)`` streams, so
        starting the service never perturbs the other seeded streams of
        an existing scenario.  ``config`` is a
        :class:`~repro.service.config.ServiceConfig` (default: its
        defaults).

        ``recovery`` (a :class:`~repro.recovery.RecoveryConfig`, or
        ``True`` for defaults) arms the crash-recovery layer: a
        write-ahead :class:`~repro.recovery.journal.RequestJournal`, a
        TTL :class:`~repro.recovery.leases.LeaseTable` with per-worker
        heartbeats, and a :class:`~repro.recovery.supervisor.Supervisor`
        daemon that requeues orphans of crashed workers.  Recovery-mode
        workers run their schedulers with ``viable_cache=False`` so a
        checkpoint-restored scheduler (cold cache) behaves identically
        to one that ran straight through.
        """
        from .service import (
            PlacementQueue,
            RequestGateway,
            ServiceConfig,
            ServiceSuite,
            WorkerPool,
        )
        if self.service is not None:
            if self.service.stopped:
                raise LegionError(
                    "the service tier on this metasystem was stopped; "
                    "stop_service() detaches it before a new one starts")
            return self.service
        if config is None:
            config = ServiceConfig()
        if recovery is True:
            from .recovery import RecoveryConfig
            recovery = RecoveryConfig()
        if app is None:
            # a tier started again after stop_service() reuses the class
            app = self.classes.get("service-app")
            if app is None:
                from .workload.testbed import (
                    implementations_for_all_platforms)
                app = self.create_class("service-app",
                                        implementations_for_all_platforms(),
                                        work_units=config.work)
            elif app.attributes.get("work_units") != float(config.work):
                raise LegionError(
                    f"the existing 'service-app' class has work_units "
                    f"{app.attributes.get('work_units')}, not the "
                    f"config's {config.work}")
        journal = leases = supervisor = None
        heartbeat_interval = 0.0
        sched_kwargs = {}
        if recovery is not None:
            from .recovery import LeaseTable, RequestJournal
            journal = RequestJournal(lambda: self.sim.now,
                                     metrics=self.metrics)
            leases = LeaseTable(recovery.lease_ttl, metrics=self.metrics)
            heartbeat_interval = recovery.heartbeat_interval
            sched_kwargs["viable_cache"] = False
        queue = PlacementQueue(config.queue_cap, config.backpressure,
                               metrics=self.metrics)
        gateway = RequestGateway(self.sim, queue, config,
                                 metrics=self.metrics, spans=self.spans,
                                 hosts=self.hosts, journal=journal)
        pool = WorkerPool(
            self.sim, queue, gateway, app, config,
            scheduler_factory=lambda i: self.make_scheduler(
                config.scheduler,
                rng=self.rngs.stream("service", "sched", str(i)),
                name=f"svc-w{i}", **sched_kwargs),
            rng_factory=lambda i: self.rngs.stream("service", "retry",
                                                   str(i)),
            metrics=self.metrics, spans=self.spans, leases=leases,
            heartbeat_interval=heartbeat_interval)
        pool.start()
        if recovery is not None:
            from .recovery import Supervisor
            supervisor = Supervisor(self.sim, gateway, leases, app,
                                    metrics=self.metrics,
                                    spans=self.spans).start()
        self.service = ServiceSuite(config, gateway, queue, pool, app,
                                    recovery=recovery, journal=journal,
                                    leases=leases, supervisor=supervisor)
        return self.service

    def stop_service(self) -> Any:
        """Tear the service tier down (checkpoint/restore's middle step).

        Stops the suite (:meth:`~repro.service.ServiceSuite.stop`: the
        supervisor stops and the worker pool shuts down, so in-flight
        generators die at their next resume) and detaches it from the
        metasystem so :meth:`start_service` can build a fresh tier.  The
        world — hosts, Collection, the app class and its placed
        instances — keeps running.  Returns the detached suite.
        """
        suite, self.service = self.service, None
        if suite is not None:
            suite.stop()
        return suite

    # ------------------------------------------------------------------
    # time control
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def advance(self, seconds: float) -> None:
        """Run the world forward by ``seconds`` of virtual time."""
        self.sim.run_until(self.sim.now + seconds)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def host_by_name(self, name: str) -> HostObject:
        loid = self.context.lookup(f"/hosts/{name}")
        return self.resolve_strict(loid)

    def snapshot_loads(self) -> Dict[str, float]:
        return {h.machine.name: h.machine.load_average for h in self.hosts}

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Metasystem t={self.sim.now:.1f}s hosts={len(self.hosts)} "
                f"vaults={len(self.vaults)} classes={len(self.classes)}>")
