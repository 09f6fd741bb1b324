"""chaos — deterministic fault-injection campaigns for the metasystem.

The paper claims the RMI "accommodates failure at any step in the
scheduling process" (section 3.1); this subsystem turns that claim into
measured behaviour:

* :mod:`~repro.chaos.faults` — typed, revertible fault actions over the
  existing failure primitives (host crash, domain partition, message
  loss, latency spikes, load surges, federation shard outages);
* :mod:`~repro.chaos.plan` — declarative fault timelines and seeded
  MTBF/MTTR campaign generators (same seed ⇒ byte-identical campaign);
* :mod:`~repro.chaos.injector` — the ChaosInjector daemon that applies
  and reverts faults on the virtual clock, emits ``chaos_*`` metrics
  and trace spans, and guarantees revert-on-teardown;
* :mod:`~repro.chaos.retry` — the opt-in RetryPolicy (seeded backoff)
  that lets the system *survive* transient faults;
* :mod:`~repro.chaos.report` / :mod:`~repro.chaos.campaign` —
  ResilienceReport aggregation and the end-to-end ``run_campaign``
  driver behind ``legion-sim chaos``.

Entry points: ``Metasystem.start_chaos(...)``,
``Metasystem.enable_retries(...)``, and
:func:`repro.chaos.campaign.run_campaign`.
"""

from .campaign import run_campaign
from .faults import (
    FAULT_CLASSES,
    DomainPartition,
    Fault,
    FederationShardOutage,
    HostCrash,
    LatencySpike,
    LoadSurge,
    MessageLossSpike,
    make_fault,
)
from .injector import ChaosInjector, FaultRecord
from .plan import (
    PROFILES,
    CampaignConfig,
    ChaosPlan,
    FaultClassConfig,
    FaultEvent,
    generate_campaign,
)
from .report import ResilienceReport
from .retry import RetryPolicy

__all__ = [
    "Fault",
    "HostCrash",
    "DomainPartition",
    "MessageLossSpike",
    "LatencySpike",
    "LoadSurge",
    "FederationShardOutage",
    "FAULT_CLASSES",
    "make_fault",
    "FaultEvent",
    "FaultClassConfig",
    "CampaignConfig",
    "ChaosPlan",
    "PROFILES",
    "generate_campaign",
    "ChaosInjector",
    "FaultRecord",
    "RetryPolicy",
    "ResilienceReport",
    "run_campaign",
]
