"""The steps every seeded campaign runner repeats, written once.

A campaign (``run_campaign``, ``run_economy``, ``run_service``,
``run_gameday`` and their ``*_comparison`` forms) is: build the standard
world, drive it, drain it, summarise the SLO engine's verdicts, and hand
back a report that serialises to a byte-stable JSON ledger.  The driving
is what differs between campaigns; everything else lives here as plain
functions and two small base classes, so a new campaign is a runner
built from these steps (``docs/extending.md``, "Adding a campaign").
The two service-tier campaigns share more: ``run_service`` and
``run_gameday`` run one driver (``repro.service.report._run_tier``),
which drains until :attr:`~repro.service.ServiceSuite.settled`.

Only the standard library is imported at module level: the report
classes of every layer import this module, so it must not pull the
metasystem in (``import repro`` stays as cheap, and no cycle appears).
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from .audit.claims import Claim, failures

__all__ = ["WAVE_DRAIN_STEP", "SERVICE_DRAIN_STEP", "stable_round",
           "standard_world", "drain", "jobs_done", "slo_block",
           "run_variants",
           "Report", "Comparison"]

#: drain slice for wave campaigns (chaos, economy): jobs run for minutes
WAVE_DRAIN_STEP = 50.0
#: drain slice for the service tier (serve, gameday): ``drain`` tests
#: for idle once per slice, so the ``drain_seconds`` BENCH_service.json
#: and BENCH_gameday.json record is whole slices, plus any time a
#: placement in flight ran the clock past a slice's end
SERVICE_DRAIN_STEP = 5.0


def stable_round(value: float) -> float:
    """Six decimal places: what every ledger float is rounded to."""
    return round(float(value), 6)


def standard_world(seed: int, n_domains: int, hosts_per_domain: int,
                   platform_mix: int, background_load: float,
                   **spec: Any) -> Any:
    """The stock campaign testbed, with the Collection and the Enactor
    given network locations in ``dom0`` so information queries and
    reservations cost messages — and can honestly be lost.  ``spec``
    passes further :class:`~repro.workload.testbed.TestbedSpec` fields
    through; a federated spec also gets its shards placed."""
    # looked up on the module at call time: benchmarks/perf patches
    # ``testbed.build_testbed`` to attribute world-building time
    from .workload import testbed
    meta = testbed.build_testbed(testbed.TestbedSpec(
        seed=seed, n_domains=n_domains,
        hosts_per_domain=hosts_per_domain, platform_mix=platform_mix,
        background_load_mean=background_load, **spec))
    meta.place_collection("dom0")
    meta.place_enactor("dom0")
    if spec.get("federation_shards"):
        meta.place_federation()
    return meta


def drain(meta: Any, idle: Callable[[Any], bool], budget: float,
          step: float) -> float:
    """Advance ``meta`` in ``step``-second slices until ``idle(meta)``
    holds or ``budget`` virtual seconds are spent; returns the seconds
    spent."""
    start = meta.now
    stop = start + budget
    while meta.now < stop and not idle(meta):
        meta.advance(step)
    return meta.now - start


def jobs_done(meta: Any) -> bool:
    """The wave campaigns' ``idle``: no host is still running a job."""
    return not any(host.machine.jobs for host in meta.hosts)


def slo_block(meta: Any, specs: Sequence[Any]
              ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Flush the sampler and evaluate ``specs`` over its windows.

    Returns the ledger's ``slo`` block and the per-objective results by
    name, for callers that report one objective's verdict on its own."""
    from .obs.slo import evaluate_slos
    meta.sampler.flush()
    results = evaluate_slos(specs, meta.sampler.windows)
    block = {
        "window_seconds": meta.sampler.window,
        "windows": len(meta.sampler.windows),
        "minutes_lost": stable_round(sum(r.minutes_lost for r in results)),
        "alerts": sum(len(r.alerts) for r in results),
        "exhausted": sum(1 for r in results if r.exhausted),
        "budgets": {r.spec.name: stable_round(r.budget_consumed)
                    for r in results},
    }
    return block, {r.spec.name: r for r in results}


def run_variants(runner: Callable[..., Any],
                 variants: Mapping[str, Mapping[str, Any]],
                 **common: Any) -> Dict[str, Any]:
    """Run ``runner`` once per variant on the identical seeded world.

    Every run gets ``common`` overlaid with its variant's overrides, so
    all seeds are shared and the reports differ by policy, not by luck.
    Returns ``{variant name: report}`` in ``variants`` order."""
    return {name: runner(**{**common, **override})
            for name, override in variants.items()}


class Report:
    """What a campaign hands back: ``summary()`` is the subclass's; the
    ledger forms (dict, byte-stable JSON, file) and the gate's shape are
    fixed here."""

    #: what ``legion-sim … --out`` says it wrote
    label = "report"

    def to_dict(self) -> Dict[str, Any]:
        """A dataclass report's ledger form: every field, the ones
        annotated ``float`` at ledger precision.  Subclasses add their
        derived values (or lay the document out themselves)."""
        return {f.name: (stable_round(getattr(self, f.name))
                         if f.type in (float, "float")
                         else getattr(self, f.name))
                for f in fields(self)}

    def to_json(self, **kwargs: Any) -> str:
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    def write(self, path: str) -> None:
        """Write the ledger form: ``to_json()`` plus a final newline."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    def problems(self) -> List[str]:
        """Why this report fails its gate, one line each; empty = pass."""
        return []


class Comparison(Report):
    """The same seeded campaign under N variants, keyed by variant name,
    and its ``claims`` about them (its gate is their ``gate`` rows)."""

    #: the key the per-variant reports serialise under
    reports_key = "reports"
    claims: Tuple[Claim, ...] = ()

    def __init__(self, reports: Mapping[str, Any]) -> None:
        self.reports: Dict[str, Any] = dict(reports)

    def arms(self) -> Dict[str, Dict[str, Any]]:
        """Each variant's ledger dict, by name: what the claims read."""
        return {name: self.reports[name].to_dict()
                for name in sorted(self.reports)}

    def verdict(self) -> Dict[str, Any]:
        """The derived top-level fields of ``to_dict()`` (gate booleans,
        deltas) that sit beside the per-variant reports."""
        return {}

    def problems(self) -> List[str]:
        return failures([claim for claim in self.claims if claim.gate],
                        self.arms())

    def to_dict(self) -> Dict[str, Any]:
        doc = self.verdict()
        doc[self.reports_key] = self.arms()
        return doc
