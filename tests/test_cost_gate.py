"""Deterministic cost gate (ROADMAP item 1a).

Two counts of model-free work — work the simulator does that no
modelled quantity depends on — pinned under stated ceilings.  Both
repeat exactly for a given seed, so the gate cannot flake; it exists so
that kernel traffic for discarded arrival candidates, or per-tick
rewrites of attributes that did not change, cannot creep back
unnoticed.
"""

from repro.campaign import standard_world
from repro.objects import AttributeDatabase
from repro.service import run_service
from repro.workload.testbed import TestbedSpec, build_testbed

#: kernel events per submitted request over a 120 s ``run_service``
#: campaign (5.2 with thinning inline; 16.8 when every thinned arrival
#: candidate was a kernel timeout)
EVENTS_PER_REQUEST_CEILING = 8.0

#: attribute writes per host reassessment in a world where no descriptor
#: changes: the four dynamic attributes (``host_available_memory_mb``,
#: ``host_load``, ``host_slots_free``, ``host_up``); it was all 17
WRITES_PER_REASSESSMENT_CEILING = 4.0


class CountingDatabase(AttributeDatabase):
    """Counts every attribute written, through either write path."""

    writes = 0

    def set(self, name, value, now=0.0):
        super().set(name, value, now=now)
        self.writes += 1

    def update(self, values, now=0.0):
        super().update(values, now=now)
        self.writes += len(values)


def test_kernel_events_per_request():
    meta = standard_world(7, 3, 6, 3, 0.3, host_slots=8,
                          sampler_window=30.0)
    before = meta.sim.events_processed
    report = run_service(seed=7, duration=120.0, meta=meta)
    events = meta.sim.events_processed - before
    submitted = report.requests["submitted"]
    assert submitted > 400
    assert events / submitted <= EVENTS_PER_REQUEST_CEILING


def test_attribute_writes_per_reassessment():
    meta = build_testbed(TestbedSpec(
        n_domains=4, hosts_per_domain=16, platform_mix=3,
        background_load_mean=0.5, seed=7))
    for host in meta.hosts:
        host.attributes = CountingDatabase(host.attributes.snapshot())
        host.attributes.writes = 0
    reassessments = sum(h.reassessments for h in meta.hosts)
    meta.advance(300.0)
    reassessments = sum(h.reassessments for h in meta.hosts) - reassessments
    writes = sum(h.attributes.writes for h in meta.hosts)
    assert reassessments == 64 * 10
    assert writes / reassessments <= WRITES_PER_REASSESSMENT_CEILING
