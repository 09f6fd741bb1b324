"""The Fig. 5 structure every bundled Scheduler emits, pinned.

One small seeded heterogeneous world (two domains, three platforms, a
class that runs on two of them, so a host of the third is not viable).
For each kind in :data:`~repro.metasystem.SCHEDULER_KINDS`, plus the
bandwidth-aware Scheduler, the first ``compute_schedule`` of four
instances is rendered as text: the request-list label, each master's
label and its entries' (host, vault), and for each variant its label,
the entries it replaces and what replaces them.  The digests in
``tests/test_determinism.py`` pin IRS and load-aware only indirectly;
this pins the shape of every policy's schedule directly.
"""

import pytest

from repro import Implementation, ObjectClassRequest
from repro.metasystem import SCHEDULER_KINDS
from repro.network_objects import (
    BandwidthAwareScheduler,
    LinkRegistry,
    NetworkObject,
)
from repro.workload.testbed import TestbedSpec, build_testbed

BANDWIDTH = "bandwidth-aware"


def world():
    meta = build_testbed(TestbedSpec(seed=3, n_domains=2,
                                     hosts_per_domain=4, platform_mix=3))
    app = meta.create_class("App", [Implementation("sparc", "SunOS"),
                                    Implementation("x86", "Linux")],
                            work_units=10.0)
    return meta, app


def scheduler_of(meta, kind):
    if kind != BANDWIDTH:
        return meta.make_scheduler(kind)
    links = LinkRegistry([NetworkObject(
        meta.minter.mint("svc", "link-dom0-dom1"), "dom0", "dom1",
        capacity=1.0e5)])
    return BandwidthAwareScheduler(
        meta.collection, meta.enactor, meta.transport, links=links,
        host_domains={h.loid: h.domain for h in meta.hosts},
        traffic_matrix={(1, 2): 5.0e4})


def short(loid):
    """``dom1-ws2`` -> ``d1w2``, ``dom1-vault0`` -> ``d1v0``."""
    name = str(loid).rsplit(".", 1)[-1]
    return (name.replace("dom", "d").replace("-ws", "w")
            .replace("-vault", "v"))


def target(mapping):
    """``host@vault``, plus a gang size above one."""
    gang = f"x{mapping.gang}" if mapping.gang > 1 else ""
    return f"{short(mapping.host_loid)}@{short(mapping.vault_loid)}{gang}"


def shape(request_list):
    lines = [f"request {request_list.label}"]
    for master in request_list.masters:
        k = "" if master.required_k is None else f" k={master.required_k}"
        lines.append(f"master {master.label}{k}: "
                     + " ".join(target(m) for m in master.entries))
        for variant in master.variants:
            lines.append(f"  {variant.label}: " + " ".join(
                f"{j}={target(m)}"
                for j, m in sorted(variant.replacements.items())))
    return lines


#: kind -> the rendered shape of its first schedule
SHAPES = {
    "cost": [
        "request cost-aware",
        "master cost-aware: d0w1@d0v0 d0w3@d0v0 d1w0@d1v0 d1w2@d1v0",
        "  cost-alt-1: 0=d0w3@d0v0 1=d1w0@d1v0 2=d1w2@d1v0 3=d0w0@d0v0",
        "  cost-alt-2: 0=d1w0@d1v0 1=d1w2@d1v0 2=d0w0@d0v0 3=d1w3@d1v0",
    ],
    "economy": [
        "request economy-cost",
        "master economy-cost: d0w3@d0v0 d0w0@d0v0 d1w2@d1v0 d0w1@d0v0",
        "  economy-cost-alt-1: 0=d0w0@d0v0 1=d1w2@d1v0 "
        "2=d0w1@d0v0 3=d1w3@d1v0",
        "  economy-cost-alt-2: 0=d1w2@d1v0 1=d0w1@d0v0 "
        "2=d1w3@d1v0 3=d1w0@d1v0",
    ],
    "economy-cost": [
        "request economy-cost",
        "master economy-cost: d0w3@d0v0 d0w0@d0v0 d1w2@d1v0 d0w1@d0v0",
        "  economy-cost-alt-1: 0=d0w0@d0v0 1=d1w2@d1v0 "
        "2=d0w1@d0v0 3=d1w3@d1v0",
        "  economy-cost-alt-2: 0=d1w2@d1v0 1=d0w1@d0v0 "
        "2=d1w3@d1v0 3=d1w0@d1v0",
    ],
    "economy-time": [
        "request economy-time",
        "master economy-time: d0w1@d0v0 d0w3@d0v0 d1w0@d1v0 d1w2@d1v0",
        "  economy-time-alt-1: 0=d0w3@d0v0 1=d1w0@d1v0 "
        "2=d1w2@d1v0 3=d0w0@d0v0",
        "  economy-time-alt-2: 0=d1w0@d1v0 1=d1w2@d1v0 "
        "2=d0w0@d0v0 3=d1w3@d1v0",
    ],
    "gang": [
        "request gang",
        "master gang: d0w1@d0v0 d0w3@d0v0 d1w2@d1v0 d0w0@d0v0",
    ],
    "irs": [
        "request irs",
        "master irs-master: d1w2@d1v0 d0w3@d0v0 d1w3@d1v0 d0w1@d0v0",
        "  irs-variant-1: 0=d0w0@d0v0 2=d0w1@d0v0 3=d0w3@d0v0",
        "  irs-variant-2: 0=d0w0@d0v0 1=d1w2@d1v0 2=d1w0@d1v0 3=d0w0@d0v0",
        "  irs-variant-3: 0=d0w1@d0v0 1=d1w0@d1v0",
    ],
    "kofn": [
        "request kofn",
        "master kofn-4-of-6 k=4: d1w0@d1v0 d1w3@d1v0 d0w1@d0v0 d0w0@d0v0 "
        "d1w2@d1v0 d0w3@d0v0",
    ],
    "load": [
        "request load-aware",
        "master load-aware: d0w1@d0v0 d0w3@d0v0 d1w0@d1v0 d1w2@d1v0",
        "  load-aware-alt-1: 0=d0w3@d0v0 1=d1w0@d1v0 2=d1w2@d1v0 3=d0w0@d0v0",
        "  load-aware-alt-2: 0=d1w0@d1v0 1=d1w2@d1v0 2=d0w0@d0v0 3=d1w3@d1v0",
        "  load-aware-alt-3: 0=d1w2@d1v0 1=d0w0@d0v0 2=d1w3@d1v0 3=d0w1@d0v0",
    ],
    "mct": [
        "request mct",
        "master mct: d0w1@d0v0 d0w3@d0v0 d1w0@d1v0 d1w2@d1v0",
        "  mct-alt-1: 0=d0w3@d0v0 1=d1w0@d1v0 2=d1w2@d1v0 3=d0w0@d0v0",
        "  mct-alt-2: 0=d1w0@d1v0 1=d1w2@d1v0 2=d0w0@d0v0 3=d1w3@d1v0",
    ],
    "random": [
        "request random",
        "master random: d1w0@d1v0 d1w0@d1v0 d0w3@d0v0 d1w0@d1v0",
    ],
    "round-robin": [
        "request round-robin",
        "master round-robin: d0w0@d0v0 d0w1@d0v0 d0w3@d0v0 d1w0@d1v0",
        "  rr-next: 0=d0w1@d0v0 1=d0w3@d0v0 2=d1w0@d1v0 3=d1w2@d1v0",
    ],
    "stencil": [
        "request stencil",
        "master stencil: d0w1@d0v0 d0w3@d0v0 d0w0@d0v0 d1w0@d1v0",
        "  stencil-spill: 0=d1w2@d1v0 1=d1w3@d1v0 2=d1w2@d1v0 3=d1w3@d1v0",
    ],
    "bandwidth-aware": [
        "request bandwidth-aware",
        "master bandwidth-aware: d0w3@d0v0 d1w0@d1v0 d1w2@d1v0 d0w0@d0v0",
        "  bw-alt: 0=d0w1@d0v0 1=d0w3@d0v0 2=d1w0@d1v0 3=d1w2@d1v0",
        "  bw-alt: 0=d1w0@d1v0 1=d1w2@d1v0 2=d0w0@d0v0 3=d1w3@d1v0",
        "  bw-alt: 0=d1w2@d1v0 1=d0w0@d0v0 2=d1w3@d1v0 3=d0w1@d0v0",
    ],
}


@pytest.mark.parametrize("kind", [*SCHEDULER_KINDS, BANDWIDTH])
def test_schedule_shape(kind):
    meta, app = world()
    request_list = scheduler_of(meta, kind).compute_schedule(
        [ObjectClassRequest(app, count=4)])
    assert shape(request_list) == SHAPES[kind]
