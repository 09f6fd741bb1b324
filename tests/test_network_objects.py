"""Tests for Network Objects (bandwidth guardians) and bandwidth-aware
scheduling."""

import dataclasses

import pytest

from repro import ObjectClassRequest
from repro.errors import (
    InvalidReservationError,
    PlacementPolicyError,
    ReservationDeniedError,
)
from repro.naming import LOID
from repro.network_objects import (
    BandwidthAwareScheduler,
    LinkRegistry,
    NetworkObject,
)


def make_link(capacity=1000.0, **kw):
    return NetworkObject(LOID(("d", "svc", "link-ab")), "a", "b",
                         capacity=capacity, **kw)


class TestBandwidthReservations:
    def test_grant_within_capacity(self):
        link = make_link(1000.0)
        tok = link.reserve_bandwidth(600.0, now=0.0, duration=100.0)
        assert link.check_bandwidth(tok, now=50.0)
        assert link.available_at(50.0) == pytest.approx(400.0)

    def test_token_ids_count_per_link(self):
        ids = [make_link().reserve_bandwidth(100.0, now=0.0,
                                             duration=10.0).token_id
               for _ in range(2)]
        assert ids == [1, 1]

    def test_capacity_enforced(self):
        link = make_link(1000.0)
        link.reserve_bandwidth(700.0, now=0.0, duration=100.0)
        with pytest.raises(ReservationDeniedError):
            link.reserve_bandwidth(400.0, now=0.0, duration=100.0)
        # but a smaller request fits
        link.reserve_bandwidth(300.0, now=0.0, duration=100.0)
        assert link.denials == 1

    def test_disjoint_windows_reuse_capacity(self):
        link = make_link(1000.0)
        link.reserve_bandwidth(1000.0, now=0.0, duration=50.0)
        tok = link.reserve_bandwidth(1000.0, now=0.0, duration=50.0,
                                     start=60.0)
        assert tok.start == 60.0

    def test_overlapping_boundary_windows(self):
        link = make_link(1000.0)
        link.reserve_bandwidth(800.0, now=0.0, duration=100.0, start=50.0)
        # window [0, 60) overlaps [50, 150): only 200 free at t=50
        with pytest.raises(ReservationDeniedError):
            link.reserve_bandwidth(300.0, now=0.0, duration=60.0)
        link.reserve_bandwidth(200.0, now=0.0, duration=60.0)

    def test_release_frees_bandwidth(self):
        link = make_link(1000.0)
        tok = link.reserve_bandwidth(1000.0, now=0.0, duration=100.0)
        link.release_bandwidth(tok, now=10.0)
        assert not link.check_bandwidth(tok, now=10.0)
        link.reserve_bandwidth(1000.0, now=10.0, duration=10.0)

    def test_token_forgery_detected(self):
        link = make_link()
        tok = link.reserve_bandwidth(100.0, now=0.0, duration=10.0)
        forged = dataclasses.replace(tok, bandwidth=1e9)
        assert not link.check_bandwidth(forged, now=0.0)
        other = make_link()
        with pytest.raises(InvalidReservationError):
            other.release_bandwidth(tok, now=0.0)

    def test_expiry(self):
        link = make_link()
        tok = link.reserve_bandwidth(100.0, now=0.0, duration=10.0)
        assert link.check_bandwidth(tok, now=9.9)
        assert not link.check_bandwidth(tok, now=10.0)

    def test_policy_refusal(self):
        link = make_link(refused_domains=["evil"])
        with pytest.raises(PlacementPolicyError):
            link.reserve_bandwidth(10.0, now=0.0, duration=10.0,
                                   requester_domain="evil")

    def test_validation(self):
        link = make_link()
        with pytest.raises(ReservationDeniedError):
            link.reserve_bandwidth(0.0, now=0.0, duration=10.0)
        with pytest.raises(ReservationDeniedError):
            link.reserve_bandwidth(10.0, now=5.0, duration=10.0, start=1.0)
        with pytest.raises(ValueError):
            NetworkObject(LOID(("d", "svc", "bad")), "a", "b",
                          capacity=0.0)

    def test_transfer_time_and_shares(self):
        link = make_link(1000.0, base_latency=0.1)
        assert link.transfer_time(900.0, granted=900.0) == pytest.approx(
            1.1)
        link.reserve_bandwidth(600.0, now=0.0, duration=100.0)
        assert link.effective_share(now=0.0, flows=2) == pytest.approx(
            200.0)
        assert link.utilization_at(0.0) == pytest.approx(0.6)


class TestRegistry:
    def test_between_lookup(self):
        ab = NetworkObject(LOID(("d", "svc", "ab")), "a", "b")
        bc = NetworkObject(LOID(("d", "svc", "bc")), "b", "c")
        reg = LinkRegistry([ab, bc])
        assert reg.between("a", "b") is ab
        assert reg.between("b", "a") is ab
        assert reg.between("b", "c") is bc
        assert reg.between("a", "c") is None
        assert reg.between("a", "a") is None


@pytest.fixture
def commworld(multi):
    """Three-domain testbed plus guarded inter-domain links."""
    reg = LinkRegistry()
    domains = [d.name for d in multi.topology.domains()]
    for i, da in enumerate(domains):
        for db in domains[i + 1:]:
            reg.add(NetworkObject(
                multi.minter.mint("svc", f"link-{da}-{db}"), da, db,
                capacity=1.0e5))
    from repro.workload import implementations_for_all_platforms
    app = multi.create_class("Pipe",
                             implementations_for_all_platforms(),
                             work_units=10.0)
    host_domains = {h.loid: h.domain for h in multi.hosts}
    return multi, reg, app, host_domains


class TestBandwidthAwareScheduler:
    def test_prefers_low_comm_placements(self, commworld):
        meta, reg, app, host_domains = commworld
        sched = BandwidthAwareScheduler(
            meta.collection, meta.enactor, meta.transport,
            links=reg, host_domains=host_domains,
            pair_traffic=5.0e4, n_variants=4)
        rl = sched.compute_schedule([ObjectClassRequest(app, 4)])
        entries = rl.masters[0].entries
        chosen_penalty = sched.comm_penalty(entries, meta.now)
        # the chosen candidate is no worse than any retained variant
        for variant in rl.masters[0].variants:
            alt = rl.masters[0].resolve(variant)
            assert chosen_penalty <= sched.comm_penalty(alt, meta.now)

    def test_end_to_end_with_bandwidth_coallocation(self, commworld):
        meta, reg, app, host_domains = commworld
        sched = BandwidthAwareScheduler(
            meta.collection, meta.enactor, meta.transport,
            links=reg, host_domains=host_domains,
            pair_traffic=2.0e4)
        outcome = sched.run([ObjectClassRequest(app, 4)])
        assert outcome.ok
        plan = sched.allocate_bandwidth(
            outcome.feedback.reserved_entries, duration=600.0)
        # demand exists only if the placement crossed domains
        for link_loid, demand in plan.demands.items():
            link = next(l for l in reg.all_links()
                        if l.loid == link_loid)
            assert link.allocated_at(meta.now) >= demand

    def test_allocation_is_all_or_nothing(self, commworld):
        meta, reg, app, host_domains = commworld
        # drain one link so a multi-link plan must fail midway
        sched = BandwidthAwareScheduler(
            meta.collection, meta.enactor, meta.transport,
            links=reg, host_domains=host_domains,
            pair_traffic=6.0e4)
        # forced cross-domain chain over all three domains
        hosts = []
        for d in ("dom0", "dom1", "dom2"):
            hosts.append(next(h for h in meta.hosts if h.domain == d))
        from repro.schedule import ScheduleMapping
        entries = [ScheduleMapping(app.loid, h.loid,
                                   h.get_compatible_vaults()[0])
                   for h in hosts]
        # exhaust the dom1-dom2 link
        link12 = reg.between("dom1", "dom2")
        link12.reserve_bandwidth(link12.capacity, now=meta.now,
                                 duration=1e6)
        with pytest.raises(ReservationDeniedError):
            sched.allocate_bandwidth(entries, duration=100.0)
        # the dom0-dom1 grant was rolled back
        link01 = reg.between("dom0", "dom1")
        assert link01.allocated_at(meta.now) == 0.0

    def test_traffic_matrix_overrides_chain(self, commworld):
        meta, reg, app, host_domains = commworld
        sched = BandwidthAwareScheduler(
            meta.collection, meta.enactor, meta.transport,
            links=reg, host_domains=host_domains,
            traffic_matrix={(0, 3): 1.0e4})
        hosts = [h for h in meta.hosts[:4]]
        from repro.schedule import ScheduleMapping
        entries = [ScheduleMapping(app.loid, h.loid,
                                   h.get_compatible_vaults()[0])
                   for h in hosts]
        pairs = sched._pairs(len(entries))
        assert pairs == {(0, 3): 1.0e4}
