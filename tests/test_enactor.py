"""Tests for the Enactor: reservation negotiation, variant fallback,
anti-thrashing, k-of-n, co-allocation, and enactment."""

import pytest

from repro.enactor import Enactor
from repro.errors import MalformedScheduleError
from repro.naming import LOID
from repro.schedule import (
    MasterSchedule,
    ScheduleMapping,
    ScheduleRequestList,
    VariantSchedule,
)
from repro.schedule.schedule import FailureKind


def entry(app_class, host, vault):
    return ScheduleMapping(app_class.loid, host.loid, vault.loid)


def fill_reservations(host, vault, app_class):
    """Exhaust a host's reservation slots so new requests are denied."""
    tokens = []
    for _ in range(host.slots):
        tokens.append(host.make_reservation(vault.loid, app_class.loid))
    return tokens


class TestMakeReservations:
    def test_master_success(self, meta, app_class):
        vault = meta.vaults[0]
        entries = [entry(app_class, h, vault) for h in meta.hosts[:3]]
        request = ScheduleRequestList([MasterSchedule(entries)])
        feedback = meta.enactor.make_reservations(request)
        assert feedback.ok
        assert feedback.master_index == 0
        assert feedback.variant is None
        assert len(feedback.reserved_entries) == 3
        assert feedback.reservation_handle is not None
        # reservations actually live on the hosts
        for host in meta.hosts[:3]:
            assert host.reservations.live_count(meta.now) == 1

    def test_requires_request_list_type(self, meta):
        with pytest.raises(MalformedScheduleError):
            meta.enactor.make_reservations("not a schedule")

    def test_failure_reports_resources_kind(self, meta, app_class):
        vault = meta.vaults[0]
        host = meta.hosts[0]
        fill_reservations(host, vault, app_class)
        request = ScheduleRequestList(
            [MasterSchedule([entry(app_class, host, vault)])])
        feedback = meta.enactor.make_reservations(request)
        assert not feedback.ok
        assert feedback.failure_kind == FailureKind.RESOURCES
        assert 0 in feedback.entry_errors

    def test_variant_rescues_failed_entry(self, meta, app_class):
        vault = meta.vaults[0]
        full, free, other = meta.hosts[0], meta.hosts[1], meta.hosts[2]
        fill_reservations(full, vault, app_class)
        master = MasterSchedule([
            entry(app_class, full, vault),     # will fail
            entry(app_class, other, vault),    # will succeed
        ])
        master.add_variant(VariantSchedule(
            {0: entry(app_class, free, vault)}, label="rescue"))
        feedback = meta.enactor.make_reservations(
            ScheduleRequestList([master]))
        assert feedback.ok
        assert feedback.variant is not None
        assert feedback.variant.label == "rescue"
        hosts_used = {m.host_loid for m in feedback.reserved_entries}
        assert hosts_used == {free.loid, other.loid}

    def test_antithrash_keeps_unaffected_reservations(self, meta,
                                                      app_class):
        vault = meta.vaults[0]
        full, free, other = meta.hosts[0], meta.hosts[1], meta.hosts[2]
        fill_reservations(full, vault, app_class)
        master = MasterSchedule([
            entry(app_class, full, vault),
            entry(app_class, other, vault),
        ])
        # the variant replaces BOTH entries, but entry 1's replacement has
        # the same target — anti-thrashing must keep its reservation
        master.add_variant(VariantSchedule({
            0: entry(app_class, free, vault),
            1: entry(app_class, other, vault),
        }))
        feedback = meta.enactor.make_reservations(
            ScheduleRequestList([master]))
        assert feedback.ok
        assert meta.enactor.stats.cancellations == 0
        assert meta.enactor.stats.thrash_count == 0
        assert other.reservations.grants == 1  # never re-asked

    def test_naive_mode_thrashes(self, meta, app_class):
        vault = meta.vaults[0]
        full, free, other = meta.hosts[0], meta.hosts[1], meta.hosts[2]
        fill_reservations(full, vault, app_class)
        naive = Enactor(meta.transport, meta.resolve,
                        naive_variant_handling=True)
        master = MasterSchedule([
            entry(app_class, full, vault),
            entry(app_class, other, vault),
        ])
        master.add_variant(VariantSchedule({
            0: entry(app_class, free, vault),
            1: entry(app_class, other, vault),
        }))
        feedback = naive.make_reservations(ScheduleRequestList([master]))
        assert feedback.ok
        # the 'other' reservation was cancelled and remade: thrash
        assert naive.stats.cancellations >= 1
        assert naive.stats.thrash_count >= 1
        assert other.reservations.grants == 2

    def test_second_master_tried_after_first_fails(self, meta, app_class):
        vault = meta.vaults[0]
        full, free = meta.hosts[0], meta.hosts[1]
        fill_reservations(full, vault, app_class)
        bad = MasterSchedule([entry(app_class, full, vault)], label="bad")
        good = MasterSchedule([entry(app_class, free, vault)], label="good")
        feedback = meta.enactor.make_reservations(
            ScheduleRequestList([bad, good]))
        assert feedback.ok
        assert feedback.master_index == 1
        assert meta.enactor.stats.master_attempts == 2

    def test_all_fail_cancels_everything(self, meta, app_class):
        vault = meta.vaults[0]
        full, free = meta.hosts[0], meta.hosts[1]
        fill_reservations(full, vault, app_class)
        # master has one feasible and one infeasible entry, no variants
        master = MasterSchedule([
            entry(app_class, free, vault),
            entry(app_class, full, vault),
        ])
        feedback = meta.enactor.make_reservations(
            ScheduleRequestList([master]))
        assert not feedback.ok
        # the granted 'free' reservation must have been released
        assert free.reservations.live_count(meta.now) == 0

    def test_unknown_host_in_schedule(self, meta, app_class):
        vault = meta.vaults[0]
        ghost = ScheduleMapping(app_class.loid,
                                meta.minter.mint("host", "ghost"),
                                vault.loid)
        feedback = meta.enactor.make_reservations(
            ScheduleRequestList([MasterSchedule([ghost])]))
        assert not feedback.ok
        assert "unknown host" in feedback.entry_errors[0]


class TestKofN:
    def test_keeps_k_cancels_surplus(self, meta, app_class):
        vault = meta.vaults[0]
        master = MasterSchedule(
            [entry(app_class, h, vault) for h in meta.hosts],
            required_k=2)
        feedback = meta.enactor.make_reservations(
            ScheduleRequestList([master]))
        assert feedback.ok
        assert len(feedback.reserved_entries) == 2
        live = sum(h.reservations.live_count(meta.now) for h in meta.hosts)
        assert live == 2

    def test_kofn_fails_below_k(self, meta, app_class):
        vault = meta.vaults[0]
        for host in meta.hosts[1:]:
            fill_reservations(host, vault, app_class)
        master = MasterSchedule(
            [entry(app_class, h, vault) for h in meta.hosts],
            required_k=2)
        feedback = meta.enactor.make_reservations(
            ScheduleRequestList([master]))
        assert not feedback.ok
        assert "k-of-n" in feedback.failure_detail
        # the single obtained reservation must be released
        assert meta.hosts[0].reservations.live_count(meta.now) == 0


class TestEnactment:
    def reserved(self, meta, app_class, n=2):
        vault = meta.vaults[0]
        entries = [entry(app_class, h, vault) for h in meta.hosts[:n]]
        request = ScheduleRequestList([MasterSchedule(entries)])
        return meta.enactor.make_reservations(request)

    def test_enact_creates_instances(self, meta, app_class):
        feedback = self.reserved(meta, app_class)
        result = meta.enactor.enact_schedule(feedback)
        assert result.ok
        assert len(result.created) == 2
        for loid in result.created:
            instance = app_class.get_instance(loid)
            assert instance.is_active
            assert instance.host_loid in {h.loid for h in meta.hosts[:2]}

    def test_enact_requires_successful_feedback(self, meta, app_class):
        from repro.errors import EnactmentError
        from repro.schedule import ScheduleFeedback
        bogus = ScheduleFeedback(request=None, ok=False)
        with pytest.raises(EnactmentError):
            meta.enactor.enact_schedule(bogus)

    def test_double_enact_rejected(self, meta, app_class):
        from repro.errors import EnactmentError
        feedback = self.reserved(meta, app_class)
        meta.enactor.enact_schedule(feedback)
        with pytest.raises(EnactmentError):
            meta.enactor.enact_schedule(feedback)

    def test_cancel_releases_reservations(self, meta, app_class):
        feedback = self.reserved(meta, app_class)
        n = meta.enactor.cancel_reservations(feedback)
        assert n == 2
        for host in meta.hosts[:2]:
            assert host.reservations.live_count(meta.now) == 0

    def test_enact_rollback_on_partial_failure(self, meta, app_class):
        vault = meta.vaults[0]
        host = meta.hosts[0]
        feedback = self.reserved(meta, app_class, n=2)
        # sabotage: fill host 0's slots so create_instance will fail there
        from repro.objects import LegionObject
        for _ in range(host.slots):
            inst = LegionObject(meta.minter.mint_instance(app_class.loid),
                                app_class.loid)
            host.start_object(inst, vault.loid)
        result = meta.enactor.enact_schedule(feedback,
                                             rollback_on_failure=True)
        assert not result.ok
        assert result.created == []          # rollback emptied it
        assert meta.enactor.stats.enact_failures == 1

    @pytest.mark.parametrize("n, exchange", [(1, "invoke"),
                                             (3, "parallel_invoke")])
    def test_creates_go_out_as_one_exchange(self, meta, app_class, n,
                                            exchange, monkeypatch):
        """Several creates are one concurrent batch; a lone create is the
        plain invoke it always was (a batch of one *is* that exchange)."""
        feedback = self.reserved(meta, app_class, n=n)
        calls = {"invoke": 0, "parallel_invoke": 0}
        for name in calls:
            def counted(*args, _name=name,
                        _real=getattr(meta.transport, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(meta.transport, name, counted)
        assert meta.enactor.enact_schedule(feedback).ok
        assert calls == {e: int(e == exchange) for e in calls}

    def test_enact_reports_per_entry_codes(self, meta, app_class):
        feedback = self.reserved(meta, app_class, n=2)
        result = meta.enactor.enact_schedule(feedback)
        assert set(result.entry_results) == {0, 1}
        assert all(r.ok for r in result.entry_results.values())


class _LoseArmedDraw:
    """A loss stream that delivers every message except the one drawn
    right after :attr:`armed` is set."""

    armed = False

    def random(self):
        if self.armed:
            self.armed = False
            return 0.0
        return 1.0


class TestLostCreateAck:
    """A create that executes but whose ack is lost: the Enactor cannot
    name the instance, so rollback reaps it by its reservation token."""

    @pytest.mark.parametrize("sequential", [False, True],
                             ids=["batch", "sequential"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_lost_ack_is_suspect_and_reaped(self, meta, app_class,
                                            monkeypatch, n, sequential):
        vault = meta.vaults[0]
        hosts = meta.hosts[:n]
        target = n // 2
        enactor = Enactor(meta.transport, meta.resolve,
                          sequential_coallocation=sequential)
        feedback = enactor.make_reservations(ScheduleRequestList(
            [MasterSchedule([entry(app_class, h, vault) for h in hosts])]))
        assert feedback.ok
        token = feedback.reservation_handle.holdings[target].token

        stream = _LoseArmedDraw()
        meta.transport.loss_probability = 0.5
        meta.transport._loss_rng = stream
        create = app_class.create_instance

        def create_then_lose_the_ack(placement, now=0.0):
            result = create(placement, now=now)
            if placement.host_loid == hosts[target].loid:
                assert result.ok
                stream.armed = True  # the next draw is this create's reply
            return result

        monkeypatch.setattr(app_class, "create_instance",
                            create_then_lose_the_ack)
        result = enactor.enact_schedule(feedback, rollback_on_failure=True)

        assert not result.ok
        assert "MessageLostError" in result.entry_results[target].reason
        assert [r.ok for r in result.entry_results.values()] == [
            i != target for i in range(n)]
        assert [t for _, t in result.suspect] == [token]
        assert result.created == []
        assert enactor.stats.unacked_reaps == 1
        assert all(h.free_slots == h.slots for h in hosts)
        assert app_class.instances == {}  # no orphan survives


class TestNegotiationSpans:
    """Causal span parentage across the negotiation subtree."""

    def test_variant_fallback_is_sibling_subtree(self, meta, app_class):
        vault = meta.vaults[0]
        full, free, other = meta.hosts[0], meta.hosts[1], meta.hosts[2]
        fill_reservations(full, vault, app_class)
        master = MasterSchedule([
            entry(app_class, full, vault),
            entry(app_class, other, vault),
        ])
        master.add_variant(VariantSchedule(
            {0: entry(app_class, free, vault)}, label="rescue"))
        with meta.spans.span("test-root"):
            feedback = meta.enactor.make_reservations(
                ScheduleRequestList([master]))
        assert feedback.ok

        (m_span,) = meta.spans.find("enactor.master")
        (v_span,) = meta.spans.find("enactor.variant")
        assert v_span.attributes["label"] == "rescue"
        # the variant attempt hangs off the same master attempt ...
        assert v_span.parent_id == m_span.span_id
        # ... and its reserve batch is a sibling subtree of the master's
        reserves = meta.spans.find("enactor.reserve")
        assert [s.parent_id for s in reserves] == [m_span.span_id,
                                                   v_span.span_id]
        # the master attempt failed an entry, the variant rescued it
        assert m_span.attributes["ok"] is True
        assert v_span.attributes["ok"] is True

    def test_variant_switch_costs_the_slowest_release(self, multi):
        """A switch releases every holding it replaces in one concurrent
        exchange — costing the slowest cancel round trip, not the sum —
        and that exchange ends before any replacement is requested."""
        from repro.workload import implementations_for_all_platforms
        meta = multi
        app_class = meta.create_class(
            "Wide", implementations_for_all_platforms(), work_units=1.0)
        vaults = {v.location.domain: v for v in meta.vaults}

        def on(host):
            return entry(app_class, host, vaults[host.domain])

        # one host per domain, so the release round trips differ
        held, spare = meta.hosts[0::4], meta.hosts[1::4]
        fill_reservations(held[0], vaults[held[0].domain], app_class)
        master = MasterSchedule([on(h) for h in held])
        master.add_variant(VariantSchedule(
            {i: on(h) for i, h in enumerate(spare)}, label="elsewhere"))
        with meta.spans.span("placement"):
            feedback = meta.enactor.make_reservations(
                ScheduleRequestList([master]))
        assert feedback.ok and feedback.variant.label == "elsewhere"

        (v_span,) = meta.spans.find("enactor.variant")
        (cancel,) = [s for s in meta.spans.find("enactor.cancel")
                     if s.parent_id == v_span.span_id]
        assert cancel.attributes["entries"] == 2
        releases = [s for s in meta.spans.spans
                    if s.parent_id == cancel.span_id
                    and s.name.startswith("rpc:cancel_reservation")]
        assert len(releases) == 2
        assert cancel.duration == pytest.approx(
            max(s.duration for s in releases), rel=1e-9)
        (reserve,) = [s for s in meta.spans.find("enactor.reserve")
                      if s.parent_id == v_span.span_id]
        replacements = [s for s in meta.spans.spans
                        if s.parent_id == reserve.span_id
                        and s.name.startswith("rpc:make_reservation")]
        assert len(replacements) == 3
        assert cancel.end <= min(s.start for s in replacements)

    def test_carried_context_parents_host_spans(self, meta, app_class):
        vault = meta.vaults[0]
        entries = [entry(app_class, h, vault) for h in meta.hosts[:2]]
        with meta.spans.span("test-root"):
            feedback = meta.enactor.make_reservations(
                ScheduleRequestList([MasterSchedule(entries)]))
        assert feedback.ok
        (reserve_span,) = meta.spans.find("enactor.reserve")
        rpcs = [s for s in meta.spans.spans
                if s.name.startswith("rpc:make_reservation")]
        assert len(rpcs) == 2
        # context rode the Call: every rpc parents under the reserve span
        assert {s.parent_id for s in rpcs} == {reserve_span.span_id}
        # and the host-side grant parents under its own rpc
        grants = meta.spans.find("host.reserve")
        assert {g.parent_id for g in grants} == {s.span_id for s in rpcs}
        assert all(g.trace_id == reserve_span.trace_id for g in grants)

    def test_denied_reservation_span_has_error_status(self, meta,
                                                      app_class):
        vault = meta.vaults[0]
        host = meta.hosts[0]
        fill_reservations(host, vault, app_class)
        request = ScheduleRequestList(
            [MasterSchedule([entry(app_class, host, vault)])])
        with meta.spans.span("test-root"):
            feedback = meta.enactor.make_reservations(request)
        assert not feedback.ok
        (grant,) = meta.spans.find("host.reserve")
        assert grant.status == "error"
        assert "ReservationDeniedError" in grant.attributes["error"]
        (m_span,) = meta.spans.find("enactor.master")
        assert m_span.status == "error"

    def test_no_spans_without_open_trace(self, meta, app_class):
        vault = meta.vaults[0]
        entries = [entry(app_class, h, vault) for h in meta.hosts[:2]]
        feedback = meta.enactor.make_reservations(
            ScheduleRequestList([MasterSchedule(entries)]))
        assert feedback.ok
        # span_if_active everywhere: direct calls record nothing
        assert len(meta.spans) == 0


class TestCoAllocation:
    def test_parallel_faster_than_sequential(self, multi, app_class=None):
        from repro.objects import Implementation
        app = multi.create_class(
            "Wide", [Implementation(a, o) for a, o, *_ in
                     __import__("repro.workload.testbed",
                                fromlist=["PLATFORMS"]).PLATFORMS],
            work_units=10.0)
        vaults = {v.location.domain: v for v in multi.vaults}
        entries = []
        for host in multi.hosts[:6]:
            entries.append(ScheduleMapping(app.loid, host.loid,
                                           vaults[host.domain].loid))
        # sequential enactor
        seq = Enactor(multi.transport, multi.resolve,
                      sequential_coallocation=True)
        t0 = multi.now
        fb = seq.make_reservations(
            ScheduleRequestList([MasterSchedule(list(entries))]))
        sequential_time = multi.now - t0
        assert fb.ok
        seq.cancel_reservations(fb)

        par = Enactor(multi.transport, multi.resolve)
        t0 = multi.now
        fb2 = par.make_reservations(
            ScheduleRequestList([MasterSchedule(list(entries))]))
        parallel_time = multi.now - t0
        assert fb2.ok
        assert parallel_time < sequential_time
