"""Tests for the accounting ledger and the cost-aware Scheduler."""

import pytest

from repro import Implementation, MachineSpec, Metasystem, ObjectClassRequest
from repro.accounting import CostAwareScheduler, Ledger
from repro.objects import Placement
from repro.scheduler import Scheduler
from repro.workload import wait_for_completion


@pytest.fixture
def market():
    """Cheap-slow and expensive-fast hosts, a ledger attached to all."""
    meta = Metasystem(seed=41)
    meta.add_domain("d")
    # (speed, price): cheap slow pair, pricey fast pair
    for i, (speed, price) in enumerate([(1.0, 0.01), (1.0, 0.01),
                                        (4.0, 0.10), (4.0, 0.10)]):
        meta.add_unix_host(f"h{i}", "d",
                           MachineSpec(arch="sparc", os_name="SunOS",
                                       speed=speed),
                           slots=4, price=price)
    meta.add_vault("d")
    app = meta.create_class("A", [Implementation("sparc", "SunOS")],
                            work_units=100.0)
    ledger = Ledger(clock=lambda: meta.now)
    ledger.attach_all(meta.hosts)
    return meta, app, ledger


class TestLedger:
    def test_completion_bills_full_cycles(self, market):
        meta, app, ledger = market
        host, vault = meta.hosts[0], meta.vaults[0]
        result = app.create_instance(Placement(host.loid, vault.loid))
        wait_for_completion(meta, app, [result.loid])
        assert len(ledger) == 1
        record = ledger.records[0]
        assert record.cycles == pytest.approx(100.0)
        assert record.amount == pytest.approx(1.0)  # 100 x 0.01
        assert record.host_loid == host.loid

    def test_kill_bills_partial_cycles(self, market):
        meta, app, ledger = market
        host, vault = meta.hosts[0], meta.vaults[0]
        result = app.create_instance(Placement(host.loid, vault.loid))
        meta.advance(40.0)
        host.kill_object(result.loid)
        assert ledger.records[0].cycles == pytest.approx(40.0)

    def test_deactivate_bills_progress(self, market):
        meta, app, ledger = market
        host, vault = meta.hosts[0], meta.vaults[0]
        result = app.create_instance(Placement(host.loid, vault.loid))
        meta.advance(25.0)
        host.deactivate_object(result.loid)
        assert ledger.records[0].cycles == pytest.approx(25.0)

    def test_migration_bills_each_leg(self, market):
        meta, app, ledger = market
        host, vault = meta.hosts[0], meta.vaults[0]
        result = app.create_instance(Placement(host.loid, vault.loid))
        meta.advance(30.0)
        report = meta.migrator.migrate(result.loid, meta.hosts[1].loid)
        assert report.ok
        wait_for_completion(meta, app, [result.loid])
        total_cycles = sum(r.cycles for r in ledger.records)
        assert total_cycles == pytest.approx(100.0, rel=0.02)
        assert len(ledger.records) == 2  # one charge per leg

    def test_reports(self, market):
        meta, app, ledger = market
        vault = meta.vaults[0]
        for host in meta.hosts[:2]:
            app.create_instance(Placement(host.loid, vault.loid))
        wait_for_completion(meta, app, list(app.instances))
        assert ledger.total == pytest.approx(2.0)
        assert ledger.cycles_by_host()[meta.hosts[0].loid] == \
            pytest.approx(100.0)

    def test_zero_cycle_work_not_billed(self, market):
        meta, app, ledger = market
        host, vault = meta.hosts[0], meta.vaults[0]
        result = app.create_instance(Placement(host.loid, vault.loid))
        host.kill_object(result.loid)  # killed immediately: 0 cycles
        assert len(ledger) == 0


class TestCostAwareScheduler:
    def test_loose_deadline_buys_cheap(self, market):
        meta, app, _ledger = market
        sched = CostAwareScheduler(meta.collection, meta.enactor,
                                   meta.transport, deadline=1e9)
        rl = sched.compute_schedule([ObjectClassRequest(app, 2)])
        cheap = {meta.hosts[0].loid, meta.hosts[1].loid}
        for m in rl.masters[0].entries:
            assert m.host_loid in cheap

    def test_tight_deadline_buys_fast(self, market):
        meta, app, _ledger = market
        # 100 units at speed 1 takes 100 s; deadline 50 s forces the
        # 4x hosts (25 s)
        sched = CostAwareScheduler(meta.collection, meta.enactor,
                                   meta.transport, deadline=50.0)
        rl = sched.compute_schedule([ObjectClassRequest(app, 2)])
        fast = {meta.hosts[2].loid, meta.hosts[3].loid}
        for m in rl.masters[0].entries:
            assert m.host_loid in fast

    def test_impossible_deadline_degrades_to_fastest(self, market):
        meta, app, _ledger = market
        sched = CostAwareScheduler(meta.collection, meta.enactor,
                                   meta.transport, deadline=1.0)
        rl = sched.compute_schedule([ObjectClassRequest(app, 1)])
        assert rl.masters[0].entries[0].host_loid in {
            meta.hosts[2].loid, meta.hosts[3].loid}

    def test_queueing_spills_to_next_host(self, market):
        meta, app, _ledger = market
        # deadline admits one task per cheap host, so the third task of a
        # batch must spill (to the second cheap host, then to fast ones)
        sched = CostAwareScheduler(meta.collection, meta.enactor,
                                   meta.transport, deadline=150.0)
        rl = sched.compute_schedule([ObjectClassRequest(app, 4)])
        hosts_used = [m.host_loid for m in rl.masters[0].entries]
        assert len(set(hosts_used)) >= 3

    def test_end_to_end_cost_vs_speed(self, market):
        meta, app, ledger = market
        cheap_sched = CostAwareScheduler(meta.collection, meta.enactor,
                                         meta.transport, deadline=1e9)
        outcome = cheap_sched.run([ObjectClassRequest(app, 2)])
        assert outcome.ok
        wait_for_completion(meta, app, outcome.created)
        cheap_cost = ledger.total
        assert cheap_cost == pytest.approx(2.0)  # 2 x 100 x 0.01

        fast_sched = CostAwareScheduler(meta.collection, meta.enactor,
                                        meta.transport, deadline=30.0)
        outcome2 = fast_sched.run([ObjectClassRequest(app, 2)])
        assert outcome2.ok
        wait_for_completion(meta, app, outcome2.created)
        fast_cost = ledger.total - cheap_cost
        assert fast_cost == pytest.approx(20.0)  # 2 x 100 x 0.10

    def test_deadline_validation(self, market):
        meta, _app, _ledger = market
        with pytest.raises(ValueError):
            CostAwareScheduler(meta.collection, meta.enactor,
                               meta.transport, deadline=0.0)

    def test_exactly_deadline_boundary_is_feasible(self, market):
        meta, app, _ledger = market
        # 100 units at speed 1, load 0: estimated completion is exactly
        # 100 s — a deadline of exactly 100 s must still buy cheap
        sched = CostAwareScheduler(meta.collection, meta.enactor,
                                   meta.transport, deadline=100.0)
        rl = sched.compute_schedule([ObjectClassRequest(app, 2)])
        cheap = {meta.hosts[0].loid, meta.hosts[1].loid}
        for m in rl.masters[0].entries:
            assert m.host_loid in cheap
        # one tick tighter and the cheap estimate no longer fits
        tight = CostAwareScheduler(meta.collection, meta.enactor,
                                   meta.transport, deadline=99.999)
        rl2 = tight.compute_schedule([ObjectClassRequest(app, 1)])
        assert rl2.masters[0].entries[0].host_loid not in cheap

    def test_zero_price_host_wins_and_bills_nothing(self):
        meta = Metasystem(seed=42)
        meta.add_domain("d")
        meta.add_unix_host("free", "d",
                           MachineSpec(arch="sparc", os_name="SunOS"),
                           slots=4, price=0.0)
        meta.add_unix_host("paid", "d",
                           MachineSpec(arch="sparc", os_name="SunOS"),
                           slots=4, price=0.05)
        meta.add_vault("d")
        app = meta.create_class("A", [Implementation("sparc", "SunOS")],
                                work_units=100.0)
        ledger = Ledger(clock=lambda: meta.now)
        ledger.attach_all(meta.hosts)
        sched = CostAwareScheduler(meta.collection, meta.enactor,
                                   meta.transport, deadline=1e9)
        outcome = sched.run([ObjectClassRequest(app, 1)])
        assert outcome.ok
        assert outcome.feedback.reserved_entries[0].host_loid == \
            meta.hosts[0].loid
        wait_for_completion(meta, app, outcome.created)
        assert ledger.total == pytest.approx(0.0)
        assert len(ledger) == 1  # metered, just at a zero rate

    def test_queued_backlog_raises_estimate(self, market):
        meta, app, _ledger = market
        sched = CostAwareScheduler(meta.collection, meta.enactor,
                                   meta.transport, deadline=1e9)
        record = sched.viable_hosts(app)[0]
        base = sched.estimated_completion(record, 100.0)
        assert sched.estimated_completion(record, 100.0, queued=2) == \
            pytest.approx(3.0 * base)

    def test_down_marked_record_never_wins(self, market):
        """Regression: a stale lookup path can hand the scheduler a
        record whose host the HealthMonitor has since marked DOWN — the
        belt-and-braces filter must keep it out of the ranking even when
        it would be the cheapest feasible choice."""
        meta, app, _ledger = market
        cheap = {meta.hosts[0].loid, meta.hosts[1].loid}

        class StaleLookup(CostAwareScheduler):
            def viable_hosts(self, class_obj, extra_query=""):
                records = Scheduler.query_collection(
                    self, "$host_slots_free > 0")
                for r in records:
                    if r.member in cheap:
                        r.attributes["host_health"] = "down"
                return records

        sched = StaleLookup(meta.collection, meta.enactor,
                            meta.transport, deadline=1e9)
        rl = sched.compute_schedule([ObjectClassRequest(app, 2)])
        for m in rl.masters[0].entries:
            assert m.host_loid not in cheap
