"""Tests for migration and the execution Monitor (steps 12-13)."""

import pytest

from repro import Implementation, ObjectClassRequest
from repro.workload import wait_for_completion


@pytest.fixture
def placed(meta, app_class):
    """One long job placed on host 0."""
    sched = meta.make_scheduler("random",
                                rng=__import__("numpy").random.default_rng(0))
    heavy = meta.create_class("Heavy", [Implementation("sparc", "SunOS")],
                              work_units=1000.0)
    from repro.objects import Placement
    host, vault = meta.hosts[0], meta.vaults[0]
    result = heavy.create_instance(Placement(host.loid, vault.loid))
    assert result.ok
    return heavy, result.loid, host


class TestMigrator:
    def test_migrate_moves_object(self, meta, placed):
        heavy, loid, src = placed
        dst = meta.hosts[1]
        meta.advance(100.0)  # some progress first
        report = meta.migrator.migrate(loid, dst.loid)
        assert report.ok, report.detail
        assert report.from_host == src.loid
        assert report.to_host == dst.loid
        instance = heavy.get_instance(loid)
        assert instance.host_loid == dst.loid
        assert instance.is_active
        assert loid not in src.placed
        assert loid in dst.placed

    def test_migration_preserves_progress(self, meta, placed):
        heavy, loid, src = placed
        meta.advance(400.0)  # ~400 of 1000 units done
        report = meta.migrator.migrate(loid, meta.hosts[1].loid)
        assert report.ok
        instance = heavy.get_instance(loid)
        remaining = instance.attributes.get("work_units")
        assert remaining == pytest.approx(600.0, rel=0.05)
        n, t = wait_for_completion(meta, heavy, [loid])
        assert n == 1
        # total time ~ 1000 units of work + small migration overhead
        assert t == pytest.approx(1000.0, rel=0.1)

    def test_opr_moves_between_vaults(self, meta, placed):
        heavy, loid, src = placed
        v2 = meta.add_vault("uva", name="uva-vault-b")
        report = meta.migrator.migrate(loid, meta.hosts[1].loid,
                                       to_vault_loid=v2.loid)
        assert report.ok
        assert v2.has_opr(loid)
        instance = heavy.get_instance(loid)
        assert instance.vault_loid == v2.loid

    def test_migrate_to_unknown_host_fails(self, meta, placed):
        heavy, loid, _src = placed
        report = meta.migrator.migrate(loid,
                                       meta.minter.mint("host", "ghost"))
        assert not report.ok
        assert meta.migrator.failures == 1
        # object untouched
        assert heavy.get_instance(loid).is_active

    def test_migrate_refused_destination_keeps_object_running(
            self, meta, placed):
        from repro.hosts.policy import LoadCeiling
        heavy, loid, src = placed
        dst = meta.hosts[1]
        dst.policy = LoadCeiling(max_load=-1.0)  # refuses everything
        report = meta.migrator.migrate(loid, dst.loid)
        assert not report.ok
        assert "refused" in report.detail
        assert loid in src.placed  # never deactivated

    def test_migrate_inert_object_fails(self, meta, placed):
        heavy, loid, src = placed
        src.deactivate_object(loid)
        report = meta.migrator.migrate(loid, meta.hosts[1].loid)
        assert not report.ok

    def test_migration_counts(self, meta, placed):
        heavy, loid, _ = placed
        meta.migrator.migrate(loid, meta.hosts[1].loid)
        assert meta.migrator.migrations == 1
        instance = heavy.get_instance(loid)
        assert instance.migration_count == 1


def hook_migrate_start(monkeypatch, meta, lose=None, on_request=None):
    """Steer the hops of the Migrator's ``migrate-start`` call: lose its
    ``"request"`` or its ``"reply"``, and run ``on_request()`` as the
    request is sent."""
    transport = meta.transport
    real_hop = transport._hop
    # the hop after a delivered migrate-start request is its reply
    reply_next = {"start": False}

    def hop(src, dst, label):
        delay, lost = real_hop(src, dst, label)
        if label == "migrate-start":
            if on_request is not None:
                on_request()
            reply_next["start"] = lose != "request"
            return delay, lose == "request"
        if reply_next["start"]:
            reply_next["start"] = False
            return delay, lose == "reply"
        return delay, lost
    monkeypatch.setattr(transport, "_hop", hop)


class TestMigrationStart:
    """Step 4: the destination's start of the moved object fails or its
    reply is lost."""

    def assert_rolled_back(self, meta, heavy, loid, src, dst, report):
        assert not report.ok
        assert "reactivation failed" in report.detail
        assert meta.migrator.failures == 1
        assert meta.migrator.migrations == 0
        instance = heavy.get_instance(loid)
        assert instance.is_active
        assert instance.host_loid == src.loid
        assert loid in src.placed and loid not in dst.placed
        assert instance.migration_count == 0
        assert dst.reservations.live_count(meta.now) == 0

    def test_lost_request_restarts_on_the_source(self, meta, placed,
                                                 monkeypatch):
        heavy, loid, src = placed
        dst = meta.hosts[1]
        v2 = meta.add_vault("uva", name="uva-vault-b")
        hook_migrate_start(monkeypatch, meta, lose="request")
        report = meta.migrator.migrate(loid, dst.loid, to_vault_loid=v2.loid)
        self.assert_rolled_back(meta, heavy, loid, src, dst, report)
        assert heavy.get_instance(loid).vault_loid == meta.vaults[0].loid
        assert not v2.has_opr(loid)  # the moved OPR went with the move

    def test_refused_start_restarts_on_the_source(self, meta, placed,
                                                  monkeypatch):
        heavy, loid, src = placed
        dst = meta.hosts[1]

        def owner_takes_the_slots():
            dst.slots = len(dst.placed)
        hook_migrate_start(monkeypatch, meta,
                           on_request=owner_takes_the_slots)
        report = meta.migrator.migrate(loid, dst.loid)
        assert "slots occupied" in report.detail
        self.assert_rolled_back(meta, heavy, loid, src, dst, report)

    def test_lost_reply_is_a_completed_move(self, meta, placed,
                                            monkeypatch):
        heavy, loid, src = placed
        dst = meta.hosts[1]
        hook_migrate_start(monkeypatch, meta, lose="reply")
        lost_before = meta.transport.messages_lost
        report = meta.migrator.migrate(loid, dst.loid)
        assert meta.transport.messages_lost == lost_before + 1
        assert report.ok, report.detail
        assert meta.migrator.migrations == 1
        assert meta.migrator.failures == 0
        instance = heavy.get_instance(loid)
        assert instance.is_active and instance.host_loid == dst.loid
        assert loid in dst.placed and loid not in src.placed
        assert instance.migration_count == 1


class TestMonitor:
    def test_outcall_triggers_rebalance(self, meta, placed):
        heavy, loid, src = placed
        monitor = meta.make_monitor(min_load_advantage=0.5)
        monitor.watch_all(meta.hosts)
        # overload the source host
        src.machine.set_background_load(20.0)
        src.reassess()
        assert monitor.stats.outcalls_received >= 1
        assert monitor.stats.migrations_succeeded == 1
        instance = heavy.get_instance(loid)
        assert instance.host_loid != src.loid

    def test_disabled_monitor_counts_but_does_not_move(self, meta, placed):
        heavy, loid, src = placed
        monitor = meta.make_monitor(enabled=False)
        monitor.watch_all(meta.hosts)
        src.machine.set_background_load(20.0)
        src.reassess()
        assert monitor.stats.outcalls_received >= 1
        assert monitor.stats.migrations_succeeded == 0
        assert heavy.get_instance(loid).host_loid == src.loid

    def test_no_migration_without_advantage(self, meta, placed):
        heavy, loid, src = placed
        monitor = meta.make_monitor(min_load_advantage=100.0)
        monitor.watch_all(meta.hosts)
        src.machine.set_background_load(20.0)
        src.reassess()
        assert monitor.stats.migrations_succeeded == 0

    def test_victim_selection_prefers_most_remaining(self, meta, app_class):
        from repro.objects import Placement
        host, vault = meta.hosts[0], meta.vaults[0]
        short = meta.create_class("Short",
                                  [Implementation("sparc", "SunOS")],
                                  work_units=10.0)
        long_ = meta.create_class("Long",
                                  [Implementation("sparc", "SunOS")],
                                  work_units=10000.0)
        short.create_instance(Placement(host.loid, vault.loid))
        r_long = long_.create_instance(Placement(host.loid, vault.loid))
        monitor = meta.make_monitor(min_load_advantage=0.5)
        victims = monitor._pick_victims(host)
        assert victims[0] == r_long.loid

    def test_rebalance_updates_collection_view(self, meta, placed):
        heavy, loid, src = placed
        monitor = meta.make_monitor(min_load_advantage=0.5)
        monitor.watch(src)
        src.machine.set_background_load(20.0)
        src.reassess()
        assert len(monitor.stats.reports) == monitor.stats.reschedules_attempted
