"""Tests for gang creation (multi-object StartObject) and the
GangScheduler."""

import pytest

from metric_reads import reading
from repro import (
    Implementation,
    MachineSpec,
    Metasystem,
    ObjectClassRequest,
    Placement,
    ScheduleMapping,
)
from repro.errors import SchedulingError
from repro.hosts import ONE_SHOT_TIME, REUSABLE_TIME
from repro.workload import wait_for_completion


@pytest.fixture
def smp():
    """Two 4-way SMPs and two uniprocessors."""
    meta = Metasystem(seed=61)
    meta.add_domain("d")
    for i, cpus in enumerate((4, 4, 1, 1)):
        meta.add_unix_host(f"h{i}", "d",
                           MachineSpec(arch="sparc", os_name="SunOS",
                                       cpus=cpus),
                           slots=cpus * 2)
    meta.add_vault("d")
    app = meta.create_class("A", [Implementation("sparc", "SunOS")],
                            work_units=100.0)
    return meta, app


class TestGangCreation:
    def test_create_instances_batch(self, smp):
        meta, app = smp
        host, vault = meta.hosts[0], meta.vaults[0]
        tok = host.make_reservation(vault.loid, app.loid,
                                    rtype=REUSABLE_TIME)
        result = app.create_instances(
            Placement(host.loid, vault.loid, reservation_token=tok), 4)
        assert result.ok
        assert len(result.loids) == 4
        assert len(host.placed) == 4
        # all four run concurrently on the 4-way SMP: done at t=100
        n, t = wait_for_completion(meta, app, result.loids)
        assert n == 4
        assert t == pytest.approx(100.0, rel=0.01)

    def test_one_shot_token_rejected_for_gang(self, smp):
        meta, app = smp
        host, vault = meta.hosts[0], meta.vaults[0]
        tok = host.make_reservation(vault.loid, app.loid,
                                    rtype=ONE_SHOT_TIME)
        result = app.create_instances(
            Placement(host.loid, vault.loid, reservation_token=tok), 3)
        assert not result.ok
        assert "one-shot" in result.reason
        assert len(app.instances) == 0

    def test_one_shot_refusal_counts_attribute_and_metric(self, smp):
        """Every start failure bumps ``start_failures`` *and*
        ``host_starts_total{ok="false"}``; the one-shot refusal of a
        multi-object start used to bump only the attribute."""
        meta, app = smp
        host, vault = meta.hosts[0], meta.vaults[0]
        tok = host.make_reservation(vault.loid, app.loid,
                                    rtype=ONE_SHOT_TIME)
        result = app.create_instances(
            Placement(host.loid, vault.loid, reservation_token=tok), 2)
        assert not result.ok
        counted = reading(meta.metrics, "host_starts_total", ok="false")
        assert counted == host.start_failures == 1

    def test_count_one_delegates_to_single(self, smp):
        meta, app = smp
        host, vault = meta.hosts[0], meta.vaults[0]
        result = app.create_instances(Placement(host.loid, vault.loid), 1)
        assert result.ok and len(result.loids) == 1

    def test_count_validation(self, smp):
        meta, app = smp
        with pytest.raises(ValueError):
            app.create_instances(
                Placement(meta.hosts[0].loid, meta.vaults[0].loid), 0)
        with pytest.raises(ValueError):
            ScheduleMapping(app.loid, meta.hosts[0].loid,
                            meta.vaults[0].loid, gang=0)


class TestGangScheduler:
    def test_packs_smps_first(self, smp):
        meta, app = smp
        sched = meta.make_scheduler("gang")
        rl = sched.compute_schedule([ObjectClassRequest(app, 8)])
        entries = rl.masters[0].entries
        gangs = {meta.resolve(e.host_loid).machine.name: e.gang
                 for e in entries}
        assert gangs.get("h0") == 4
        assert gangs.get("h1") == 4

    def test_fewer_entries_than_instances(self, smp):
        meta, app = smp
        sched = meta.make_scheduler("gang")
        rl = sched.compute_schedule([ObjectClassRequest(app, 10)])
        total = sum(e.gang for e in rl.masters[0].entries)
        assert total == 10
        assert len(rl.masters[0].entries) <= 4

    def test_end_to_end(self, smp):
        meta, app = smp
        sched = meta.make_scheduler("gang")
        outcome = sched.run([ObjectClassRequest(app, 8)])
        assert outcome.ok
        assert len(outcome.created) == 8
        n, _ = wait_for_completion(meta, app, outcome.created)
        assert n == 8

    def test_message_efficiency_vs_singles(self, smp):
        meta, app = smp
        gang = meta.make_scheduler("gang")
        m0 = meta.transport.messages_sent
        outcome = gang.run([ObjectClassRequest(app, 8)])
        gang_msgs = meta.transport.messages_sent - m0
        assert outcome.ok

        # fresh world for the single-instance comparison
        meta2 = Metasystem(seed=61)
        meta2.add_domain("d")
        for i, cpus in enumerate((4, 4, 1, 1)):
            meta2.add_unix_host(f"h{i}", "d",
                                MachineSpec(arch="sparc",
                                            os_name="SunOS", cpus=cpus),
                                slots=cpus * 2)
        meta2.add_vault("d")
        app2 = meta2.create_class("A", [Implementation("sparc", "SunOS")],
                                  work_units=100.0)
        single = meta2.make_scheduler("random")
        m0 = meta2.transport.messages_sent
        outcome2 = single.run([ObjectClassRequest(app2, 8)])
        single_msgs = meta2.transport.messages_sent - m0
        assert outcome2.ok
        assert gang_msgs < single_msgs

    def test_capacity_exhaustion_raises(self, smp):
        meta, app = smp
        sched = meta.make_scheduler("gang")
        with pytest.raises(SchedulingError):
            sched.compute_schedule([ObjectClassRequest(app, 100)])

    def test_uniform_cap(self, smp):
        meta, app = smp
        sched = meta.make_scheduler("gang", gang_size=2)
        rl = sched.compute_schedule([ObjectClassRequest(app, 6)])
        assert all(e.gang <= 2 for e in rl.masters[0].entries)
