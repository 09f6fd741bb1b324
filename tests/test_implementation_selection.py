"""Tests for implementation selection in mappings (section 3.3 future
work: "this mapping process may also select from among the available
implementations of an object as well")."""

import pytest

from repro import (
    Implementation,
    MachineSpec,
    Metasystem,
    ObjectClassRequest,
    Placement,
)
from repro.scheduler import LoadAwareScheduler
from repro.workload import wait_for_completion


@pytest.fixture
def impl_meta():
    """One platform, two binaries: a generic one and a 3x-tuned one."""
    meta = Metasystem(seed=31)
    meta.add_domain("d")
    for i in range(4):
        meta.add_unix_host(f"h{i}", "d",
                           MachineSpec(arch="sparc", os_name="SunOS"),
                           slots=4)
    meta.add_vault("d")
    generic = Implementation("sparc", "SunOS", relative_speed=1.0)
    tuned = Implementation("sparc", "SunOS", memory_mb=32.0,
                           relative_speed=3.0)
    app = meta.create_class("A", [generic, tuned], work_units=300.0)
    return meta, app, generic, tuned


class TestPinnedImplementation:
    def test_pinned_implementation_speeds_execution(self, impl_meta):
        meta, app, generic, tuned = impl_meta
        host, vault = meta.hosts[0], meta.vaults[0]
        slow = app.create_instance(
            Placement(host.loid, vault.loid, implementation=generic))
        fast = app.create_instance(
            Placement(meta.hosts[1].loid, vault.loid,
                      implementation=tuned))
        assert slow.ok and fast.ok
        n, _ = wait_for_completion(meta, app, [slow.loid, fast.loid])
        assert n == 2
        t_slow = app.get_instance(slow.loid).attributes["completed_at"]
        t_fast = app.get_instance(fast.loid).attributes["completed_at"]
        assert t_fast == pytest.approx(t_slow / 3.0, rel=0.05)

    def test_foreign_implementation_rejected(self, impl_meta):
        meta, app, *_ = impl_meta
        alien_impl = Implementation("sparc", "SunOS", relative_speed=9.0)
        placement = Placement(meta.hosts[0].loid, meta.vaults[0].loid,
                              implementation=alien_impl)
        # a gang is refused by the same check as a single create
        for result in (app.create_instance(placement),
                       app.create_instances(placement, 2)):
            assert not result.ok
            assert "not provided" in result.reason
        assert not app.instances

    def test_platform_mismatch_rejected(self, impl_meta):
        meta, app, generic, _ = impl_meta
        wrong = Implementation("x86", "Linux")
        app.add_implementation(wrong)
        placement = Placement(meta.hosts[0].loid, meta.vaults[0].loid,
                              implementation=wrong)
        for result in (app.create_instance(placement),
                       app.create_instances(placement, 2)):
            assert not result.ok
            assert "does not match host platform" in result.reason
        assert not app.instances

    def test_migration_preserves_work_across_speedups(self, impl_meta):
        meta, app, generic, tuned = impl_meta
        host, vault = meta.hosts[0], meta.vaults[0]
        result = app.create_instance(
            Placement(host.loid, vault.loid, implementation=tuned))
        meta.advance(30.0)   # 30s at 3x => 90 of 300 work units done
        report = meta.migrator.migrate(result.loid, meta.hosts[1].loid)
        assert report.ok
        inst = app.get_instance(result.loid)
        # resumed with implementation-neutral remaining work
        assert inst.attributes["work_units"] == pytest.approx(210.0,
                                                              rel=0.05)


class TestSchedulerSelection:
    def test_best_implementation_for(self, impl_meta):
        meta, app, generic, tuned = impl_meta
        sched = meta.make_scheduler("load")
        record = sched.viable_hosts(app)[0]
        best = sched.best_implementation_for(app, record)
        assert best == tuned

    def test_selection_flag_pins_fastest(self, impl_meta):
        meta, app, generic, tuned = impl_meta
        sched = LoadAwareScheduler(meta.collection, meta.enactor,
                                   meta.transport,
                                   select_implementation=True)
        rl = sched.compute_schedule([ObjectClassRequest(app, 2)])
        for mapping in rl.masters[0].entries:
            assert mapping.implementation == tuned

    def test_selection_off_leaves_mapping_unpinned(self, impl_meta):
        meta, app, *_ = impl_meta
        sched = LoadAwareScheduler(meta.collection, meta.enactor,
                                   meta.transport)
        rl = sched.compute_schedule([ObjectClassRequest(app, 2)])
        for mapping in rl.masters[0].entries:
            assert mapping.implementation is None

    def test_end_to_end_selection_beats_default(self, impl_meta):
        meta, app, generic, tuned = impl_meta
        selecting = LoadAwareScheduler(meta.collection, meta.enactor,
                                       meta.transport,
                                       select_implementation=True)
        outcome = selecting.run([ObjectClassRequest(app, 2)])
        assert outcome.ok
        n, t_sel = wait_for_completion(meta, app, outcome.created)
        assert n == 2
        # default path: the Class picks the *first* matching binary
        # (generic); the selecting Scheduler pinned the tuned one
        start = meta.now
        plain = LoadAwareScheduler(meta.collection, meta.enactor,
                                   meta.transport)
        outcome2 = plain.run([ObjectClassRequest(app, 2)])
        assert outcome2.ok
        n2, t_plain = wait_for_completion(meta, app, outcome2.created)
        assert n2 == 2
        assert (t_sel - 0.0) < (t_plain - start)
