"""Tests for the SmartNet-style Min-Completion-Time Scheduler."""

import pytest

from repro import Implementation, MachineSpec, Metasystem, ObjectClassRequest
from repro.errors import SchedulingError
from repro.scheduler import MCTScheduler
from repro.workload import wait_for_completion


@pytest.fixture
def hetero():
    """Heterogeneous speeds: h0 is 4x faster than h3."""
    meta = Metasystem(seed=21)
    meta.add_domain("d")
    for i, speed in enumerate((4.0, 2.0, 1.0, 1.0)):
        meta.add_unix_host(f"h{i}", "d",
                           MachineSpec(arch="sparc", os_name="SunOS",
                                       speed=speed),
                           slots=8)
    meta.add_vault("d")
    app = meta.create_class("A", [Implementation("sparc", "SunOS")],
                            work_units=100.0)
    return meta, app


class TestMCT:
    def test_single_task_goes_to_fastest(self, hetero):
        meta, app = hetero
        sched = meta.make_scheduler("mct")
        rl = sched.compute_schedule([ObjectClassRequest(app, 1)])
        assert rl.masters[0].entries[0].host_loid == meta.hosts[0].loid

    def test_assignments_balance_completion_times(self, hetero):
        meta, app = hetero
        sched = meta.make_scheduler("mct")
        rl = sched.compute_schedule([ObjectClassRequest(app, 8)])
        counts = {}
        for m in rl.masters[0].entries:
            counts[m.host_loid] = counts.get(m.host_loid, 0) + 1
        # the 4x host should receive more tasks than the 1x hosts
        assert counts[meta.hosts[0].loid] > counts.get(
            meta.hosts[3].loid, 0)
        # per-host completion estimates are roughly balanced: the greedy
        # MCT ready times differ by at most one task's runtime
        speeds = {h.loid: h.machine.spec.speed for h in meta.hosts}
        finish = {loid: counts.get(loid, 0) * 100.0 / speeds[loid]
                  for loid in speeds}
        spread = max(finish.values()) - min(finish.values())
        assert spread <= 100.0 / min(speeds.values()) + 1e-9

    def test_produces_variants(self, hetero):
        meta, app = hetero
        sched = meta.make_scheduler("mct")
        rl = sched.compute_schedule([ObjectClassRequest(app, 4)])
        assert len(rl.masters[0].variants) >= 1

    def test_beats_random_makespan_on_heterogeneous_pool(self, hetero):
        meta, app = hetero
        mct = meta.make_scheduler("mct")
        out = mct.run([ObjectClassRequest(app, 8)])
        assert out.ok
        n, t_mct = wait_for_completion(meta, app, out.created)
        assert n == 8

        # fresh identical world for random
        meta2 = Metasystem(seed=21)
        meta2.add_domain("d")
        for i, speed in enumerate((4.0, 2.0, 1.0, 1.0)):
            meta2.add_unix_host(f"h{i}",
                                "d", MachineSpec(arch="sparc",
                                                 os_name="SunOS",
                                                 speed=speed), slots=8)
        meta2.add_vault("d")
        app2 = meta2.create_class("A", [Implementation("sparc", "SunOS")],
                                  work_units=100.0)
        rand = meta2.make_scheduler("random")
        out2 = rand.run([ObjectClassRequest(app2, 8)])
        assert out2.ok
        n2, t_rand = wait_for_completion(meta2, app2, out2.created)
        assert n2 == 8
        assert t_mct <= t_rand

    def test_uses_class_work_attribute(self, hetero):
        meta, app = hetero
        sched = meta.make_scheduler("mct")
        req = ObjectClassRequest(app, 1)
        assert sched._work_of(req) == 100.0
        bare = meta.create_class("Bare", [Implementation("sparc",
                                                         "SunOS")])
        assert sched._work_of(ObjectClassRequest(bare, 1)) == \
            sched.DEFAULT_WORK

    def test_no_viable_hosts(self, hetero):
        meta, _ = hetero
        alien = meta.create_class("Alien", [Implementation("vax", "VMS")])
        sched = meta.make_scheduler("mct")
        with pytest.raises(SchedulingError):
            sched.compute_schedule([ObjectClassRequest(alien, 1)])
