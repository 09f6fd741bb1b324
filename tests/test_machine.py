"""Tests for the processor-sharing simulated machine."""

import pytest

from repro.errors import InsufficientResourcesError, ObjectStateError
from repro.hosts import LoadWalk, MachineSpec, SimJob, SimMachine
from repro.net import AdministrativeDomain, NetLocation, Topology
from repro.sim import RngRegistry, Simulator


def make_machine(speed=1.0, cpus=1, memory=128.0, load_walk=None,
                 initial_load=0.0, sim=None, name="m"):
    sim = sim or Simulator()
    topo = Topology()
    topo.add_domain(AdministrativeDomain("d"))
    loc = topo.add_node("d", name)
    machine = SimMachine(name, MachineSpec(cpus=cpus, speed=speed,
                                           memory_mb=memory),
                         loc, sim, RngRegistry(1), load_walk=load_walk,
                         initial_load=initial_load)
    return sim, machine


class TestExecution:
    def test_single_job_runs_at_full_speed(self):
        sim, m = make_machine(speed=2.0)
        done = []
        job = SimJob(100.0, 8.0, on_complete=lambda j: done.append(sim.now))
        m.start_job(job)
        sim.run()
        assert done == [pytest.approx(50.0)]
        assert job.done
        assert m.completed_jobs == 1

    def test_two_jobs_share_the_processor(self):
        sim, m = make_machine(speed=1.0)
        times = {}
        for name, work in (("a", 100.0), ("b", 100.0)):
            m.start_job(SimJob(work, 8.0,
                               on_complete=lambda j: times.__setitem__(
                                   j.name, sim.now), name=name))
        sim.run()
        # both jobs share 1 cpu: each runs at rate 0.5 -> finish at 200
        assert times["a"] == pytest.approx(200.0)
        assert times["b"] == pytest.approx(200.0)

    def test_short_job_departure_speeds_up_survivor(self):
        sim, m = make_machine(speed=1.0)
        times = {}
        m.start_job(SimJob(50.0, 8.0, on_complete=lambda j:
                           times.__setitem__(j.name, sim.now), name="short"))
        m.start_job(SimJob(100.0, 8.0, on_complete=lambda j:
                           times.__setitem__(j.name, sim.now), name="long"))
        sim.run()
        # shared until short finishes at t=100 (50/0.5); long then has 50
        # units left at rate 1.0 -> 150
        assert times["short"] == pytest.approx(100.0)
        assert times["long"] == pytest.approx(150.0)

    def test_multi_cpu_runs_jobs_independently(self):
        sim, m = make_machine(speed=1.0, cpus=2)
        times = {}
        for name in ("a", "b"):
            m.start_job(SimJob(100.0, 8.0, on_complete=lambda j:
                               times.__setitem__(j.name, sim.now),
                               name=name))
        sim.run()
        assert times["a"] == pytest.approx(100.0)
        assert times["b"] == pytest.approx(100.0)

    def test_background_load_slows_jobs(self):
        sim, m = make_machine(speed=1.0, initial_load=1.0)
        finish = []
        m.start_job(SimJob(100.0, 8.0,
                           on_complete=lambda j: finish.append(sim.now)))
        sim.run()
        # 1 job + 1.0 bg load share 1 cpu -> rate 0.5 -> 200s
        assert finish == [pytest.approx(200.0)]

    def test_mid_run_load_injection_slows_job(self):
        sim, m = make_machine(speed=1.0)
        finish = []
        m.start_job(SimJob(100.0, 8.0,
                           on_complete=lambda j: finish.append(sim.now)))
        sim.schedule(50.0, lambda: m.set_background_load(3.0))
        sim.run()
        # 50 units done by t=50; then rate = 1/(1+3) = 0.25 -> +200s
        assert finish == [pytest.approx(250.0)]

    def test_add_work_extends_job(self):
        sim, m = make_machine(speed=1.0)
        finish = []
        job = SimJob(100.0, 8.0,
                     on_complete=lambda j: finish.append(sim.now))
        m.start_job(job)
        sim.schedule(10.0, lambda: m.add_work(job, 40.0))
        sim.run()
        assert finish == [pytest.approx(140.0)]

    def test_add_work_rejects_negative(self):
        sim, m = make_machine()
        job = SimJob(10.0, 8.0)
        m.start_job(job)
        with pytest.raises(ValueError):
            m.add_work(job, -1.0)

    def test_zero_work_job_completes_immediately(self):
        sim, m = make_machine()
        done = []
        m.start_job(SimJob(0.0, 1.0, on_complete=lambda j: done.append(1)))
        sim.run()
        assert done == [1]


class TestAdmission:
    def test_memory_accounting(self):
        sim, m = make_machine(memory=100.0)
        m.start_job(SimJob(10.0, 60.0))
        assert m.available_memory_mb == pytest.approx(40.0)
        with pytest.raises(InsufficientResourcesError):
            m.start_job(SimJob(10.0, 50.0))

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            SimJob(-1.0, 8.0)

    def test_load_average_counts_jobs_and_background(self):
        sim, m = make_machine(initial_load=0.7)
        m.start_job(SimJob(100.0, 8.0))
        m.start_job(SimJob(100.0, 8.0))
        assert m.load_average == pytest.approx(2.7)

    def test_remove_job_returns_remaining(self):
        sim, m = make_machine(speed=1.0)
        job = SimJob(100.0, 8.0)
        m.start_job(job)
        sim.run_until(30.0)
        remaining = m.remove_job(job)
        assert remaining == pytest.approx(70.0)
        assert job.preempted
        assert not m.jobs


class TestFailure:
    def test_fail_loses_jobs(self):
        sim, m = make_machine()
        job = SimJob(100.0, 8.0)
        m.start_job(job)
        lost = m.fail()
        assert lost == [job]
        assert not m.up
        assert m.per_job_rate() == 0.0
        with pytest.raises(ObjectStateError):
            m.start_job(SimJob(1.0, 1.0))

    def test_recover_allows_new_work(self):
        sim, m = make_machine()
        m.fail()
        m.recover()
        assert m.up
        done = []
        m.start_job(SimJob(10.0, 8.0, on_complete=lambda j: done.append(1)))
        sim.run()
        assert done == [1]


class TestLoadWalk:
    def test_walk_changes_load_over_time(self):
        walk = LoadWalk(mean=1.0, sigma=0.3, interval=10.0)
        sim, m = make_machine(load_walk=walk, initial_load=0.0)
        sim.run_until(500.0)
        assert m.background_load != 0.0
        assert 0.0 <= m.background_load <= walk.cap

    def test_walk_is_deterministic_per_seed(self):
        def trace():
            walk = LoadWalk(mean=1.0, interval=10.0)
            sim, m = make_machine(load_walk=walk)
            loads = []
            for _ in range(20):
                sim.run_until(sim.now + 10.0)
                loads.append(m.background_load)
            return loads
        assert trace() == trace()

    def test_spikes_occur(self):
        walk = LoadWalk(mean=0.2, sigma=0.01, interval=1.0,
                        spike_prob=0.5, spike_size=5.0)
        sim, m = make_machine(load_walk=walk)
        peak = 0.0
        for _ in range(100):
            sim.run_until(sim.now + 1.0)
            peak = max(peak, m.background_load)
        assert peak > 3.0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            LoadWalk(interval=0.0)

    def test_clipping_at_zero(self):
        walk = LoadWalk(mean=0.0, kappa=1.0, sigma=0.0, interval=1.0)
        import numpy as np
        rng = np.random.default_rng(0)
        assert walk.step(rng, -5.0) == 0.0

    @pytest.mark.parametrize("spike_prob", [0.0, 0.2])
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_advance_equals_repeated_steps(self, seed, spike_prob):
        """``advance(rng, load, n)`` ends at the load, and leaves the
        stream in the state, of ``n`` scalar-draw steps — so a spike-free
        walk's one batched draw moves no later draw."""
        import numpy as np
        walk = LoadWalk(mean=1.0, sigma=0.4, interval=10.0,
                        spike_prob=spike_prob)

        def scalar_step(rng, load):
            nxt = (load + walk.kappa * (walk.mean - load)
                   + walk.sigma * rng.standard_normal())
            if spike_prob > 0.0 and rng.random() < spike_prob:
                nxt += walk.spike_size
            return float(min(max(nxt, 0.0), walk.cap))

        for n in range(9):
            batched, stepped = (np.random.default_rng(seed),
                                np.random.default_rng(seed))
            expected = 1.0
            for _ in range(n):
                expected = scalar_step(stepped, expected)
            assert walk.advance(batched, 1.0, n) == expected
            assert batched.bit_generator.state == stepped.bit_generator.state
            assert batched.random() == stepped.random()


class TestLoadGrid:
    """The walk is stepped on a shared ticker: when somebody looks
    (idle) or at the tick itself (jobs running)."""

    WALK = LoadWalk(mean=1.0, sigma=0.3, interval=10.0)

    def test_unread_idle_machine_takes_its_steps_when_read(self):
        sim, m = make_machine(load_walk=self.WALK, initial_load=1.0)
        sim.run_until(95.0)
        assert m._background_load == 1.0          # nothing stepped yet
        rng = RngRegistry(1).stream("machine", "m", "load")
        expected = 1.0
        for _ in range(9):
            expected = self.WALK.step(rng, expected)
        assert m.background_load == expected
        assert m.load_average == expected

    def test_read_on_the_grid_sees_the_step_of_that_instant(self):
        sim, m = make_machine(load_walk=self.WALK, initial_load=1.0)
        rng = RngRegistry(1).stream("machine", "m", "load")
        first = self.WALK.step(rng, 1.0)
        seen = []
        sim.schedule_at(10.0, lambda: seen.append(m.background_load))
        sim.run_until(10.0)
        # the read was scheduled after the machine joined its grid
        assert seen == [first] and m.background_load == first

    def test_busy_machine_steps_at_the_tick_at_the_old_rate(self):
        sim, m = make_machine(load_walk=self.WALK, initial_load=1.0)
        job = SimJob(1000.0, 8.0)
        m.start_job(job)
        sim.run_until(10.0)
        # 10 s at speed / (1 job + load 1.0), integrated when the tick
        # changed the load — no read needed
        assert job.remaining == pytest.approx(1000.0 - 10.0 / 2.0)
        assert m._background_load != 1.0
        load = m._background_load
        sim.run_until(14.0)
        m.remove_job(job)
        assert job.remaining == pytest.approx(995.0 - 4.0 / (1.0 + load))

    def test_machine_is_a_callback_only_while_it_has_jobs(self):
        sim, m = make_machine(load_walk=self.WALK, initial_load=1.0)
        grid = m._grid
        assert grid.members == 1 and not grid._callbacks
        job = SimJob(3.0, 8.0)
        m.start_job(job)
        assert list(grid._callbacks) == [m]
        sim.run_until(50.0)
        assert job.done and not grid._callbacks
        assert sim.queue_depth == 1  # the grid the machine still rides

    def test_down_machine_owes_no_steps_and_leaves_the_grid(self):
        sim, m = make_machine(load_walk=self.WALK, initial_load=1.0)
        sim.run_until(25.0)
        m.fail()
        settled = m._background_load
        assert settled != 1.0                      # fail took steps 1, 2
        sim.run_until(200.0)
        assert sim.queue_depth == 0                # no ticker survives
        assert m.background_load == settled
        m.recover()
        sim.run_until(209.0)
        assert m.background_load == settled
        sim.run_until(210.0)                       # recover + interval
        assert m.background_load != settled

    def test_repeated_recoveries_leave_one_ticker(self):
        sim, m = make_machine(load_walk=self.WALK)
        for k in range(20):
            sim.run_until(sim.now + 7.0)
            m.fail()
            sim.run_until(sim.now + 7.0)
            m.recover()
        sim.run_until(sim.now + 100.0)
        assert sim.queue_depth == 1 and len(sim._tickers) == 1

    def test_recovery_on_the_grid_before_its_tick_keeps_both_grids(self):
        """The collision: ``b`` recovers at t=60 in an event that runs
        before the 10 s grid fires there, so its new ticker takes the
        key ``(70.0, 10.0)`` the old one is about to move to."""
        sim, a = make_machine(load_walk=self.WALK, name="a")
        _sim, b = make_machine(load_walk=self.WALK, name="b", sim=sim)
        assert a._grid is b._grid
        sim.schedule_at(45.0, b.fail)
        sim.schedule_at(60.0, b.recover)
        sim.run_until(60.0)
        assert b._grid is not a._grid
        assert a._grid.next_fire == b._grid.next_fire == 70.0
        sim.run_until(100.0)
        for machine, steps in ((a, 10), (b, 4 + 4)):
            rng = RngRegistry(1).stream("machine", machine.name, "load")
            expected = 0.0
            for _ in range(steps):
                expected = self.WALK.step(rng, expected)
            assert machine.background_load == expected
        assert sim.queue_depth == 2
