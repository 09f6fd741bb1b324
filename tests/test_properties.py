"""Cross-cutting property-based tests on core invariants."""

import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import InvalidReservationError
from repro.hosts import (ALL_TYPES, REUSABLE_TIME, LoadWalk, MachineSpec,
                         ReservationTable, SimJob, SimMachine)
from repro.hosts.reservations import INSTANTANEOUS
from repro.naming import LOID
from repro.net import AdministrativeDomain, NetLocation, Topology
from repro.queues import BackfillQueue, FCFSQueue, JobState, QueueJob
from repro.sim import RngRegistry, Simulator


def fresh_machine(cpus=1, speed=1.0, memory=1e9):
    sim = Simulator()
    topo = Topology()
    topo.add_domain(AdministrativeDomain("d"))
    loc = topo.add_node("d", "m")
    machine = SimMachine("m", MachineSpec(cpus=cpus, speed=speed,
                                          memory_mb=memory),
                         loc, sim, RngRegistry(0))
    return sim, machine


class TestProcessorSharingProperties:
    @given(st.lists(st.floats(min_value=1.0, max_value=500.0),
                    min_size=1, max_size=8),
           st.integers(min_value=1, max_value=4),
           st.floats(min_value=0.25, max_value=4.0))
    @settings(max_examples=60, deadline=None)
    def test_work_conservation(self, works, cpus, speed):
        """Every job completes exactly its work; total work done equals
        the sum of submitted work."""
        sim, machine = fresh_machine(cpus=cpus, speed=speed)
        jobs = [SimJob(w, 1.0) for w in works]
        for job in jobs:
            machine.start_job(job)
        sim.run()
        assert all(j.done for j in jobs)
        assert machine.total_work_done == pytest.approx(sum(works))

    @given(st.lists(st.floats(min_value=1.0, max_value=500.0),
                    min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_makespan_bounds(self, works):
        """Single-CPU PS makespan equals total work / speed; no job
        finishes before its own work / speed."""
        sim, machine = fresh_machine(cpus=1, speed=1.0)
        jobs = [SimJob(w, 1.0) for w in works]
        for job in jobs:
            machine.start_job(job)
        sim.run()
        last = max(j.finished_at for j in jobs)
        assert last == pytest.approx(sum(works))
        for job in jobs:
            assert job.finished_at >= job.work - 1e-6

    @given(st.lists(st.floats(min_value=1.0, max_value=100.0),
                    min_size=2, max_size=6),
           st.floats(min_value=1.0, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_preemption_preserves_remaining_work(self, works, when):
        """Removing a job at any time leaves work+done = original."""
        sim, machine = fresh_machine()
        jobs = [SimJob(w, 1.0) for w in works]
        for job in jobs:
            machine.start_job(job)
        sim.run_until(when)
        victim = jobs[0]
        if victim.done:
            return
        done_before = machine.total_work_done
        remaining = machine.remove_job(victim)
        assert 0.0 <= remaining <= victim.work + 1e-9
        sim.run()
        total = machine.total_work_done
        expected = sum(w for w in works) - remaining
        assert total == pytest.approx(expected)


class EagerMachine(SimMachine):
    """The load process this repository had before machines shared a
    ticker, kept as the reference: a private ``schedule(interval)``
    chain that steps the walk at every grid instant whether or not
    anyone looks, orphaned by ``fail`` and restarted by ``recover``."""

    _chain = 0

    def _join_grid(self):
        if self.load_walk is None:
            return
        self._chain += 1
        chain = self._chain

        def step():
            if chain != self._chain or not self.up:
                return
            self._advance()
            self._background_load = self.load_walk.step(
                self._rng, self._background_load)
            self._reschedule()
            self.sim.schedule(self.load_walk.interval, step)
        self.sim.schedule(self.load_walk.interval, step)


_GRID = 10.0
_gaps = st.one_of(
    st.sampled_from([0.0, _GRID, 2 * _GRID, 5 * _GRID]),
    st.floats(min_value=0.0, max_value=35.0, allow_nan=False))
_machine_ops = st.one_of(
    st.tuples(st.just("read")),
    st.tuples(st.just("set"), st.floats(min_value=0.0, max_value=6.0)),
    st.tuples(st.just("start"), st.floats(min_value=0.5, max_value=80.0)),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("add_work"), st.integers(min_value=0, max_value=7),
              st.floats(min_value=0.0, max_value=20.0)),
    st.tuples(st.just("fail")),
    st.tuples(st.just("recover")),
)
#: the walk's spike probability (a spike-free walk batches its owed
#: draws), then a list of (gap since the previous op, which machine, run
#: as a kernel event scheduled at t=0 — so ahead of that instant's tick
#: — or from outside after the instant's events, the op)
_script = st.tuples(
    st.sampled_from([0.0, 0.2]),
    st.lists(st.tuples(_gaps, st.integers(0, 1), st.booleans(),
                       _machine_ops), min_size=1, max_size=30))


def _play(machine_class, script):
    """Run ``script`` on two machines sharing one simulator; return
    everything observable: reads, completions, final state, next draws."""
    spike_prob, script = script
    sim = Simulator()
    topo = Topology()
    topo.add_domain(AdministrativeDomain("d"))
    rngs = RngRegistry(42)
    walk = LoadWalk(mean=1.0, sigma=0.4, interval=_GRID,
                    spike_prob=spike_prob)
    machines = [machine_class(name, MachineSpec(cpus=2, memory_mb=1e9),
                              topo.add_node("d", name), sim, rngs,
                              load_walk=walk, initial_load=1.0)
                for name in ("a", "b")]
    log = []
    jobs = ([], [])

    def apply(index, op):
        machine, mine = machines[index], jobs[index]
        kind = op[0]
        if kind == "read":
            log.append(("read", sim.now, index, machine.background_load,
                        machine.load_average))
        elif kind == "set":
            machine.set_background_load(op[1])
        elif kind == "start" and machine.up:
            job = SimJob(op[1], 1.0, on_complete=lambda j, n=len(mine):
                         log.append(("done", sim.now, index, n)))
            mine.append(machine.start_job(job))
        elif kind == "remove" and op[1] < len(mine):
            log.append(("removed", machine.remove_job(mine[op[1]])))
        elif kind == "add_work" and op[1] < len(mine):
            machine.add_work(mine[op[1]], op[2])
        elif kind == "fail":
            log.append(("lost", len(machine.fail())))
        elif kind == "recover":
            machine.recover()

    when, late = 0.0, []
    for gap, index, early, op in script:
        when += gap
        if early:
            sim.schedule_at(when, lambda i=index, o=op: apply(i, o))
        else:
            late.append((when, index, op))
    for at, index, op in late:
        sim.run_until(at)
        apply(index, op)
    sim.run_until(when + 3 * _GRID)
    for index, machine in enumerate(machines):
        apply(index, ("read",))
        log.append((machine.up, machine.completed_jobs,
                    machine.total_work_done,
                    [job.remaining for job in jobs[index]],
                    machine._rng.standard_normal()))
    return log


class TestLazyLoadWalkMatchesTheEagerChain:
    @given(_script)
    @settings(max_examples=150, deadline=None)
    def test_same_reads_completions_and_draws(self, script):
        assert _play(SimMachine, script) == _play(EagerMachine, script)


class TestQueueProperties:
    @given(st.lists(st.tuples(
        st.floats(min_value=1.0, max_value=200.0),    # work
        st.integers(min_value=1, max_value=4)),       # nodes
        min_size=1, max_size=10),
        st.integers(min_value=4, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_fcfs_all_complete_and_capacity_respected(self, specs, nodes):
        sim = Simulator()
        queue = FCFSQueue(sim, nodes=nodes)
        jobs = [QueueJob(work=w, nodes=n) for w, n in specs]
        # track peak usage via a monitor event after every sim step
        for job in jobs:
            queue.submit(job)
        while sim.step():
            assert queue._busy_nodes <= nodes
            assert queue._busy_nodes >= 0
        assert all(j.state == JobState.DONE for j in jobs)

    @given(st.lists(st.tuples(
        st.floats(min_value=1.0, max_value=200.0),
        st.integers(min_value=1, max_value=4)),
        min_size=2, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_fcfs_starts_in_submission_order(self, specs):
        sim = Simulator()
        queue = FCFSQueue(sim, nodes=4)
        jobs = [QueueJob(work=w, nodes=n) for w, n in specs]
        for job in jobs:
            queue.submit(job)
        sim.run()
        starts = [j.started_at for j in jobs]
        assert starts == sorted(starts)

    @given(st.lists(st.tuples(
        st.floats(min_value=1.0, max_value=100.0),
        st.integers(min_value=1, max_value=4)),
        min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_backfill_never_beats_fcfs_for_the_head(self, specs):
        """EASY guarantee: the queue-head's start time under backfill is
        never later than under plain FCFS (with truthful estimates)."""
        def run(cls):
            sim = Simulator()
            queue = cls(sim, nodes=4)
            jobs = [QueueJob(work=w, nodes=n, estimated_runtime=w)
                    for w, n in specs]
            for job in jobs:
                queue.submit(job)
            sim.run()
            return jobs

        fcfs_jobs = run(FCFSQueue)
        bf_jobs = run(BackfillQueue)
        for fj, bj in zip(fcfs_jobs, bf_jobs):
            assert bj.state == JobState.DONE
            # overall completion never suffers by more than numerics
        # head job specifically: started no later under backfill
        assert bf_jobs[0].started_at <= fcfs_jobs[0].started_at + 1e-9


class TestKernelProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=0.1, max_value=50.0),
                    min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_process_resume_times_exact(self, waits):
        sim = Simulator()
        times = []

        def body():
            for w in waits:
                yield w
                times.append(sim.now)

        sim.process(body())
        sim.run()
        expected = []
        acc = 0.0
        for w in waits:
            acc += w
            expected.append(acc)
        assert times == pytest.approx(expected)


class TestTransportDeterminism:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_same_seed_same_latencies(self, seed):
        from repro.net import MetasystemLatencyModel, Transport

        def sample():
            sim = Simulator()
            topo = Topology()
            topo.add_domain(AdministrativeDomain("a"))
            topo.add_domain(AdministrativeDomain("b", distance=2.0))
            x = topo.add_node("a", "x")
            y = topo.add_node("b", "y")
            tr = Transport(sim, topo, MetasystemLatencyModel(topo),
                           RngRegistry(seed))
            for _ in range(5):
                tr.invoke(x, y, lambda: None)
            return sim.now

        assert sample() == sample()


HOST = LOID(("d", "host", "h"))
VAULT = LOID(("d", "vault", "v"))
CLASS = LOID(("d", "class", "C"))
SECRET = b"property-secret!"

times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


def _expired_from_token(tok, confirmed, now):
    """The pre-memoisation ``_Entry.expired``: everything re-derived
    from the token on every call (kept as the reference)."""
    if tok.instantaneous and not confirmed and tok.timeout > 0:
        if now > tok.issued_at + tok.timeout:
            return True
    _start, end = tok.window()
    return now > end


class TestReservationEntryProperties:
    @given(issued=times, future=st.booleans(), lead=times,
           duration=st.floats(min_value=1e-3, max_value=1e4),
           timeout=st.floats(min_value=-10.0, max_value=1e4),
           confirmed=st.booleans(), probe=st.lists(times, max_size=4),
           rtype=st.sampled_from(ALL_TYPES))
    @settings(max_examples=200, deadline=None)
    def test_recorded_window_and_deadline_match_the_token(
            self, issued, future, lead, duration, timeout, confirmed,
            probe, rtype):
        table = ReservationTable(HOST, SECRET, slots=4)
        tok = table.make_reservation(
            VAULT, CLASS, rtype, now=issued, duration=duration,
            timeout=timeout,
            start_time=issued + lead if future else INSTANTANEOUS)
        entry = table._entries[tok.token_id]
        entry.redeemed = int(confirmed)
        assert (entry.start, entry.end) == tok.window()
        # the exact boundaries, one ulp either side, and arbitrary times
        bounds = [entry.end, issued + timeout, tok.window()[0]]
        nows = probe + [f(b) for b in bounds
                        for f in (lambda x: x,
                                  lambda x: math.nextafter(x, math.inf),
                                  lambda x: math.nextafter(x, -math.inf))]
        for now in nows:
            assert entry.expired(now) == _expired_from_token(
                tok, confirmed, now)
            assert table.timed_out(tok, now) == (
                not confirmed and tok.instantaneous and tok.timeout > 0
                and now > tok.issued_at + tok.timeout)

    @given(duration=st.floats(min_value=1.0, max_value=1e4),
           factor=st.floats(min_value=1.001, max_value=1e3),
           flip=st.integers(min_value=0, max_value=255),
           checks=st.integers(min_value=0, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_rebuilt_token_is_refused_however_often_the_real_one_passed(
            self, duration, factor, flip, checks):
        table = ReservationTable(HOST, SECRET, slots=4)
        tok = table.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0,
                                     duration=duration, timeout=0.0)
        for _ in range(checks):
            assert table.check_reservation(tok, now=0.5)
        sig = bytearray(tok.signature)
        sig[flip % len(sig)] ^= 1 + flip % 255
        for copy in (
                dataclasses.replace(tok, duration=duration * factor),
                dataclasses.replace(tok, vault_loid=HOST),
                dataclasses.replace(tok, signature=bytes(sig)),
                dataclasses.replace(tok, signature=b"")):
            assert copy != tok
            assert not table.check_reservation(copy, now=0.5)
            with pytest.raises(InvalidReservationError):
                table.redeem(copy, now=0.5)
            with pytest.raises(InvalidReservationError):
                table.cancel_reservation(copy, now=0.5)
        assert table.check_reservation(tok, now=0.5)
