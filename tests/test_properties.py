"""Cross-cutting property-based tests on core invariants."""

import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import InvalidReservationError
from repro.hosts import (ALL_TYPES, REUSABLE_TIME, MachineSpec,
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
        entry.confirmed = confirmed
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
