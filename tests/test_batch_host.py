"""Tests for Batch Queue Hosts mediating the three queue-system families."""

import pytest

from repro import Implementation, MachineSpec, Metasystem, ObjectClassRequest
from repro.errors import ReservationDeniedError
from repro.objects import LegionObject, Placement
from repro.queues import BackfillQueue, JobState


@pytest.fixture
def bmeta():
    m = Metasystem(seed=11)
    m.add_domain("hpc")
    m.add_vault("hpc")
    return m


def cluster_class(meta, work=50.0):
    return meta.create_class(
        "Job", [Implementation("sparc", "SunOS", memory_mb=16.0),
                Implementation("x86", "Linux", memory_mb=16.0)],
        work_units=work)


class TestFCFSHost:
    def test_objects_run_through_queue(self, bmeta):
        host = bmeta.add_batch_host("cluster", "hpc", queue_kind="fcfs",
                                    nodes=2)
        app = cluster_class(bmeta)
        vault = bmeta.vaults[0].loid
        results = [app.create_instance(Placement(host.loid, vault))
                   for _ in range(4)]
        assert all(r.ok for r in results)
        assert host.queue.queue_length + len(host.queue.running) == 4
        bmeta.advance(300.0)
        done = [app.get_instance(r.loid).attributes.get("completed_at")
                for r in results]
        assert all(d is not None for d in done)
        # 4 jobs, 2 nodes, 50 units each: two waves
        assert max(done) == pytest.approx(100.0, abs=5.0)

    def test_internal_reservation_table_for_fcfs(self, bmeta):
        host = bmeta.add_batch_host("cluster", "hpc", queue_kind="fcfs")
        app = cluster_class(bmeta)
        tok = host.make_reservation(bmeta.vaults[0].loid, app.loid)
        assert host.check_reservation(tok)
        assert not host.queue.supports_reservations

    def test_queue_full_denies_reservations(self, bmeta):
        host = bmeta.add_batch_host("cluster", "hpc", queue_kind="fcfs",
                                    nodes=1, max_queue_length=2)
        app = cluster_class(bmeta, work=1e6)
        vault = bmeta.vaults[0].loid
        app.create_instance(Placement(host.loid, vault))
        app.create_instance(Placement(host.loid, vault))
        app.create_instance(Placement(host.loid, vault))
        with pytest.raises(ReservationDeniedError):
            host.make_reservation(vault, app.loid)

    def test_kill_cancels_queue_job(self, bmeta):
        host = bmeta.add_batch_host("cluster", "hpc", queue_kind="fcfs",
                                    nodes=1)
        app = cluster_class(bmeta, work=1e5)
        vault = bmeta.vaults[0].loid
        r1 = app.create_instance(Placement(host.loid, vault))
        r2 = app.create_instance(Placement(host.loid, vault))
        app.destroy_instance(r1.loid)
        bmeta.advance(1.0)
        # r2 should now be running
        qjob = host._queue_jobs[r2.loid]
        assert qjob.state == JobState.RUNNING

    def test_deactivate_preserves_queue_progress(self, bmeta):
        host = bmeta.add_batch_host("cluster", "hpc", queue_kind="fcfs",
                                    nodes=1)
        app = cluster_class(bmeta, work=100.0)
        vault = bmeta.vaults[0].loid
        r = app.create_instance(Placement(host.loid, vault))
        bmeta.advance(30.0)
        opr, remaining = host.deactivate_object(r.loid)
        assert remaining == pytest.approx(70.0)

    def test_attributes_report_queue_state(self, bmeta):
        host = bmeta.add_batch_host("cluster", "hpc", queue_kind="fcfs",
                                    nodes=8)
        host.reassess()
        assert host.attributes.get("host_kind") == "batch"
        assert host.attributes.get("queue_total_nodes") == 8
        assert host.attributes.get("queue_supports_reservations") is False

    def test_queue_state_is_pushed_in_the_same_reassessment(self, bmeta):
        """Queue state reaches the Collection with the reassessment that
        read it, not one interval later (the push used to run before
        the batch attributes were written)."""
        host = bmeta.add_batch_host("cluster", "hpc", queue_kind="fcfs",
                                    nodes=16)
        app = cluster_class(bmeta, work=5000.0)
        vault = bmeta.vaults[0].loid
        for _ in range(13):
            assert app.create_instance(Placement(host.loid, vault)).ok
        assert host.queue.free_nodes == 3
        host.reassess()
        assert host.attributes.get("queue_free_nodes") == 3
        record = bmeta.collection.record_of(host.loid)
        assert record.attributes["queue_free_nodes"] == 3
        assert record.attributes == host.attributes.snapshot()

    def test_record_key_order(self, bmeta):
        host = bmeta.add_batch_host("cluster", "hpc", queue_kind="fcfs")
        record = bmeta.collection.record_of(host.loid)
        assert list(record.attributes)[-6:] == [
            "host_kind", "queue_name", "queue_length", "queue_free_nodes",
            "queue_total_nodes", "queue_supports_reservations"]


class TestBackfillHost:
    def test_native_reservation_passthrough(self, bmeta):
        host = bmeta.add_batch_host("maui", "hpc", queue_kind="backfill",
                                    nodes=4)
        app = cluster_class(bmeta)
        assert host.queue.supports_reservations
        tok = host.make_reservation(bmeta.vaults[0].loid, app.loid,
                                    duration=500.0)
        # a native advance reservation backs the token
        assert tok.token_id in host._native_reservations

    def test_cancel_releases_native_window(self, bmeta):
        host = bmeta.add_batch_host("maui", "hpc", queue_kind="backfill",
                                    nodes=1)
        app = cluster_class(bmeta)
        vault = bmeta.vaults[0].loid
        tok = host.make_reservation(vault, app.loid, duration=1e6)
        # whole cluster reserved: a submitted job must wait
        other = LegionObject(bmeta.minter.mint_instance(app.loid), app.loid)
        other.attributes.set("work_units", 10.0)
        other.attributes.set("memory_mb", 8.0)
        host.start_object(other, vault)
        bmeta.advance(5.0)
        qjob = host._queue_jobs[other.loid]
        assert qjob.state == JobState.QUEUED
        host.cancel_reservation(tok)
        bmeta.advance(60.0)
        assert other.attributes.get("completed_at") is not None

    def test_start_with_token_claims_window(self, bmeta):
        host = bmeta.add_batch_host("maui", "hpc", queue_kind="backfill",
                                    nodes=1)
        app = cluster_class(bmeta, work=10.0)
        vault = bmeta.vaults[0].loid
        tok = host.make_reservation(vault, app.loid, duration=1000.0)
        result = app.create_instance(
            Placement(host.loid, vault, reservation_token=tok))
        assert result.ok
        bmeta.advance(30.0)
        inst = app.get_instance(result.loid)
        assert inst.attributes.get("completed_at") is not None

    def test_denied_when_window_oversubscribed(self, bmeta):
        host = bmeta.add_batch_host("maui", "hpc", queue_kind="backfill",
                                    nodes=1)
        app = cluster_class(bmeta)
        vault = bmeta.vaults[0].loid
        host.make_reservation(vault, app.loid, start_time=100.0,
                              duration=100.0)
        with pytest.raises(ReservationDeniedError):
            host.make_reservation(vault, app.loid, start_time=150.0,
                                  duration=100.0)


class TestCondorHost:
    def test_jobs_survive_vacations(self, bmeta):
        host = bmeta.add_batch_host("pool", "hpc", queue_kind="condor",
                                    nodes=2, mean_idle=100.0,
                                    mean_busy=50.0)
        app = cluster_class(bmeta, work=300.0)
        vault = bmeta.vaults[0].loid
        r = app.create_instance(Placement(host.loid, vault))
        assert r.ok
        bmeta.advance(20000.0)
        inst = app.get_instance(r.loid)
        assert inst.attributes.get("completed_at") is not None


class TestSchedulingOntoCluster:
    def test_scheduler_places_across_workstations_and_cluster(self, bmeta):
        for i in range(2):
            bmeta.add_unix_host(f"ws{i}", "hpc",
                                MachineSpec(arch="sparc", os_name="SunOS"))
        bmeta.add_batch_host("cluster", "hpc", queue_kind="fcfs", nodes=4)
        app = cluster_class(bmeta)
        sched = bmeta.make_scheduler("random")
        outcome = sched.run([ObjectClassRequest(app, count=6)])
        assert outcome.ok
        hosts_used = {m.host_loid for m in
                      outcome.feedback.reserved_entries}
        assert len(hosts_used) >= 2
