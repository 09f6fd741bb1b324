"""Soak test: a long mixed-workload day in the metasystem.

Exercises everything at once over a long stretch of virtual time: load
dynamics, a request stream from several schedulers, batch clusters, the
Data Collection Daemon, the Monitor with migrations, a host crash and
recovery, and a transient partition — asserting global invariants at the
end (no oversubscription, no stuck objects, conserved counts).
"""

import pytest

from repro import ObjectClassRequest
from repro.hosts import BatchQueueHost
from repro.workload import (
    TestbedSpec,
    build_testbed,
    implementations_for_all_platforms,
)


@pytest.mark.slow
class TestSoak:
    def test_mixed_day(self):
        meta = build_testbed(TestbedSpec(
            n_domains=3, hosts_per_domain=6, platform_mix=3,
            background_load_mean=0.5, load_spike_prob=0.02,
            batch_clusters={1: "backfill"}, batch_nodes=8,
            seed=777, host_slots=3))
        daemon = meta.make_daemon(interval=45.0)
        daemon.start()
        monitor = meta.make_monitor(min_load_advantage=2.0)
        monitor.watch_all(meta.hosts)

        apps = [
            meta.create_class(f"app{i}",
                              implementations_for_all_platforms(),
                              work_units=150.0 * (i + 1))
            for i in range(3)
        ]
        schedulers = [meta.make_scheduler("random"),
                      meta.make_scheduler("irs", n_schedules=4),
                      meta.make_scheduler("load")]

        created = []
        submitted = 0
        # six hours of virtual time, a request every ~10 minutes
        for round_no in range(36):
            app = apps[round_no % len(apps)]
            sched = schedulers[round_no % len(schedulers)]
            outcome = sched.run([ObjectClassRequest(app, 2)],
                                reservation_duration=600.0)
            submitted += 2
            if outcome.ok:
                created.extend((app, loid) for loid in outcome.created)
            # mid-run chaos
            if round_no == 10:
                victim = meta.hosts[2]
                victim.machine.fail()
                meta.topology.set_node_down(victim.location)
            if round_no == 14:
                meta.hosts[2].machine.recover()
                meta.topology.set_node_down(meta.hosts[2].location,
                                            down=False)
            if round_no == 20:
                meta.topology.partition("dom0", "dom2")
            if round_no == 24:
                meta.topology.heal("dom0", "dom2")
            meta.advance(600.0)

        # drain
        meta.advance(6 * 3600.0)

        # -- invariants -----------------------------------------------------
        for host in meta.hosts:
            assert len(host.placed) <= host.slots
            if isinstance(host, BatchQueueHost):
                assert host.queue._busy_nodes <= host.queue.total_nodes
        # all placed objects either completed, died with the crashed host,
        # or are still active (placed somewhere real) — never limbo
        limbo = 0
        for app, loid in created:
            try:
                instance = app.get_instance(loid)
            except Exception:
                continue
            done = instance.attributes.get("completed_at") is not None
            if done:
                continue
            if instance.is_active:
                host = meta.resolve(instance.host_loid)
                if host is None or loid not in host.placed:
                    # lost to the injected host crash — acceptable
                    limbo += 0 if host is None else 1
            # inert objects must have been deactivated by the crash path
        assert limbo == 0
        # a healthy majority of placements completed despite the chaos
        completed = sum(
            1 for app, loid in created
            if app.get_instance(loid).attributes.get("completed_at")
            is not None)
        assert completed >= 0.6 * len(created)
        # subsystems actually exercised
        assert daemon.sweeps > 100
        assert meta.enactor.stats.reservations_granted >= len(created)
        # reservation ledgers stay bounded: every 600 s grant has long
        # expired by the end of the drain, and periodic reassessment
        # sweeps dead entries instead of accumulating them forever
        for host in meta.hosts:
            assert len(host.reservations) <= host.slots, host.machine.name
        purged = meta.metrics.get("host_reservations_purged_total")
        assert purged is not None and purged.value > 0
