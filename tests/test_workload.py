"""Tests for testbeds and application models."""

import math

import pytest

from repro.sim import Pareto
from repro.workload import (
    BagOfTasks,
    ParameterStudy,
    StencilApplication,
    TestbedSpec,
    build_testbed,
    multi_domain,
    small_campus,
)


class TestTestbeds:
    def test_small_campus_shape(self):
        meta = small_campus(seed=1, hosts=6)
        assert len(meta.hosts) == 6
        assert len(meta.vaults) == 1
        assert len(meta.topology.domains()) == 1
        assert len(meta.collection) == 6

    def test_multi_domain_shape(self):
        meta = multi_domain(n_domains=3, hosts_per_domain=4, seed=2)
        assert len(meta.hosts) == 12
        assert len(meta.vaults) == 3
        domains = {h.domain for h in meta.hosts}
        assert len(domains) == 3

    def test_same_seed_same_testbed(self):
        a = multi_domain(seed=7, dynamics=False)
        b = multi_domain(seed=7, dynamics=False)
        sa = [(h.machine.name, h.machine.spec.arch, h.machine.spec.speed)
              for h in a.hosts]
        sb = [(h.machine.name, h.machine.spec.arch, h.machine.spec.speed)
              for h in b.hosts]
        assert sa == sb

    def test_platform_mix(self):
        meta = build_testbed(TestbedSpec(n_domains=1, hosts_per_domain=9,
                                         platform_mix=3,
                                         background_load_mean=0.0))
        archs = {h.machine.spec.arch for h in meta.hosts}
        assert len(archs) == 3

    def test_batch_cluster_spec(self):
        meta = build_testbed(TestbedSpec(
            n_domains=2, hosts_per_domain=2, background_load_mean=0.0,
            batch_clusters={0: "fcfs", 1: "backfill"}))
        from repro.hosts import BatchQueueHost
        clusters = [h for h in meta.hosts if isinstance(h, BatchQueueHost)]
        assert len(clusters) == 2

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TestbedSpec(n_domains=0)
        with pytest.raises(ValueError):
            TestbedSpec(platform_mix=99)

    def test_spec_xor_kwargs(self):
        with pytest.raises(TypeError):
            build_testbed(TestbedSpec(), n_domains=2)


class TestBagOfTasks:
    def test_run_to_completion(self):
        meta = small_campus(seed=4, dynamics=False)
        app = BagOfTasks(meta, "bag", n_tasks=6, work_units=50.0)
        sched = meta.make_scheduler("random")
        report = app.run(sched)
        assert report.ok
        assert report.scheduled == 6
        assert report.completed == 6
        assert report.makespan > 0
        assert not math.isnan(report.makespan)

    def test_work_distribution_sampled(self):
        meta = small_campus(seed=4, dynamics=False)
        app = BagOfTasks(meta, "varied", n_tasks=5,
                         work_dist=Pareto(2.0, 50.0))
        sched = meta.make_scheduler("random")
        outcome = sched.run(app.requests())
        works = {app.class_obj.get_instance(l).attributes.get("work_units")
                 for l in outcome.created}
        assert len(works) > 1  # sampled, not constant

    def test_no_wait_mode(self):
        meta = small_campus(seed=4, dynamics=False)
        app = BagOfTasks(meta, "nw", n_tasks=2, work_units=50.0)
        report = app.run(meta.make_scheduler("random"), wait=False)
        assert report.ok and report.completed == 0

    def test_validation(self):
        meta = small_campus(seed=4)
        with pytest.raises(ValueError):
            BagOfTasks(meta, "bad", n_tasks=0)


class TestParameterStudy:
    def test_heavy_tailed_work(self):
        meta = small_campus(seed=5, dynamics=False)
        study = ParameterStudy(meta, "sweep", n_points=12, base_work=10.0,
                               tail_alpha=1.5)
        outcome = meta.make_scheduler("random").run(study.requests())
        assert outcome.ok
        works = [study.class_obj.get_instance(l).attributes["work_units"]
                 for l in outcome.created]
        assert min(works) >= 10.0  # Pareto xm
        assert max(works) > min(works)


class TestStencilApp:
    def test_comm_cost_reported_and_execution_completes(self):
        meta = multi_domain(n_domains=2, hosts_per_domain=6, seed=6,
                            dynamics=False)
        app = StencilApplication(meta, "ocean", rows=3, cols=4,
                                 iterations=10, work_per_iter=1.0)
        from repro.scheduler import StencilScheduler
        sched = StencilScheduler(meta.collection, meta.enactor,
                                 meta.transport, rows=3, cols=4,
                                 instances_per_host=2)
        report = app.run(sched)
        assert report.ok
        assert "comm_cost_per_iter" in report.metrics
        assert report.completed == 12

    def test_stencil_beats_random_on_comm_cost(self):
        meta = multi_domain(n_domains=3, hosts_per_domain=6, seed=7,
                            dynamics=False)
        from repro.scheduler import StencilScheduler
        app1 = StencilApplication(meta, "ocean1", rows=3, cols=4,
                                  iterations=5)
        smart = StencilScheduler(meta.collection, meta.enactor,
                                 meta.transport, rows=3, cols=4,
                                 instances_per_host=1)
        r1 = app1.run(smart, wait=False)
        app2 = StencilApplication(meta, "ocean2", rows=3, cols=4,
                                  iterations=5)
        r2 = app2.run(meta.make_scheduler("random"), wait=False)
        assert r1.ok and r2.ok
        assert (r1.metrics["comm_cost_per_iter"]
                <= r2.metrics["comm_cost_per_iter"])

    def test_grid_validation(self):
        meta = small_campus(seed=8)
        with pytest.raises(ValueError):
            StencilApplication(meta, "bad", rows=0, cols=3)
