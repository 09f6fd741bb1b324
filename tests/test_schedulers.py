"""Tests for the Scheduler framework and all placement policies."""

import pytest

from repro import Implementation, ObjectClassRequest
from repro.errors import SchedulingError
from repro.naming import LOID
from repro.scheduler import (
    IRSScheduler,
    KofNScheduler,
    LoadAwareScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    StencilScheduler,
    implementation_query,
    snake_order,
)
from repro.scheduler.stencil import grid_comm_cost


class TestFramework:
    def test_implementation_query_builds_clauses(self):
        q = implementation_query([Implementation("sparc", "SunOS"),
                                  Implementation("x86", "Linux")])
        assert '$host_arch == "sparc"' in q
        assert '$host_os_name == "Linux"' in q
        assert "or" in q
        assert "$host_up == true" in q

    def test_implementation_query_dedupes(self):
        q = implementation_query([Implementation("sparc", "SunOS"),
                                  Implementation("sparc", "SunOS",
                                                 memory_mb=64)])
        assert q.count("sparc") == 1

    def test_implementation_query_requires_impls(self):
        with pytest.raises(SchedulingError):
            implementation_query([])

    def test_viable_hosts_filters_platform(self, meta, app_class):
        sched = meta.make_scheduler("random")
        records = sched.viable_hosts(app_class)
        assert len(records) == 4  # all fixture hosts are sparc/SunOS
        other = meta.create_class("Alien",
                                  [Implementation("vax", "VMS")])
        assert sched.viable_hosts(other) == []

    def test_compatible_vaults_parsed_from_record(self, meta, app_class):
        sched = meta.make_scheduler("random")
        record = sched.viable_hosts(app_class)[0]
        vaults = sched.compatible_vaults_of(record)
        assert vaults == [meta.vaults[0].loid]

    def test_run_wrapper_counts(self, meta, app_class):
        sched = meta.make_scheduler("random")
        outcome = sched.run([ObjectClassRequest(app_class, count=2)])
        assert outcome.ok
        assert outcome.schedule_tries == 1
        assert outcome.enact_tries == 1
        assert outcome.collection_queries >= 1
        assert outcome.elapsed >= 0.0

    def test_run_reports_failure_when_no_hosts(self, meta):
        alien = meta.create_class("Alien", [Implementation("vax", "VMS")])
        sched = meta.make_scheduler("random")
        outcome = sched.run([ObjectClassRequest(alien)])
        assert not outcome.ok
        assert "no viable hosts" in outcome.detail

    def test_request_count_validation(self, app_class):
        with pytest.raises(ValueError):
            ObjectClassRequest(app_class, count=0)


class TestRandom:
    def test_single_master_no_variants(self, meta, app_class):
        sched = meta.make_scheduler("random")
        rl = sched.compute_schedule([ObjectClassRequest(app_class, 5)])
        assert len(rl) == 1
        assert len(rl.masters[0]) == 5
        assert rl.masters[0].variants == []

    def test_mappings_are_viable(self, meta, app_class):
        sched = meta.make_scheduler("random")
        rl = sched.compute_schedule([ObjectClassRequest(app_class, 10)])
        host_loids = {h.loid for h in meta.hosts}
        for m in rl.masters[0].entries:
            assert m.host_loid in host_loids
            assert m.vault_loid == meta.vaults[0].loid
            assert m.class_loid == app_class.loid

    def test_spread_is_random(self, meta, app_class):
        sched = meta.make_scheduler("random")
        rl = sched.compute_schedule([ObjectClassRequest(app_class, 30)])
        used = {m.host_loid for m in rl.masters[0].entries}
        assert len(used) > 1  # 30 draws over 4 hosts: all-same is ~0

    def test_deterministic_under_seed(self, app_class, meta):
        s1 = meta.make_scheduler("random",
                                 rng=__import__("numpy").random.default_rng(5))
        s2 = meta.make_scheduler("random",
                                 rng=__import__("numpy").random.default_rng(5))
        r1 = s1.compute_schedule([ObjectClassRequest(app_class, 6)])
        r2 = s2.compute_schedule([ObjectClassRequest(app_class, 6)])
        assert ([m.host_loid for m in r1.masters[0].entries]
                == [m.host_loid for m in r2.masters[0].entries])

    def test_end_to_end(self, meta, app_class):
        sched = meta.make_scheduler("random")
        outcome = sched.run([ObjectClassRequest(app_class, 3)])
        assert outcome.ok and len(outcome.created) == 3


class TestIRS:
    def test_master_plus_variants(self, meta, app_class):
        sched = meta.make_scheduler("irs", n_schedules=4)
        rl = sched.compute_schedule([ObjectClassRequest(app_class, 5)])
        master = rl.masters[0]
        assert len(master) == 5
        assert 1 <= len(master.variants) <= 3

    def test_variant_entries_differ_from_master(self, meta, app_class):
        sched = meta.make_scheduler("irs", n_schedules=5)
        rl = sched.compute_schedule([ObjectClassRequest(app_class, 4)])
        master = rl.masters[0]
        for variant in master.variants:
            for idx, repl in variant.replacements.items():
                assert not repl.same_target(master.entries[idx])

    def test_single_collection_lookup_per_class(self, meta, app_class):
        sched = meta.make_scheduler("irs", n_schedules=6)
        before = sched.collection_queries
        sched.compute_schedule([ObjectClassRequest(app_class, 8)])
        assert sched.collection_queries - before == 1

    def test_fewer_lookups_than_repeated_random(self, meta, app_class):
        # IRS with n candidate schedules does 1 lookup; calling the random
        # generator n times would do n.  The random side pins the paper's
        # uncached lookup economy, so the viable-hosts cache is off for it.
        irs = meta.make_scheduler("irs", n_schedules=4)
        rand = meta.make_scheduler("random", viable_cache=False)
        irs.compute_schedule([ObjectClassRequest(app_class, 4)])
        for _ in range(4):
            rand.compute_schedule([ObjectClassRequest(app_class, 4)])
        assert irs.collection_queries == 1
        assert rand.collection_queries == 4

    def test_one_choice_draw_consumes_no_random_bits(self, meta,
                                                     app_class):
        """``_random_pair`` does not draw a vault from a one-vault list:
        numpy answers ``integers(0, 1)`` without touching the stream, so
        the skipped draw moves no later one.  If this ever fails, make
        the draw again (and re-pin the placement digests)."""
        import numpy as np
        drawn, skipped = np.random.default_rng(9), np.random.default_rng(9)
        assert [int(drawn.integers(0, 1)) for _ in range(5)] == [0] * 5
        assert (drawn.bit_generator.state == skipped.bit_generator.state)
        # and with several vaults the vault draw is made, after the host's
        sched = meta.make_scheduler("irs")
        records, _ = sched.viable_hosts_and_vaults(app_class)
        vaults = [sched.compatible_vaults_of(r) for r in records]
        twin = np.random.default_rng(21)
        sched.rng = np.random.default_rng(21)
        extra = LOID(("uva", "vault", "second"))
        host, vault = sched._random_pair(
            records, [v + [extra] for v in vaults])
        i = int(twin.integers(0, len(records)))
        j = int(twin.integers(0, 2))
        assert host == records[i].member
        assert vault == (vaults[i] + [extra])[j]
        assert sched.rng.bit_generator.state == twin.bit_generator.state

    def test_wrapper_limits_configurable(self, meta, app_class):
        sched = IRSScheduler(meta.collection, meta.enactor, meta.transport,
                             n_schedules=2, sched_try_limit=5,
                             enact_try_limit=3)
        assert sched.sched_try_limit == 5
        assert sched.enact_try_limit == 3

    def test_n_schedules_validation(self, meta):
        with pytest.raises(ValueError):
            IRSScheduler(meta.collection, meta.enactor, meta.transport,
                         n_schedules=0)

    def test_end_to_end_under_contention(self, meta, app_class):
        # shrink capacity: fill most hosts so variants are exercised
        vault = meta.vaults[0]
        for host in meta.hosts[:2]:
            for _ in range(host.slots):
                host.make_reservation(vault.loid, app_class.loid)
        sched = meta.make_scheduler("irs", n_schedules=6)
        outcome = sched.run([ObjectClassRequest(app_class, 2)])
        assert outcome.ok


class TestLoadAware:
    def test_prefers_least_loaded(self, meta, app_class):
        for i, host in enumerate(meta.hosts):
            host.machine.set_background_load(float(3 - i))
            host.reassess()
        sched = meta.make_scheduler("load")
        rl = sched.compute_schedule([ObjectClassRequest(app_class, 1)])
        chosen = rl.masters[0].entries[0].host_loid
        # hosts[3] has load 0: the fastest expected rate
        assert chosen == meta.hosts[3].loid

    def test_spreads_before_doubling(self, meta, app_class):
        sched = meta.make_scheduler("load")
        rl = sched.compute_schedule([ObjectClassRequest(app_class, 4)])
        used = [m.host_loid for m in rl.masters[0].entries]
        assert len(set(used)) == 4

    def test_produces_variants(self, meta, app_class):
        sched = meta.make_scheduler("load")
        rl = sched.compute_schedule([ObjectClassRequest(app_class, 2)])
        assert len(rl.masters[0].variants) >= 1

    def test_predicted_load_attr(self, meta, app_class):
        # inject a prediction that inverts the ranking
        meta.collection.inject_attribute(
            "predicted_load",
            lambda rec: 10.0 - float(rec.get("host_load", 0.0)))
        for i, host in enumerate(meta.hosts):
            host.machine.set_background_load(float(i))
            host.reassess()
        plain = meta.make_scheduler("load")
        seer = LoadAwareScheduler(meta.collection, meta.enactor,
                                  meta.transport,
                                  predicted_load_attr="predicted_load")
        plain_pick = plain.compute_schedule(
            [ObjectClassRequest(app_class, 1)]).masters[0].entries[0]
        seer_pick = seer.compute_schedule(
            [ObjectClassRequest(app_class, 1)]).masters[0].entries[0]
        assert plain_pick.host_loid != seer_pick.host_loid


class TestRoundRobin:
    def test_cycles_hosts_in_order(self, meta, app_class):
        sched = meta.make_scheduler("round-robin")
        rl = sched.compute_schedule([ObjectClassRequest(app_class, 8)])
        hosts = [m.host_loid for m in rl.masters[0].entries]
        assert hosts[:4] == sorted(set(hosts))
        assert hosts[:4] == hosts[4:]

    def test_rotation_persists_across_calls(self, meta, app_class):
        sched = meta.make_scheduler("round-robin")
        first = sched.compute_schedule([ObjectClassRequest(app_class, 2)])
        second = sched.compute_schedule([ObjectClassRequest(app_class, 2)])
        a = [m.host_loid for m in first.masters[0].entries]
        b = [m.host_loid for m in second.masters[0].entries]
        assert set(a).isdisjoint(set(b))  # 4 hosts, 2+2 split


class TestStencil:
    def test_snake_order(self):
        assert snake_order(2, 3) == [(0, 0), (0, 1), (0, 2),
                                     (1, 2), (1, 1), (1, 0)]

    def test_grid_comm_cost(self):
        h1, h2 = LOID(("d", "host", "a")), LOID(("d", "host", "b"))
        domains = {h1: "x", h2: "y"}
        same = {c: h1 for c in [(0, 0), (0, 1), (1, 0), (1, 1)]}
        assert grid_comm_cost(2, 2, same, domains) == 0.0
        split = {(0, 0): h1, (0, 1): h1, (1, 0): h2, (1, 1): h2}
        # 2 vertical edges cross hosts in different domains
        assert grid_comm_cost(2, 2, split, domains) == pytest.approx(40.0)

    def test_placement_clusters_by_domain(self, multi):
        app = multi.create_class(
            "Ocean", [Implementation(a, o) for a, o, *_ in
                      __import__("repro.workload.testbed",
                                 fromlist=["PLATFORMS"]).PLATFORMS],
            work_units=10.0)
        sched = StencilScheduler(multi.collection, multi.enactor,
                                 multi.transport, rows=3, cols=4,
                                 instances_per_host=1)
        rl = sched.compute_schedule([ObjectClassRequest(app, 12)])
        entries = rl.masters[0].entries
        host_domain = {h.loid: h.domain for h in multi.hosts}
        cost = sched.placement_cost(entries, host_domain, 3, 4)
        # compare against random placement cost
        rand = multi.make_scheduler("random")
        rand_rl = rand.compute_schedule([ObjectClassRequest(app, 12)])
        from repro.scheduler.stencil import snake_order as so
        cells = so(3, 4)
        rand_map = {c: rand_rl.masters[0].entries[i].host_loid
                    for i, c in enumerate(cells)}
        rand_cost = grid_comm_cost(3, 4, rand_map, host_domain)
        assert cost < rand_cost

    def test_grid_mismatch_rejected(self, meta, app_class):
        sched = StencilScheduler(meta.collection, meta.enactor,
                                 meta.transport, rows=2, cols=3)
        with pytest.raises(SchedulingError):
            sched.compute_schedule([ObjectClassRequest(app_class, 5)])

    def test_one_class_only(self, meta, app_class):
        sched = StencilScheduler(meta.collection, meta.enactor,
                                 meta.transport, rows=1, cols=1)
        with pytest.raises(SchedulingError):
            sched.compute_schedule([ObjectClassRequest(app_class, 1),
                                    ObjectClassRequest(app_class, 1)])

    def test_capacity_check(self, meta, app_class):
        sched = StencilScheduler(meta.collection, meta.enactor,
                                 meta.transport, rows=10, cols=10,
                                 instances_per_host=1)
        with pytest.raises(SchedulingError):
            sched.compute_schedule([ObjectClassRequest(app_class, 100)])

    def test_default_decomposition(self, meta, app_class):
        sched = StencilScheduler(meta.collection, meta.enactor,
                                 meta.transport, instances_per_host=4)
        rl = sched.compute_schedule([ObjectClassRequest(app_class, 6)])
        assert len(rl.masters[0]) == 6


class TestKofNScheduler:
    def test_master_marks_required_k(self, meta, app_class):
        sched = meta.make_scheduler("kofn", overprovision=2.0)
        rl = sched.compute_schedule([ObjectClassRequest(app_class, 2)])
        master = rl.masters[0]
        assert master.required_k == 2
        assert len(master) >= 2

    def test_end_to_end_starts_exactly_k(self, meta, app_class):
        sched = meta.make_scheduler("kofn")
        outcome = sched.run([ObjectClassRequest(app_class, 2)])
        assert outcome.ok
        assert len(outcome.created) == 2

    def test_insufficient_hosts(self, meta, app_class):
        sched = meta.make_scheduler("kofn")
        with pytest.raises(SchedulingError):
            sched.compute_schedule([ObjectClassRequest(app_class, 99)])

    def test_overprovision_validation(self, meta):
        with pytest.raises(ValueError):
            KofNScheduler(meta.collection, meta.enactor, meta.transport,
                          overprovision=0.5)


def two_host_world(*vault_domains):
    """Hosts ``fast`` in domain ``a`` and ``slow`` in domain ``b``; each
    of ``vault_domains`` gets a vault, so only its host advertises one."""
    from repro import MachineSpec, Metasystem
    meta = Metasystem(seed=1)
    for domain, name, speed, price in (("a", "fast", 2.0, 0.01),
                                       ("b", "slow", 1.0, 0.05)):
        meta.add_domain(domain)
        meta.add_unix_host(name, domain,
                           MachineSpec(arch="sparc", os_name="SunOS",
                                       speed=speed),
                           slots=2, price=price)
    for domain in vault_domains:
        meta.add_vault(domain)
    app = meta.create_class("App", [Implementation("sparc", "SunOS")],
                            work_units=10.0)
    return meta, app


def master_and_other(kind):
    """``(master's domain, the other domain)`` for ``kind``'s one-instance
    schedule when both hosts advertise a vault."""
    meta, app = two_host_world("a", "b")
    [master] = meta.make_scheduler(kind).compute_schedule(
        [ObjectClassRequest(app, count=1)]).masters
    first = meta.resolve(master.entries[0].host_loid).domain
    return first, "b" if first == "a" else "a"


#: every kind that ranks alternates behind its master
RANKED_KINDS = ("load", "round-robin", "mct", "cost", "stencil",
                "economy-cost", "economy-time")


class TestAlternateWithoutVaults:
    """One rule for a host without vaults: an alternate is dropped, a
    master is refused."""

    @pytest.mark.parametrize("kind", RANKED_KINDS)
    def test_vaultless_alternate_is_dropped(self, kind):
        master_domain, _ = master_and_other(kind)
        meta, app = two_host_world(master_domain)
        outcome = meta.make_scheduler(kind).run(
            [ObjectClassRequest(app, count=1)])
        assert outcome.ok, outcome.detail
        [master] = outcome.feedback.request.masters
        assert [meta.resolve(m.host_loid).domain
                for m in master.entries] == [master_domain]
        assert master.variants == []

    @pytest.mark.parametrize("kind", RANKED_KINDS)
    def test_vaultless_master_is_refused(self, kind):
        master_domain, other = master_and_other(kind)
        meta, app = two_host_world(other)
        [host] = [h for h in meta.hosts if h.domain == master_domain]
        with pytest.raises(SchedulingError) as err:
            meta.make_scheduler(kind).compute_schedule(
                [ObjectClassRequest(app, count=1)])
        assert str(err.value) == (f"host {host.loid} advertises no "
                                  f"compatible vaults")

    @pytest.mark.parametrize("kind", ["economy-cost", "economy-time"])
    def test_refused_master_takes_no_budget_hold(self, kind):
        _, other = master_and_other(kind)
        meta, app = two_host_world(other)
        sched = meta.make_scheduler(kind)
        assert not sched.run([ObjectClassRequest(app, count=1)]).ok
        assert sched.budgets.account(sched.user).committed == 0.0
