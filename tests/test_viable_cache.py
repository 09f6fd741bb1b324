"""The Scheduler's incremental viable-hosts cache: hit/miss economy,
every invalidation edge, and placement equivalence with caching off.

The cache (``Scheduler.viable_hosts``) keys on query text and validates
entries against the Collection's ``data_version`` token, so the suite pins
the invalidation surface one edge at a time: record updates, membership
changes, health quarantine/recovery, and federation-shard outages must
each roll the token; anything that does *not* change query results (pure
repeat lookups) must be served from cache without touching the
Collection.  The closing tests pin the safety property that justifies
shipping the cache at all — cached and uncached runs place byte-identical
schedules, including under a seeded chaos campaign.
"""

import pytest

from repro import Implementation, MachineSpec, Metasystem, ObjectClassRequest
from repro.chaos import run_campaign
from repro.workload.testbed import TestbedSpec, build_testbed


@pytest.fixture
def sched(meta, app_class):
    return meta.make_scheduler("random")


def _update(meta, host, attributes):
    meta.collection.update_entry(
        host.loid, attributes, meta._host_credentials[host.loid])


class TestCacheEconomy:
    def test_repeat_lookup_served_from_cache(self, meta, app_class, sched):
        first = sched.viable_hosts(app_class)
        second = sched.viable_hosts(app_class)
        assert [r.member for r in first] == [r.member for r in second]
        assert sched.viable_cache_misses == 1
        assert sched.viable_cache_hits == 1
        assert sched.collection_queries == 1  # the hit cost nothing

    def test_cached_list_is_a_copy(self, meta, app_class, sched):
        first = sched.viable_hosts(app_class)
        first.clear()
        assert len(sched.viable_hosts(app_class)) == 4

    def test_distinct_queries_cache_separately(self, meta, app_class,
                                               sched):
        sched.viable_hosts(app_class)
        sched.viable_hosts(app_class, extra_query="$host_load < 99")
        assert sched.viable_cache_misses == 2
        sched.viable_hosts(app_class)
        assert sched.viable_cache_hits == 1

    def test_disabled_cache_pins_paper_lookup_economy(self, meta,
                                                      app_class):
        sched = meta.make_scheduler("random", viable_cache=False)
        for _ in range(3):
            sched.viable_hosts(app_class)
        assert sched.collection_queries == 3
        assert sched.viable_cache_hits == 0
        assert sched.viable_cache_misses == 0


class TestInvalidation:
    def test_record_update_invalidates(self, meta, app_class, sched):
        assert len(sched.viable_hosts(app_class)) == 4
        _update(meta, meta.hosts[0], {"host_up": False})
        after = sched.viable_hosts(app_class)
        assert sched.viable_cache_misses == 2
        assert len(after) == 3
        assert meta.hosts[0].loid not in {r.member for r in after}

    def test_member_leave_invalidates(self, meta, app_class, sched):
        sched.viable_hosts(app_class)
        host = meta.hosts[1]
        meta.collection.leave(host.loid,
                              meta._host_credentials[host.loid])
        after = sched.viable_hosts(app_class)
        assert sched.viable_cache_misses == 2
        assert host.loid not in {r.member for r in after}

    def test_quarantine_and_recovery_invalidate(self, meta, app_class,
                                                sched):
        sched.viable_hosts(app_class)
        victim = meta.hosts[2]
        # the HealthMonitor's quarantine marker: viable_hosts must drop
        # the host the moment the record says DOWN...
        _update(meta, victim, {"host_health": "down"})
        during = sched.viable_hosts(app_class)
        assert victim.loid not in {r.member for r in during}
        # ...and re-admit it on recovery, each transition a fresh query
        _update(meta, victim, {"host_health": "live"})
        after = sched.viable_hosts(app_class)
        assert victim.loid in {r.member for r in after}
        assert sched.viable_cache_misses == 3
        assert sched.viable_cache_hits == 0

    def test_federation_shard_outage_invalidates(self):
        meta = build_testbed(TestbedSpec(
            seed=2, n_domains=2, hosts_per_domain=4, platform_mix=1,
            background_load_mean=0.0, federation_shards=3))
        app = meta.create_class(
            "App", [Implementation("sparc", "SunOS"),
                    Implementation("x86", "Linux")])
        sched = meta.make_scheduler("random")
        before = sched.viable_hosts(app)
        assert sched.viable_cache_misses == 1
        shard_id = meta.collection.shards[0].shard_id
        meta.collection.set_shard_down(shard_id)
        sched.viable_hosts(app)
        assert sched.viable_cache_misses == 2  # outage rolled the token
        meta.collection.set_shard_down(shard_id, down=False)
        healed = sched.viable_hosts(app)
        assert sched.viable_cache_misses == 3  # so did the recovery
        assert ([r.member for r in healed]
                == [r.member for r in before])


class TestPlacementEquivalence:
    def _created(self, viable_cache):
        meta = Metasystem(seed=11)
        meta.add_domain("uva")
        for i in range(4):
            meta.add_unix_host(f"ws{i}", "uva",
                               MachineSpec(arch="sparc", os_name="SunOS"),
                               slots=4)
        meta.add_vault("uva", name="uva-vault")
        app = meta.create_class(
            "App", [Implementation("sparc", "SunOS")], work_units=50.0)
        sched = meta.make_scheduler("irs", viable_cache=viable_cache)
        created = []
        for _ in range(3):  # back-to-back: prime cache territory
            outcome = sched.run([ObjectClassRequest(app, count=2)])
            assert outcome.ok
            created.append([str(l) for l in outcome.created])
        return created, sched

    def test_back_to_back_runs_identical_with_cache(self):
        cached, cached_sched = self._created(viable_cache=True)
        uncached, uncached_sched = self._created(viable_cache=False)
        assert cached == uncached
        assert cached_sched.viable_cache_hits >= 1
        assert uncached_sched.viable_cache_hits == 0
        assert (cached_sched.collection_queries
                < uncached_sched.collection_queries)

    def _campaign(self, viable_cache):
        # prebuilt testbed with the Collection left *unlocated*: queries
        # are then free of transport latency, so caching cannot shift
        # virtual time and any divergence would be a semantic cache bug
        meta = build_testbed(TestbedSpec(
            seed=4, n_domains=2, hosts_per_domain=4, platform_mix=2,
            background_load_mean=0.5))
        real = meta.make_scheduler
        meta.make_scheduler = (
            lambda kind="random", **kw:
            real(kind, viable_cache=viable_cache, **kw))
        return run_campaign(profile="hosts", chaos_seed=3, seed=4,
                            waves=4, per_wave=3, work=100.0,
                            wave_interval=60.0, include_events=False,
                            meta=meta)

    def test_chaos_campaign_placements_byte_identical(self):
        cached = self._campaign(viable_cache=True)
        uncached = self._campaign(viable_cache=False)
        assert (cached.placement["placements"]
                == uncached.placement["placements"])
        assert cached.to_dict() == uncached.to_dict()
        assert cached.to_json() == uncached.to_json()
