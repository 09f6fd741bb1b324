"""The federated Collection subsystem: ring, shards, router, gossip.

Covers the acceptance criteria of the federation PR: placement
equivalence with the monolithic Collection when every shard is healthy,
graceful degradation (partial scatter-gather results) when a shard is
unreachable, gossip repair after downtime, and the ring's balance /
minimal-disruption properties (property-based).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_reads import reading
from repro import (
    FederationConfig,
    Metasystem,
    MachineSpec,
    ObjectClassRequest,
)
from repro.collection.collection import Collection
from repro.errors import (
    AuthenticationError,
    HostUnreachableError,
    NotAMemberError,
)
from repro.federation.ring import ConsistentHashRing
from repro.federation.router import FederatedCollection
from repro.federation.shard import CollectionShard
from repro.naming.loid import LOID
from repro.obs import NULL_METRICS
from repro.workload import (
    TestbedSpec,
    build_testbed,
    implementations_for_all_platforms,
)


def loid(name):
    return LOID(("test", "host", name))


def federated_testbed(seed=5, shards=3, replication=2, gossip=0.0,
                      cache_ttl=0.0, load=0.4):
    return build_testbed(TestbedSpec(
        n_domains=2, hosts_per_domain=4, platform_mix=2,
        background_load_mean=load, seed=seed,
        federation_shards=shards, federation_replication=replication,
        gossip_interval=gossip, federation_cache_ttl=cache_ttl))


# ---------------------------------------------------------------------------
# ring
# ---------------------------------------------------------------------------
class TestRing:
    def test_deterministic_across_instances(self):
        a = ConsistentHashRing(seed=3)
        b = ConsistentHashRing(seed=3)
        for name in ("s0", "s1", "s2"):
            a.add_shard(name)
        for name in ("s2", "s0", "s1"):  # insertion order must not matter
            b.add_shard(name)
        keys = [f"loid:test.host.h{i}" for i in range(100)]
        assert [a.preference_list(k, 2) for k in keys] == \
               [b.preference_list(k, 2) for k in keys]

    def test_seed_changes_layout(self):
        a = ConsistentHashRing(seed=1)
        b = ConsistentHashRing(seed=2)
        for ring in (a, b):
            for name in ("s0", "s1", "s2"):
                ring.add_shard(name)
        keys = [f"k{i}" for i in range(200)]
        assert [a.owner(k) for k in keys] != [b.owner(k) for k in keys]

    def test_preference_list_distinct_and_clamped(self):
        ring = ConsistentHashRing(seed=0)
        ring.add_shard("s0")
        ring.add_shard("s1")
        plist = ring.preference_list("some-key", 5)
        assert sorted(plist) == ["s0", "s1"]  # clamped to shard count
        assert len(set(plist)) == len(plist)

    def test_remove_shard(self):
        ring = ConsistentHashRing(seed=0)
        for name in ("s0", "s1", "s2"):
            ring.add_shard(name)
        ring.remove_shard("s1")
        assert ring.shards() == ["s0", "s2"]
        for i in range(50):
            assert ring.owner(f"k{i}") != "s1"

    def test_duplicate_and_unknown_shards_rejected(self):
        ring = ConsistentHashRing(seed=0)
        ring.add_shard("s0")
        with pytest.raises(ValueError):
            ring.add_shard("s0")
        with pytest.raises(ValueError):
            ring.remove_shard("nope")

    @settings(max_examples=25, deadline=None)
    @given(n_shards=st.integers(min_value=2, max_value=8),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_balance_bounded(self, n_shards, seed):
        """Max/min home-shard load ratio stays bounded with vnodes."""
        ring = ConsistentHashRing(seed=seed, vnodes=128)
        for i in range(n_shards):
            ring.add_shard(f"s{i}")
        counts = {f"s{i}": 0 for i in range(n_shards)}
        for k in range(3000):
            counts[ring.owner(f"loid:test.host.h{k}")] += 1
        expected = 3000 / n_shards
        # every shard gets real load, and none more than ~2.2x its share
        assert min(counts.values()) > 0.35 * expected
        assert max(counts.values()) < 2.2 * expected

    @settings(max_examples=25, deadline=None)
    @given(n_shards=st.integers(min_value=2, max_value=6),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_minimal_disruption_on_join(self, n_shards, seed):
        """Adding a shard only moves keys *onto* the new shard."""
        ring = ConsistentHashRing(seed=seed, vnodes=64)
        for i in range(n_shards):
            ring.add_shard(f"s{i}")
        keys = [f"k{i}" for i in range(500)]
        before = {k: ring.owner(k) for k in keys}
        ring.add_shard("new")
        moved = 0
        for k in keys:
            after = ring.owner(k)
            if after != before[k]:
                assert after == "new", \
                    f"{k} moved {before[k]} -> {after}, not to the joiner"
                moved += 1
        # the new shard picks up roughly its fair share, not everything
        assert moved < len(keys) * 2.5 / (n_shards + 1)

    @settings(max_examples=25, deadline=None)
    @given(n_shards=st.integers(min_value=3, max_value=6),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_minimal_disruption_on_leave(self, n_shards, seed):
        """Removing a shard only remaps the keys it owned."""
        ring = ConsistentHashRing(seed=seed, vnodes=64)
        for i in range(n_shards):
            ring.add_shard(f"s{i}")
        keys = [f"k{i}" for i in range(500)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove_shard("s0")
        for k in keys:
            if before[k] != "s0":
                assert ring.owner(k) == before[k]


# ---------------------------------------------------------------------------
# router: Fig. 4 interface parity
# ---------------------------------------------------------------------------
class TestFederatedInterface:
    def make_meta(self, **kwargs):
        m = Metasystem(seed=7, federation=FederationConfig(
            shards=3, replication=2, gossip_interval=0.0, **kwargs))
        m.add_domain("uva")
        return m

    def test_join_update_query_leave(self):
        m = self.make_meta()
        coll = m.collection
        cred = coll.join(loid("h1"), {"host_load": 1.0})
        assert loid("h1") in coll
        assert len(coll) == 1
        coll.update_entry(loid("h1"), {"host_load": 2.0}, cred)
        records = coll.query("$host_load >= 2")
        assert [r.member for r in records] == [loid("h1")]
        coll.leave(loid("h1"), cred)
        assert loid("h1") not in coll
        with pytest.raises(NotAMemberError):
            coll.record_of(loid("h1"))

    def test_update_requires_credential(self):
        m = self.make_meta()
        coll = m.collection
        coll.join(loid("h1"), {"x": 1})
        with pytest.raises(AuthenticationError):
            coll.update_entry(loid("h1"), {"x": 2}, None)
        other = coll.join(loid("h2"))
        with pytest.raises(AuthenticationError):
            coll.update_entry(loid("h1"), {"x": 2}, other)

    def test_records_replicated(self):
        m = self.make_meta()
        coll = m.collection
        coll.join(loid("h1"), {"x": 1})
        holders = [s for s in m.collection_shards
                   if loid("h1") in s.collection]
        assert len(holders) == 2  # replication factor
        assert {s.shard_id for s in holders} == \
               set(coll.ring.preference_list(str(loid("h1")), 2))

    def test_query_dedups_replicas(self):
        m = self.make_meta()
        coll = m.collection
        for i in range(10):
            coll.join(loid(f"h{i}"), {"x": i})
        records = coll.query("$x >= 0")
        assert len(records) == 10  # each member once despite 2 replicas
        assert [r.member for r in records] == sorted(r.member
                                                     for r in records)

    def test_computed_attributes_reach_shards(self):
        m = self.make_meta()
        coll = m.collection
        coll.join(loid("h1"), {"base": 2.0})
        coll.inject_attribute("doubled", lambda attrs: attrs["base"] * 2)
        records = coll.query("$doubled == 4")
        assert len(records) == 1
        assert coll.record_attr(records[0], "doubled") == 4.0

    def test_mean_staleness_matches_monolith_shape(self):
        m = self.make_meta()
        coll = m.collection
        assert math.isnan(coll.mean_staleness())
        coll.join(loid("h1"))
        assert coll.mean_staleness() == 0.0


# ---------------------------------------------------------------------------
# equivalence + degradation (the acceptance criteria)
# ---------------------------------------------------------------------------
class TestEquivalenceAndDegradation:
    def run_workload(self, shards):
        meta = federated_testbed(seed=11, shards=shards)
        app = meta.create_class("app", implementations_for_all_platforms(),
                                work_units=100.0)
        outcome = meta.make_scheduler("irs").run(
            [ObjectClassRequest(app, count=4)])
        return meta, outcome

    def test_identical_placements_when_healthy(self):
        _, mono = self.run_workload(shards=0)
        _, fed = self.run_workload(shards=3)
        assert mono.ok and fed.ok
        assert [str(c) for c in mono.created] == \
               [str(c) for c in fed.created]
        assert [str(e) for e in mono.feedback.reserved_entries] == \
               [str(e) for e in fed.feedback.reserved_entries]

    def test_query_results_match_monolith(self):
        meta_m, _ = self.run_workload(shards=0)
        meta_f, _ = self.run_workload(shards=3)
        q = "$host_up == true"
        mono = [(str(r.member), sorted(r.attributes))
                for r in meta_m.collection.query(q)]
        fed = [(str(r.member), sorted(r.attributes))
               for r in meta_f.collection.query(q)]
        assert mono == fed

    def test_placements_complete_with_shard_down(self):
        meta = federated_testbed(seed=11, shards=3)
        meta.collection.set_shard_down("shard1")
        app = meta.create_class("app", implementations_for_all_platforms(),
                                work_units=100.0)
        outcome = meta.make_scheduler("random").run(
            [ObjectClassRequest(app, count=3)])
        assert outcome.ok  # degraded, not failed
        assert meta.collection.partial_queries > 0
        assert meta.collection.healthy_shards() == ["shard0", "shard2"]

    def test_replication_covers_single_shard_loss(self):
        meta = federated_testbed(seed=11, shards=3, replication=2)
        full = {str(r.member)
                for r in meta.collection.query("$host_up == true")}
        meta.collection.set_shard_down("shard0")
        partial = {str(r.member)
                   for r in meta.collection.query("$host_up == true")}
        assert partial == full  # R=2 ⇒ one lost shard loses no records

    def test_all_shards_down_raises(self):
        meta = federated_testbed(seed=11, shards=3)
        for shard in meta.collection_shards:
            meta.collection.set_shard_down(shard.shard_id)
        with pytest.raises(HostUnreachableError):
            meta.collection.query("$host_up == true")

    def test_writes_survive_home_shard_down(self):
        m = Metasystem(seed=7, federation=(3, 2))
        m.add_domain("uva")
        coll = m.collection
        member = loid("h1")
        home = coll.home_shard(member).shard_id
        coll.set_shard_down(home)
        cred = coll.join(member, {"x": 1})  # lands on the replica
        coll.update_entry(member, {"x": 2}, cred)
        coll.set_shard_down(home, down=False)
        assert coll.record_of(member).attributes["x"] == 2


# ---------------------------------------------------------------------------
# located shards: charged messages + topology faults
# ---------------------------------------------------------------------------
class TestLocatedShards:
    def test_place_federation_and_topology_fault(self):
        m = Metasystem(seed=3, federation=(3, 2),
                       require_collection_auth=False)
        m.add_domain("uva")
        m.add_domain("nasa")
        locations = m.place_federation()
        assert len(locations) == 3
        for i in range(6):
            m.add_unix_host(f"ws{i}", "uva",
                            MachineSpec(arch="sparc", os_name="SunOS"))
        sent_before = m.transport.messages_sent
        results = m.collection.query("$host_up == true")
        assert len(results) == 6
        assert m.transport.messages_sent > sent_before  # charged scatter
        # fail one shard node through the topology: degrade, don't fail
        m.topology.set_node_down(m.collection_shards[0].location)
        partial = m.collection.query("$host_up == true")
        assert len(partial) == 6  # replicas cover the loss
        assert m.collection.partial_queries == 1

    def test_total_loss_window_is_repaired_by_the_next_push(self):
        """Every replica write of the reassessment pushes is lost for a
        while: the world advances without raising, and the first
        reassessment after the window brings every replica of each
        host's record back to the host's attributes."""
        meta = federated_testbed(seed=11, shards=3, replication=2)
        meta.place_federation()
        meta.advance(60.0)

        def stale_replicas():
            return [(host.machine.name, shard.shard_id)
                    for host in meta.hosts
                    for shard in meta.collection.replicas_for(host.loid)
                    if not shard.collection.record_of(host.loid).covers(
                        host.attributes.snapshot())]

        assert stale_replicas() == []
        meta.transport.push_loss_spike(1.0)
        meta.advance(120.0)  # four reassessment ticks, every push lost
        assert stale_replicas()
        meta.transport.pop_loss_spike(1.0)
        meta.advance(meta.reassess_interval)
        assert stale_replicas() == []


# ---------------------------------------------------------------------------
# gossip anti-entropy
# ---------------------------------------------------------------------------
class TestGossip:
    def test_gossip_repairs_missed_writes(self):
        meta = federated_testbed(seed=11, shards=3, replication=2,
                                 gossip=30.0, load=0.0)
        coll = meta.collection
        member = meta.hosts[0].loid
        replicas = coll.replicas_for(member)
        victim = replicas[1]
        victim_records = victim.collection
        # the replica goes down; the host pushes a fresh update
        coll.set_shard_down(victim.shard_id)
        cred = meta._host_credentials[member]
        coll.update_entry(member, {"marker": 42}, cred)
        home_version = replicas[0].collection.record_of(member).version()
        assert victim_records.record_of(member).version() < home_version
        assert "marker" not in victim_records.record_of(member).attributes
        # replica recovers; only anti-entropy can deliver the missed
        # "marker" attribute (periodic host pushes don't carry it)
        coll.set_shard_down(victim.shard_id, down=False)
        meta.advance(200.0)
        assert victim_records.record_of(member).attributes["marker"] == 42
        assert victim_records.record_of(member).version() == \
               replicas[0].collection.record_of(member).version()
        assert meta.gossip.records_exchanged > 0
        assert meta.gossip.bytes_exchanged > 0

    def test_gossip_converges_without_churn(self):
        meta = federated_testbed(seed=11, shards=3, replication=2,
                                 gossip=10.0, load=0.0)
        meta.advance(100.0)
        exchanged_once = meta.gossip.records_exchanged
        rounds_once = meta.gossip.rounds
        meta.advance(100.0)
        # synchronous replication keeps replicas in agreement, so the
        # pull-based delta exchange ships nothing round after round
        assert meta.gossip.rounds > rounds_once
        assert meta.gossip.records_exchanged == exchanged_once
        member = meta.hosts[0].loid
        replica_versions = {
            s.collection.record_of(member).version()
            for s in meta.collection.replicas_for(member)}
        assert len(replica_versions) == 1

    def test_gossip_metrics_exported(self):
        meta = federated_testbed(seed=11, shards=3, gossip=15.0)
        meta.advance(100.0)
        assert "federation_gossip_rounds_total" in meta.metrics
        assert "federation_gossip_bytes_total" in meta.metrics
        assert reading(meta.metrics, "federation_gossip_rounds_total") >= 6


# ---------------------------------------------------------------------------
# query cache
# ---------------------------------------------------------------------------
class TestQueryCache:
    def test_cache_hit_within_ttl(self):
        meta = federated_testbed(seed=11, shards=3, cache_ttl=60.0)
        coll = meta.collection
        q = "$host_up == true"
        first = coll.query(q)
        count_before = reading(meta.metrics,
                               "federation_shard_queries_total")
        second = coll.query(q)
        count_after = reading(meta.metrics, "federation_shard_queries_total")
        assert count_after == count_before  # served from cache
        assert [r.member for r in first] == [r.member for r in second]
        assert coll.cache_stats()["hit"] == 1

    def test_cache_expires_after_ttl(self):
        meta = federated_testbed(seed=11, shards=3, cache_ttl=5.0)
        coll = meta.collection
        q = "$host_up == true"
        coll.query(q)
        meta.advance(30.0)
        coll.query(q)
        stats = coll.cache_stats()
        assert stats["expired"] == 1
        assert stats["hit"] == 0

    def test_partial_results_not_cached(self):
        meta = federated_testbed(seed=11, shards=3, cache_ttl=60.0)
        coll = meta.collection
        coll.set_shard_down("shard0")
        q = "$host_up == true"
        coll.query(q)
        coll.set_shard_down("shard0", down=False)
        coll.query(q)
        # second query re-scattered (no hit recorded for a partial)
        assert coll.cache_stats()["hit"] == 0

    def test_stats_do_not_depend_on_telemetry(self):
        """A router built with the null registry still counts its own
        cache outcomes: observing must not change what it reports."""
        ring = ConsistentHashRing(seed=0)
        shards = []
        for i in range(2):
            ring.add_shard(f"s{i}")
            coll = Collection(LOID(("test", "svc", f"s{i}")),
                              require_auth=False)
            shards.append(CollectionShard(f"s{i}", coll, ring, 2))
        router = FederatedCollection(
            LOID(("test", "svc", "router")), shards, ring, 2,
            metrics=NULL_METRICS, require_auth=False, cache_ttl=60.0)
        router.join(loid("h0"), {"host_up": True})
        for _ in range(2):
            assert [r.member for r in router.query("$host_up == true")] \
                == [loid("h0")]
        assert router.cache_stats() == {
            "hit": 1, "miss": 1, "expired": 0, "hit_ratio": 0.5}


# ---------------------------------------------------------------------------
# pull_from idempotence (satellite regression)
# ---------------------------------------------------------------------------
class TestPullIdempotence:
    def fresh_collection(self, meta):
        from repro.collection.collection import Collection
        return Collection(LOID(("test", "svc", "pull")),
                          clock=lambda: meta.now)

    def test_repeated_identical_pull_is_noop(self, meta):
        host = meta.hosts[0]
        coll = self.fresh_collection(meta)
        coll.pull_from(host)
        record = coll.record_of(host.loid)
        version = record.version()
        updated_at = record.updated_at
        meta.advance(50.0)  # static machine: attributes unchanged
        coll.pull_from(host)
        record = coll.record_of(host.loid)
        assert record.version() == version
        assert record.updated_at == updated_at  # no staleness reset
        assert record.staleness(meta.now) >= 50.0

    def test_changed_attributes_still_refresh(self, meta):
        host = meta.hosts[0]
        coll = self.fresh_collection(meta)
        coll.pull_from(host)
        version = coll.record_of(host.loid).version()
        meta.advance(10.0)
        host.machine.set_background_load(3.0)
        host.reassess()
        coll.pull_from(host)
        assert coll.record_of(host.loid).version() > version
        assert coll.record_of(host.loid).attributes["host_load"] >= 3.0
