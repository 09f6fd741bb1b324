"""Tests for the Collection (Fig. 4 interface), push/pull, auth, daemon,
and function injection."""

import pytest

from repro.collection import Collection, DataCollectionDaemon
from repro.economy import Market
from repro.errors import AuthenticationError, NotAMemberError
from repro.federation.sync import GossipDaemon
from repro.naming import LOID
from repro.obs import MetricsRegistry, MetricsSampler
from repro.sim import Simulator


def loid(name):
    return LOID(("d", "host", name))


@pytest.fixture
def coll():
    return Collection(LOID(("d", "svc", "coll")), require_auth=True,
                      clock=lambda: 100.0)


class TestJoinLeave:
    def test_join_with_initial_attributes(self, coll):
        cred = coll.join(loid("h1"), {"host_arch": "sparc"})
        assert loid("h1") in coll
        assert len(coll) == 1
        record = coll.record_of(loid("h1"))
        assert record.attributes["host_arch"] == "sparc"
        assert record.joined_at == 100.0
        assert cred.member == loid("h1")

    def test_join_without_attributes(self, coll):
        coll.join(loid("h2"))
        assert coll.record_of(loid("h2")).attributes == {}

    def test_rejoin_refreshes(self, coll):
        coll.join(loid("h1"), {"a": 1})
        coll.join(loid("h1"), {"b": 2})
        record = coll.record_of(loid("h1"))
        assert record.attributes == {"a": 1, "b": 2}
        assert len(coll) == 1

    def test_leave(self, coll):
        cred = coll.join(loid("h1"))
        coll.leave(loid("h1"), cred)
        assert loid("h1") not in coll

    def test_leave_nonmember(self, coll):
        with pytest.raises(NotAMemberError):
            coll.leave(loid("ghost"))

    def test_members_sorted(self, coll):
        for name in ("z", "a", "m"):
            coll.join(loid(name))
        assert coll.members() == sorted(coll.members())


class TestAuth:
    def test_update_requires_credential(self, coll):
        coll.join(loid("h1"))
        with pytest.raises(AuthenticationError):
            coll.update_entry(loid("h1"), {"x": 1})
        assert coll.auth_failures == 1

    def test_update_with_wrong_member_credential(self, coll):
        coll.join(loid("h1"))
        other_cred = coll.join(loid("h2"))
        with pytest.raises(AuthenticationError):
            coll.update_entry(loid("h1"), {"x": 1}, other_cred)

    def test_update_with_valid_credential(self, coll):
        cred = coll.join(loid("h1"))
        coll.update_entry(loid("h1"), {"x": 1}, cred)
        assert coll.record_of(loid("h1")).attributes["x"] == 1
        assert coll.updates_applied == 1

    def test_foreign_collection_credential_rejected(self, coll):
        other = Collection(LOID(("d", "svc", "other")))
        cred = other.join(loid("h1"))
        coll.join(loid("h1"))
        with pytest.raises(AuthenticationError):
            coll.update_entry(loid("h1"), {"x": 1}, cred)

    def test_bad_credentials_rejected_after_many_valid_pushes(self, coll):
        """The expected MAC is computed once per member; the presented
        credential is still compared on every update and leave."""
        from repro.collection.collection import Credential
        h1, h2 = loid("h1"), loid("h2")
        cred = coll.join(h1)
        other = coll.join(h2)
        for i in range(50):
            coll.update_entry(h1, {"x": i}, cred)
        forged = Credential(h1, bytes(32))
        failures = coll.auth_failures
        for bad in (None, other, forged):
            with pytest.raises(AuthenticationError):
                coll.update_entry(h1, {"x": -1}, bad)
            with pytest.raises(AuthenticationError):
                coll.leave(h1, bad)
        assert coll.auth_failures == failures + 6
        assert coll.record_of(h1).attributes["x"] == 49
        assert coll.record_of(h1).update_count == 50

    def test_old_credential_valid_after_leave_and_rejoin(self, coll):
        h1 = loid("h1")
        cred = coll.join(h1, {"x": 0})
        coll.update_entry(h1, {"x": 1}, cred)
        coll.leave(h1, cred)
        coll.join(h1)
        coll.update_entry(h1, {"x": 2}, cred)
        assert coll.record_of(h1).attributes["x"] == 2

    def test_no_auth_mode(self):
        c = Collection(LOID(("d", "svc", "open")), require_auth=False)
        c.join(loid("h1"))
        c.update_entry(loid("h1"), {"x": 1})  # no credential needed
        assert c.record_of(loid("h1")).attributes["x"] == 1

    def test_update_nonmember(self, coll):
        with pytest.raises(NotAMemberError):
            coll.update_entry(loid("ghost"), {"x": 1})


class TestQuery:
    def fill(self, coll):
        coll.require_auth = False
        coll.join(loid("sun1"), {"host_arch": "sparc",
                                 "host_os_name": "SunOS",
                                 "host_load": 0.5, "host_up": True})
        coll.join(loid("sgi1"), {"host_arch": "mips",
                                 "host_os_name": "IRIX 5.3",
                                 "host_load": 2.0, "host_up": True})
        coll.join(loid("sgi2"), {"host_arch": "mips",
                                 "host_os_name": "IRIX 6.5",
                                 "host_load": 0.1, "host_up": False})

    def test_query_filters(self, coll):
        self.fill(coll)
        assert len(coll.query('$host_arch == "mips"')) == 2
        assert len(coll.query('$host_arch == "mips" and $host_up')) == 1
        assert coll.queries_served == 2

    def test_paper_irix5_query(self, coll):
        self.fill(coll)
        result = coll.query('match($host_os_name, "IRIX") and '
                            'match("5\\..*", $host_os_name)')
        assert [r.member for r in result] == [loid("sgi1")]

    def test_query_loids(self, coll):
        self.fill(coll)
        assert loid("sun1") in coll.query_loids("$host_load < 1.0")

    def test_results_deterministic_order(self, coll):
        self.fill(coll)
        a = [r.member for r in coll.query("true")]
        b = [r.member for r in coll.query("true")]
        assert a == b == sorted(a)

    def test_implicit_loid_attribute(self, coll):
        self.fill(coll)
        result = coll.query('match("sun1", $loid)')
        assert [r.member for r in result] == [loid("sun1")]

    def test_plan_compiled_once_per_query_text(self, coll):
        self.fill(coll)
        coll.query("$host_load < 1")
        coll.query("$host_load < 1")
        assert coll.plans_compiled == 1
        assert len(coll._plan_cache) == 1


class TestPullModel:
    def test_pull_from_object(self, meta):
        host = meta.hosts[0]
        fresh = Collection(LOID(("d", "svc", "c2")),
                           clock=lambda: meta.now)
        fresh.pull_from(host)
        assert host.loid in fresh
        record = fresh.record_of(host.loid)
        assert record.attributes["host_arch"] == "sparc"

    def test_pull_refreshes_existing(self, meta):
        host = meta.hosts[0]
        c = Collection(LOID(("d", "svc", "c3")), clock=lambda: meta.now)
        c.pull_from(host)
        host.machine.set_background_load(3.0)
        host.reassess()
        c.pull_from(host)
        assert c.record_of(host.loid).attributes["host_load"] >= 3.0


class TestStaleness:
    def test_record_staleness(self, coll):
        coll.join(loid("h1"))
        record = coll.record_of(loid("h1"))
        assert record.staleness(150.0) == 50.0
        assert record.staleness(50.0) == 0.0  # clamped

    def test_mean_staleness(self, coll):
        coll.join(loid("h1"))
        coll.join(loid("h2"))
        assert coll.mean_staleness(now=110.0) == pytest.approx(10.0)

    def test_mean_staleness_empty_is_nan(self, coll):
        import math
        assert math.isnan(coll.mean_staleness())


class TestInjection:
    def test_injected_function_usable_in_query(self, coll):
        coll.require_auth = False
        coll.join(loid("h1"), {"host_load": 4.0, "host_speed": 2.0})
        coll.inject_function(
            "effective_rate",
            lambda args, rec: rec.get("host_speed", 1.0)
            / (1.0 + rec.get("host_load", 0.0)))
        assert len(coll.query("effective_rate() > 0.3")) == 1
        assert len(coll.query("effective_rate() > 0.5")) == 0

    def test_computed_attribute(self, coll):
        coll.require_auth = False
        coll.join(loid("h1"), {"host_load": 4.0})
        coll.inject_attribute("predicted_load",
                              lambda rec: rec.get("host_load", 0.0) * 0.5)
        assert len(coll.query("$predicted_load == 2.0")) == 1

    def test_real_attribute_shadows_computed(self, coll):
        coll.require_auth = False
        coll.join(loid("h1"), {"x": 1})
        coll.inject_attribute("x", lambda rec: 99)
        assert len(coll.query("$x == 1")) == 1

    def test_computed_attr_requires_callable(self, coll):
        with pytest.raises(TypeError):
            coll.inject_attribute("bad", 42)


class TestDaemon:
    def test_daemon_sweeps_push_updates(self, meta):
        daemon = meta.make_daemon(interval=10.0)
        host = meta.hosts[0]
        record = meta.collection.record_of(host.loid)
        host._push_targets.clear()   # host no longer pushes on its own
        host.machine.set_background_load(5.0)
        host.reassess()              # refreshes local attributes only
        daemon.sweep()               # the daemon ferries them over
        assert record.attributes["host_load"] >= 5.0
        assert daemon.sweeps == 1

    def test_daemon_periodic_on_simulator(self, meta):
        daemon = meta.make_daemon(interval=10.0)
        daemon.start()
        meta.advance(35.0)
        assert daemon.sweeps == 3
        daemon.stop()
        meta.advance(100.0)
        assert daemon.sweeps == 3

    def test_daemon_start_idempotent(self, meta):
        daemon = meta.make_daemon(interval=10.0)
        daemon.start()
        daemon.start()
        meta.advance(10.5)
        assert daemon.sweeps == 1

    @pytest.mark.parametrize("build, work", [
        (lambda sim: MetricsSampler(sim, MetricsRegistry(), window=10.0),
         "_close_window"),
        (lambda sim: Market(sim, repricing_interval=10.0), "reprice"),
        (lambda sim: GossipDaemon(sim, [None, None], interval=10.0),
         "sweep"),
        (lambda sim: DataCollectionDaemon(sim, [], interval=10.0), "sweep"),
    ], ids=["sampler", "market", "gossip", "collection-daemon"])
    def test_restart_fires_once_per_period(self, build, work):
        """stop() then start() before the stopped daemon's pending firing:
        N periods after the restart give exactly N firings."""
        sim = Simulator()
        daemon = build(sim)
        fired = []
        setattr(daemon, work, lambda *args: fired.append(sim.now))
        daemon.start()
        sim.run_until(5.0)
        daemon.stop()
        sim.run_until(8.0)
        daemon.start()
        sim.run_until(58.0)
        assert fired == [18.0, 28.0, 38.0, 48.0, 58.0]

    def test_daemon_watch_joins_new_source(self, meta):
        c2 = Collection(LOID(("d", "svc", "second")),
                        clock=lambda: meta.now)
        daemon = DataCollectionDaemon(meta.sim, [c2], interval=5.0)
        daemon.watch(meta.hosts[0])
        assert meta.hosts[0].loid in c2

    def test_daemon_interval_validation(self, meta):
        with pytest.raises(ValueError):
            DataCollectionDaemon(meta.sim, [meta.collection], interval=0.0)
