"""Tests for the object runtime: attributes, lifecycle/OPR, RGE, Classes."""

import pytest

from repro.errors import (
    NoImplementationError,
    ObjectStateError,
    UnknownObjectError,
)
from repro.naming import LOID, LOIDMinter
from repro.objects import (
    AttributeDatabase,
    ClassObject,
    Implementation,
    LegionObject,
    ObjectState,
    Placement,
    Trigger,
    TriggerEngine,
)


class TestAttributeDatabase:
    def test_set_get(self):
        db = AttributeDatabase()
        db.set("host_arch", "sparc")
        assert db["host_arch"] == "sparc"
        assert db.get("missing") is None
        assert db.get("missing", 7) == 7

    def test_initial_values(self):
        db = AttributeDatabase({"a": 1, "b": [1, 2]})
        assert db["a"] == 1 and db["b"] == [1, 2]

    def test_list_values_checked(self):
        db = AttributeDatabase()
        db.set("archs", ["sparc", "x86"])
        with pytest.raises(TypeError):
            db.set("bad", [{"nested": "dict"}])

    def test_unsupported_value_rejected(self):
        db = AttributeDatabase()
        with pytest.raises(TypeError):
            db.set("bad", {"a": 1})

    def test_bad_name_rejected(self):
        db = AttributeDatabase()
        with pytest.raises(TypeError):
            db.set("", 1)
        with pytest.raises(TypeError):
            db.set(123, 1)

    def test_update_and_delete(self):
        db = AttributeDatabase()
        db.update({"x": 1, "y": 2})
        assert len(db) == 2
        db.delete("x")
        assert "x" not in db
        db.delete("x")  # idempotent

    def test_update_is_atomic(self):
        db = AttributeDatabase({"a": 0})
        with pytest.raises(TypeError):
            db.update({"a": 1, "b": 2, "c": object()}, now=9.0)
        assert db.snapshot() == {"a": 0}
        assert db.updated_at("a") == 0.0 and db.last_update == 0.0

    @pytest.mark.parametrize("name,value", [
        ("", 1), (123, 1),                     # bad names
        ("nested", [[1, 2]]),                  # nested list
        ("element", [1, {"a": 1}]),            # non-scalar element
        ("mapping", {"a": 1}), ("none", None),  # unsupported types
    ])
    def test_update_rejects_what_set_rejects(self, name, value):
        db = AttributeDatabase()
        with pytest.raises(TypeError) as from_set:
            db.set(name, value)
        with pytest.raises(TypeError) as from_update:
            db.update({"ok": 1, name: value})
        assert str(from_update.value) == str(from_set.value)
        assert len(db) == 0

    def test_update_copies_list_values(self):
        db = AttributeDatabase()
        vaults = ["v1"]
        db.update({"vaults": vaults, "as_tuple": ("a", "b")}, now=3.0)
        vaults.append("v2")
        assert db["vaults"] == ["v1"] and db["as_tuple"] == ["a", "b"]
        assert db.updated_at("vaults") == db.last_update == 3.0

    def test_timestamps(self):
        db = AttributeDatabase()
        db.set("a", 1, now=5.0)
        db.set("b", 2, now=9.0)
        assert db.updated_at("a") == 5.0
        assert db.updated_at("missing") == 0.0
        assert db.last_update == 9.0

    def test_snapshot_is_isolated(self):
        db = AttributeDatabase()
        db.set("lst", [1, 2])
        snap = db.snapshot()
        snap["lst"].append(3)
        assert db["lst"] == [1, 2]

    @staticmethod
    def assert_snapshot_copies_lists(db):
        """Every snapshot value equals the stored one, and every list in
        it is a copy of its own: changing one changes nothing else."""
        snap, again = db.snapshot(), db.snapshot()
        assert snap == dict(db.items())
        for name, value in db.items():
            if isinstance(value, list):
                assert snap[name] is not value
                assert snap[name] is not again[name]
                snap[name].append("extra")
                assert db[name] == again[name] != snap[name]

    def test_snapshot_copies_lists_after_every_write(self):
        db = AttributeDatabase({"a": 1, "v": ["x"], "t": ("p", "q")})
        self.assert_snapshot_copies_lists(db)
        db.set("w", ["y"])
        self.assert_snapshot_copies_lists(db)
        db.update({"u": ["z"], "n": 2})
        self.assert_snapshot_copies_lists(db)
        db.delete("v")
        self.assert_snapshot_copies_lists(db)
        db.set("v", 3)
        self.assert_snapshot_copies_lists(db)
        assert db.snapshot()["v"] == 3

    def test_snapshot_follows_a_name_flipping_between_list_and_scalar(self):
        db = AttributeDatabase()
        db.set("v", ["x"])
        db.update({"v": 5})
        assert db.snapshot() == {"v": 5}
        db.update({"v": ["y"]})
        self.assert_snapshot_copies_lists(db)
        db.set("v", "s")
        assert db.snapshot() == {"v": "s"}
        db.set("v", ("p",))
        assert db.snapshot() == {"v": ["p"]}
        self.assert_snapshot_copies_lists(db)

    def test_tuple_is_stored_as_a_list(self):
        db = AttributeDatabase({"t": ("a", "b")})
        db.set("s", ("c",))
        assert type(db["t"]) is list and type(db["s"]) is list
        self.assert_snapshot_copies_lists(db)

    def test_failed_update_leaves_list_bookkeeping_untouched(self):
        db = AttributeDatabase({"v": ["x"], "a": 1})
        before = db.snapshot()
        for bad in ({"v": 7, "w": ["y"], "bad": object()},
                    {"a": ["z"], "bad": [{}]}):
            with pytest.raises(TypeError):
                db.update(bad, now=9.0)
            assert db.snapshot() == before
            assert db.updated_at("v") == db.last_update == 0.0
            self.assert_snapshot_copies_lists(db)
            assert db.snapshot() == before

    def test_iteration_and_names(self):
        db = AttributeDatabase({"b": 1, "a": 2})
        assert db.names() == ["a", "b"]
        assert set(db) == {"a", "b"}
        assert dict(db.items()) == {"b": 1, "a": 2}


class TestLifecycle:
    def make(self):
        return LegionObject(LOID(("d", "obj", "o1")), LOID(("d", "class",
                                                            "C")))

    def test_starts_active(self):
        obj = self.make()
        assert obj.is_active
        assert obj.state == ObjectState.ACTIVE

    def test_deactivate_produces_opr_and_inert(self):
        obj = self.make()
        opr = obj.deactivate(now=3.0)
        assert obj.state == ObjectState.INERT
        assert opr.loid == obj.loid
        assert opr.saved_at == 3.0
        assert obj.host_loid is None

    def test_double_deactivate_rejected(self):
        obj = self.make()
        obj.deactivate()
        with pytest.raises(ObjectStateError):
            obj.deactivate()

    def test_reactivate_round_trip(self):
        class Stateful(LegionObject):
            def __init__(self, *a):
                super().__init__(*a)
                self.counter = 0

            def save_state(self):
                return {"counter": self.counter}

            def restore_state(self, state):
                self.counter = state["counter"]

        obj = Stateful(LOID(("d", "obj", "s")), LOID(("d", "class", "C")))
        obj.counter = 41
        opr = obj.deactivate()
        obj.counter = 0
        host, vault = LOID(("d", "host", "h")), LOID(("d", "vault", "v"))
        obj.reactivate(opr, host, vault, now=10.0)
        assert obj.counter == 41
        assert obj.is_active
        assert obj.host_loid == host and obj.vault_loid == vault
        assert obj.activation_count == 2

    def test_reactivate_wrong_opr_rejected(self):
        a, b = self.make(), LegionObject(LOID(("d", "obj", "o2")))
        opr = a.deactivate()
        b.deactivate()
        with pytest.raises(ObjectStateError):
            b.reactivate(opr, LOID(("d", "host", "h")),
                         LOID(("d", "vault", "v")))

    def test_reactivate_active_rejected(self):
        obj = self.make()
        opr = obj.make_opr()
        with pytest.raises(ObjectStateError):
            obj.reactivate(opr, LOID(("d", "host", "h")),
                           LOID(("d", "vault", "v")))

    def test_migration_counter(self):
        obj = self.make()
        h1, h2 = LOID(("d", "host", "h1")), LOID(("d", "host", "h2"))
        v = LOID(("d", "vault", "v"))
        obj.host_loid = h1
        opr = obj.deactivate()
        # deactivate clears host_loid, so pre-set it to simulate prior home
        obj.host_loid = h1
        obj.reactivate(opr, h2, v)
        assert obj.migration_count == 1

    def test_kill_is_terminal(self):
        obj = self.make()
        obj.kill()
        assert obj.state == ObjectState.DEAD
        with pytest.raises(ObjectStateError):
            obj.make_opr()
        with pytest.raises(ObjectStateError):
            obj.deactivate()

    def test_opr_versions_increment(self):
        obj = self.make()
        assert obj.make_opr().version == 1
        assert obj.make_opr().version == 2

    def test_opr_clone_is_deep(self):
        obj = self.make()
        opr = obj.make_opr()
        opr.state["k"] = [1]
        clone = opr.clone()
        clone.state["k"].append(2)
        assert opr.state["k"] == [1]


class TestRGE:
    def test_edge_trigger_fires_once_per_transition(self):
        class Box:
            value = 0
        box = Box()
        engine = TriggerEngine(box)
        engine.define_trigger("high", lambda b: b.value > 5)
        assert engine.poll(0.0) == []
        box.value = 10
        assert len(engine.poll(1.0)) == 1
        assert engine.poll(2.0) == []           # still high: no refire
        box.value = 0
        engine.poll(3.0)
        box.value = 10
        assert len(engine.poll(4.0)) == 1       # re-armed after falling

    def test_level_trigger_fires_every_poll(self):
        class Box:
            value = 10
        engine = TriggerEngine(Box())
        engine.define_trigger("high", lambda b: b.value > 5,
                              edge_triggered=False)
        assert len(engine.poll(0.0)) == 1
        assert len(engine.poll(1.0)) == 1

    def test_min_interval_rate_limits(self):
        class Box:
            value = 10
        engine = TriggerEngine(Box())
        engine.define_trigger("high", lambda b: b.value > 5,
                              edge_triggered=False, min_interval=10.0)
        assert len(engine.poll(0.0)) == 1
        assert len(engine.poll(5.0)) == 0
        assert len(engine.poll(10.0)) == 1

    def test_outcalls_invoked_with_firing(self):
        class Box:
            value = 10
        engine = TriggerEngine(Box())
        engine.define_trigger("high", lambda b: b.value > 5)
        got = []
        engine.register_outcall("high", lambda f: got.append(f))
        engine.poll(2.0, extra="info")
        assert len(got) == 1
        assert got[0].event_name == "high"
        assert got[0].time == 2.0
        assert got[0].details == {"extra": "info"}

    def test_outcall_errors_isolated(self):
        class Box:
            value = 10
        engine = TriggerEngine(Box())
        engine.define_trigger("high", lambda b: b.value > 5)
        good = []
        engine.register_outcall("high", lambda f: 1 / 0)
        engine.register_outcall("high", lambda f: good.append(1))
        engine.poll(0.0)
        assert good == [1]
        assert engine.failed_outcalls == 1

    def test_unregister_outcall(self):
        class Box:
            value = 10
        engine = TriggerEngine(Box())
        engine.define_trigger("high", lambda b: b.value > 5)
        got = []
        cb = lambda f: got.append(1)
        engine.register_outcall("high", cb)
        engine.unregister_outcall("high", cb)
        engine.poll(0.0)
        assert got == []

    def test_guard_must_be_callable(self):
        with pytest.raises(TypeError):
            Trigger("x", "not callable")

    def test_outcall_must_be_callable(self):
        engine = TriggerEngine(object())
        with pytest.raises(TypeError):
            engine.register_outcall("x", 42)

    def test_fire_count(self):
        class Box:
            value = 10
        engine = TriggerEngine(Box())
        trig = engine.define_trigger("high", lambda b: b.value > 5,
                                     edge_triggered=False)
        for t in range(5):
            engine.poll(float(t))
        assert trig.fire_count == 5
        assert len(engine.firings) == 5


class TestImplementation:
    def test_matches(self):
        impl = Implementation("sparc", "SunOS")
        assert impl.matches("sparc", "SunOS")
        assert not impl.matches("x86", "SunOS")
        assert not impl.matches("sparc", "Linux")


class TestClassObject:
    def make_class(self, resolver=lambda loid: None, impls=None,
                   placer=None):
        minter = LOIDMinter()
        return ClassObject(
            minter.mint("class", "C"), "C", minter, resolver,
            implementations=impls or [Implementation("sparc", "SunOS")],
            default_placer=placer)

    def test_implementation_queries(self):
        cls = self.make_class()
        assert len(cls.get_implementations()) == 1
        assert cls.supports_platform("sparc", "SunOS")
        assert not cls.supports_platform("x86", "Linux")
        assert cls.implementation_for("sparc", "SunOS").arch == "sparc"
        with pytest.raises(NoImplementationError):
            cls.implementation_for("vax", "VMS")

    def test_resource_requirements(self):
        cls = self.make_class(impls=[
            Implementation("sparc", "SunOS", memory_mb=64.0),
            Implementation("x86", "Linux", memory_mb=32.0)])
        assert cls.resource_requirements()["memory_mb"] == 32.0

    def test_no_placement_no_placer_fails(self):
        cls = self.make_class()
        result = cls.create_instance()
        assert not result.ok
        assert "default placer" in result.reason
        assert cls.create_failures == 1

    def test_unknown_host_fails(self):
        cls = self.make_class(resolver=lambda loid: None)
        placement = Placement(LOID(("d", "host", "h")),
                              LOID(("d", "vault", "v")))
        result = cls.create_instance(placement)
        assert not result.ok and "unknown host" in result.reason

    def test_platform_mismatch_fails(self):
        class FakeHost:
            def __init__(self):
                from repro.objects import AttributeDatabase
                self.attributes = AttributeDatabase(
                    {"host_arch": "vax", "host_os_name": "VMS"})
        host = FakeHost()
        cls = self.make_class(resolver=lambda loid: host)
        result = cls.create_instance(
            Placement(LOID(("d", "host", "h")), LOID(("d", "vault", "v"))))
        assert not result.ok and "no implementation" in result.reason

    def test_get_instance_unknown(self):
        cls = self.make_class()
        with pytest.raises(UnknownObjectError):
            cls.get_instance(LOID(("d", "class", "C", "i9")))


class TestClassWithRealHost:
    def test_create_and_destroy_on_host(self, meta, app_class):
        host = meta.hosts[0]
        vault = meta.vaults[0]
        placement = Placement(host.loid, vault.loid)
        result = app_class.create_instance(placement)
        assert result.ok
        assert result.loid in app_class.instances
        assert len(host.placed) == 1
        app_class.destroy_instance(result.loid)
        assert result.loid not in app_class.instances
        assert len(host.placed) == 0

    def test_default_placer_used_when_no_placement(self, meta, app_class):
        result = app_class.create_instance()
        assert result.ok
        instance = app_class.get_instance(result.loid)
        assert instance.host_loid is not None

    def test_active_instances(self, meta, app_class):
        host, vault = meta.hosts[0], meta.vaults[0]
        r1 = app_class.create_instance(Placement(host.loid, vault.loid))
        r2 = app_class.create_instance(Placement(host.loid, vault.loid))
        assert len(app_class.active_instances()) == 2
        app_class.get_instance(r1.loid).kill()
        assert len(app_class.active_instances()) == 1
        assert r2.loid in {o.loid for o in app_class.active_instances()}
