"""Tests for the Metasystem facade and the Fig. 1 core-object hierarchy."""

import pytest

from repro import Implementation, MachineSpec, Metasystem, ObjectClassRequest
from repro.errors import UnknownObjectError


class TestBootstrap:
    def test_context_space_bindings(self, meta, app_class):
        assert meta.context.exists("/etc/Collection")
        assert meta.context.exists("/hosts/ws0")
        assert meta.context.exists("/vaults/uva-vault")
        assert meta.context.exists("/classes/App")

    def test_fig1_hierarchy_host_and_vault_guardians(self, meta, app_class):
        # every host/vault/class LOID resolves to a live object
        for path, loid in meta.context.walk():
            assert meta.resolve(loid) is not None, path
        # instance LOIDs nest under their class (Fig. 1 tree shape)
        result = app_class.create_instance()
        assert result.ok
        assert result.loid.is_descendant_of(app_class.loid)

    def test_resolver_strict(self, meta):
        with pytest.raises(UnknownObjectError):
            meta.resolve_strict(meta.minter.mint("host", "ghost"))

    def test_host_by_name(self, meta):
        host = meta.host_by_name("ws0")
        assert host.machine.name == "ws0"

    def test_hosts_joined_collection_at_creation(self, meta):
        assert len(meta.collection) == len(meta.hosts)

    def test_vault_added_after_host_becomes_compatible(self):
        m = Metasystem(seed=1)
        m.add_domain("d")
        host = m.add_unix_host("h0", "d",
                               MachineSpec(arch="sparc", os_name="SunOS"))
        assert host.get_compatible_vaults() == []
        vault = m.add_vault("d")
        assert vault.loid in host.get_compatible_vaults()
        # and the Collection record reflects it immediately
        record = m.collection.record_of(host.loid)
        assert str(vault.loid) in record.attributes["compatible_vaults"]

    def test_unknown_scheduler_kind(self, meta):
        with pytest.raises(ValueError):
            meta.make_scheduler("magic")

    def test_unknown_queue_kind(self, meta):
        with pytest.raises(ValueError):
            meta.add_batch_host("c", "uva", queue_kind="mystery")

    def test_advance_moves_clock(self, meta):
        t0 = meta.now
        meta.advance(123.0)
        assert meta.now == t0 + 123.0

    def test_snapshot_loads(self, meta):
        loads = meta.snapshot_loads()
        assert set(loads) == {"ws0", "ws1", "ws2", "ws3"}


class TestServicePlacement:
    def test_place_collection_charges_queries(self, meta, app_class):
        sched_free = meta.make_scheduler("random")
        t0 = meta.now
        sched_free.viable_hosts(app_class)
        free_cost = meta.now - t0

        meta.place_collection("uva")
        sched = meta.make_scheduler("random")
        t0 = meta.now
        sched.viable_hosts(app_class)
        charged_cost = meta.now - t0
        assert charged_cost > free_cost

    def test_place_enactor(self, meta):
        loc = meta.place_enactor("uva")
        assert meta.enactor.location == loc
        assert meta.enactor.coallocator.src == loc


class TestDeterminism:
    def build_and_run(self, seed):
        m = Metasystem(seed=seed)
        m.add_domain("d")
        for i in range(4):
            m.add_unix_host(f"h{i}", "d",
                            MachineSpec(arch="sparc", os_name="SunOS"))
        m.add_vault("d")
        app = m.create_class("A", [Implementation("sparc", "SunOS")],
                             work_units=100.0)
        sched = m.make_scheduler("random")
        outcome = sched.run([ObjectClassRequest(app, 3)])
        hosts = sorted(str(x) for x in
                       (mp.host_loid for mp in
                        outcome.feedback.reserved_entries))
        return hosts, m.now

    def test_identical_seeds_identical_runs(self):
        assert self.build_and_run(5) == self.build_and_run(5)

    def test_different_seeds_differ(self):
        # times will differ even if the host picks happen to coincide
        a = self.build_and_run(1)
        b = self.build_and_run(2)
        assert a != b


class TestLayersReachLateHosts:
    """A host added after the per-host layers are enabled gets the same
    wiring as a host that was there when they were enabled."""

    def wiring(self, meta, host):
        from repro.objects.base import LegionObject
        guard, econ = meta.guardrails, meta.economy
        app = meta.classes["App"]
        instance = LegionObject(meta.minter.mint("inst", host.machine.name),
                                app.loid)
        before = len(econ.ledger.records)
        host.billing(instance, 10.0)
        billed = econ.ledger.records[before:]
        return {
            "watched": str(host.loid) in guard.monitor.snapshot(),
            "heard": guard.monitor.snapshot()[str(host.loid)]["last_seen"]
            == meta.now,
            "admission": host.admission is guard.admission,
            "ledger": [(r.host_loid, r.instance_loid) for r in billed]
            == [(host.loid, instance.loid)],
            "market": host.attributes.get("host_ask_price")
            == econ.market.base_ask_for(host),
        }

    def test_late_host_is_wired_like_an_early_one(self):
        meta = Metasystem(seed=3)
        meta.add_domain("uva")
        spec = MachineSpec(arch="sparc", os_name="SunOS")
        early = meta.add_unix_host("early", "uva", spec)
        meta.add_vault("uva")
        meta.create_class("App", [Implementation("sparc", "SunOS")])
        meta.enable_guardrails()
        meta.enable_economy()
        late = meta.add_unix_host("late", "uva", spec)
        assert meta.guardrails.monitor.watched() == 2
        assert len(meta.economy.market) == 2
        meta.advance(meta.reassess_interval)
        expected = dict.fromkeys(
            ("watched", "heard", "admission", "ledger", "market"), True)
        assert self.wiring(meta, early) == expected
        assert self.wiring(meta, late) == expected
