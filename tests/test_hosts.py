"""Tests for Host Objects: the Table 1 interface, policies, and the
attribute push model."""

import pytest

from repro import (
    Implementation,
    MachineSpec,
    Metasystem,
    ONE_SHOT_TIME,
    REUSABLE_TIME,
)
from repro.errors import (
    InvalidReservationError,
    PlacementPolicyError,
    ReservationDeniedError,
    VaultIncompatibleError,
)
from repro.hosts import LoadWalk, UnixHost
from repro.hosts.policy import (
    AcceptAll,
    CompositePolicy,
    DomainBlacklist,
    LoadCeiling,
    PlacementPolicy,
    PriceFloor,
    TimeOfDayWindow,
)
from repro.hosts.policy import PlacementRequest
from repro.objects import LegionObject


@pytest.fixture
def host(meta):
    return meta.hosts[0]


@pytest.fixture
def vault_loid(meta):
    return meta.vaults[0].loid


def make_instance(meta, app_class, work=None):
    loid = meta.minter.mint_instance(app_class.loid)
    obj = LegionObject(loid, app_class.loid)
    if work is not None:
        obj.attributes.set("work_units", work)
    obj.attributes.set("memory_mb", 8.0)
    return obj


class TestReservationInterface:
    def test_make_and_check(self, meta, host, vault_loid, app_class):
        tok = host.make_reservation(vault_loid, app_class.loid)
        assert host.check_reservation(tok)
        host.cancel_reservation(tok)
        assert not host.check_reservation(tok)

    def test_incompatible_vault_refused(self, meta, host, app_class):
        bogus = meta.minter.mint("vault", "elsewhere")
        with pytest.raises(VaultIncompatibleError):
            host.make_reservation(bogus, app_class.loid)

    def test_down_machine_refuses(self, meta, host, vault_loid, app_class):
        host.machine.fail()
        with pytest.raises(ReservationDeniedError):
            host.make_reservation(vault_loid, app_class.loid)

    def test_policy_refusal(self, meta, vault_loid, app_class):
        host = meta.hosts[1]
        host.policy = DomainBlacklist(["evil"])
        with pytest.raises(PlacementPolicyError):
            host.make_reservation(vault_loid, app_class.loid,
                                  requester_domain="evil")
        tok = host.make_reservation(vault_loid, app_class.loid,
                                    requester_domain="good")
        assert tok is not None

    def test_full_slots_refuse_reservations(self, meta, host, vault_loid,
                                            app_class):
        for _ in range(host.slots):
            inst = make_instance(meta, app_class)
            assert host.start_object(inst, vault_loid).ok
        with pytest.raises(ReservationDeniedError):
            host.make_reservation(vault_loid, app_class.loid)


    def test_token_ids_restart_with_each_world(self):
        """Ids are drawn per host, so two identical worlds built one
        after the other in one process issue the same ids, and so the
        same signed fields."""
        def first_two_ids():
            world = Metasystem(seed=7)
            world.add_domain("uva")
            host = world.add_unix_host("ws0", "uva", MachineSpec(), slots=4)
            vault = world.add_vault("uva", name="uva-vault")
            app = world.create_class("App",
                                     [Implementation("sparc", "SunOS")])
            return [host.make_reservation(vault.loid, app.loid).token_id
                    for _ in range(2)]

        assert first_two_ids() == first_two_ids() == [1, 2]


class TestStartObject:
    def test_start_with_token(self, meta, host, vault_loid, app_class):
        tok = host.make_reservation(vault_loid, app_class.loid)
        inst = make_instance(meta, app_class, work=50.0)
        result = host.start_object(inst, vault_loid, tok)
        assert result.ok
        assert inst.loid in host.placed
        assert inst.host_loid == host.loid

    def test_start_without_token_checks_policy(self, meta, vault_loid,
                                               app_class):
        host = meta.hosts[1]
        host.policy = LoadCeiling(max_load=-1.0)  # always refuses
        inst = make_instance(meta, app_class)
        result = host.start_object(inst, vault_loid)
        assert not result.ok
        assert "policy" in result.reason.lower() or "Load" in result.reason

    def test_wrong_host_token_rejected(self, meta, vault_loid, app_class):
        h0, h1 = meta.hosts[0], meta.hosts[1]
        tok = h0.make_reservation(vault_loid, app_class.loid)
        inst = make_instance(meta, app_class)
        result = h1.start_object(inst, vault_loid, tok)
        assert not result.ok and "issued by" in result.reason

    def test_wrong_vault_token_rejected(self, meta, host, app_class):
        v1 = meta.add_vault("uva", name="uva-vault2")
        tok = host.make_reservation(meta.vaults[0].loid, app_class.loid)
        inst = make_instance(meta, app_class)
        result = host.start_object(inst, v1.loid, tok)
        assert not result.ok and "reserves vault" in result.reason

    def test_job_completes_and_reports(self, meta, host, vault_loid,
                                       app_class):
        done = []
        host.on_object_complete = lambda obj, t: done.append((obj.loid, t))
        inst = make_instance(meta, app_class, work=100.0)
        host.start_object(inst, vault_loid)
        meta.sim.run_until(1000.0)
        assert len(done) == 1
        assert inst.attributes.get("completed_at") is not None
        assert inst.loid not in host.placed

    def test_serverlike_object_occupies_slot_until_killed(
            self, meta, host, vault_loid, app_class):
        inst = make_instance(meta, app_class)  # no work_units: a server
        host.start_object(inst, vault_loid)
        meta.sim.run_until(10000.0)
        assert inst.loid in host.placed  # still running
        host.kill_object(inst.loid)
        assert inst.loid not in host.placed

    def test_batch_start_with_reusable_token(self, meta, host, vault_loid,
                                             app_class):
        tok = host.make_reservation(vault_loid, app_class.loid,
                                    rtype=REUSABLE_TIME)
        instances = [make_instance(meta, app_class) for _ in range(3)]
        result = host.start_objects(instances, vault_loid, tok)
        assert result.ok and len(result.loids) == 3

    def test_batch_start_one_shot_token_rejected(self, meta, host,
                                                 vault_loid, app_class):
        tok = host.make_reservation(vault_loid, app_class.loid,
                                    rtype=ONE_SHOT_TIME)
        instances = [make_instance(meta, app_class) for _ in range(2)]
        result = host.start_objects(instances, vault_loid, tok)
        assert not result.ok
        assert "one-shot" in result.reason

    def test_batch_rolls_back_on_partial_failure(self, meta, vault_loid,
                                                 app_class):
        host = meta.hosts[2]
        instances = [make_instance(meta, app_class)
                     for _ in range(host.slots + 1)]
        result = host.start_objects(instances, vault_loid)
        assert not result.ok
        assert len(host.placed) == 0  # everything rolled back


class TestDeactivate:
    def test_deactivate_preserves_remaining_work(self, meta, host,
                                                 vault_loid, app_class):
        inst = make_instance(meta, app_class, work=100.0)
        host.start_object(inst, vault_loid)
        meta.sim.run_until(40.0)  # speed 1.0, single job -> 40 done
        opr, remaining = host.deactivate_object(inst.loid)
        assert remaining == pytest.approx(60.0)
        assert inst.attributes.get("work_units") == pytest.approx(60.0)
        assert opr.loid == inst.loid
        assert inst.loid not in host.placed

    def test_deactivate_unknown_raises(self, meta, host, app_class):
        from repro.errors import ObjectStateError
        with pytest.raises(ObjectStateError):
            host.deactivate_object(meta.minter.mint_instance(app_class.loid))


class TestInformationReporting:
    def test_compatible_vaults(self, meta, host, vault_loid):
        assert vault_loid in host.get_compatible_vaults()
        assert host.vault_ok(vault_loid)
        assert not host.vault_ok(meta.minter.mint("vault", "nope"))

    def test_attributes_populated(self, host):
        for attr in ("host_arch", "host_os_name", "host_load", "host_cpus",
                     "host_memory_mb", "host_domain", "host_slots_free",
                     "host_up", "compatible_vaults"):
            assert attr in host.attributes, attr

    def test_reassess_updates_load(self, meta, host, vault_loid, app_class):
        load_before = host.attributes.get("host_load")
        inst = make_instance(meta, app_class, work=1000.0)
        host.start_object(inst, vault_loid)
        host.reassess()
        assert host.attributes.get("host_load") > load_before
        assert host.attributes.get("host_slots_free") == host.slots - 1

    def test_periodic_reassessment_pushes_to_collection(self, meta, host):
        record = meta.collection.record_of(host.loid)
        t0 = record.updated_at
        meta.advance(meta.reassess_interval * 2 + 1)
        assert meta.collection.record_of(host.loid).updated_at > t0

    def test_unix_host_kind(self, host):
        assert host.attributes.get("host_kind") == "unix"

    @pytest.mark.parametrize("starts", [1, 2, 3])
    def test_starting_the_reassess_cycle_again_changes_nothing(
            self, meta, host, starts):
        """``_wire_host`` already started it: another call used to start
        a second chain and double the reassessments from then on."""
        for _ in range(starts - 1):
            meta.advance(7.0)   # off the first call's grid
            host.start_periodic_reassessment()
        meta.advance(300.0 - meta.now)
        before = host.reassessments
        meta.advance(300.0)
        assert host.reassessments - before == 10

    def test_hosts_on_one_interval_share_one_kernel_event(self, meta):
        before = meta.sim.events_processed
        meta.advance(300.0)
        assert all(h.reassessments >= 10 for h in meta.hosts)
        assert meta.sim.events_processed - before == 10
        assert meta.sim.queue_depth == 1

    def test_down_host_skips_reassessment_and_resumes(self, meta, host):
        host.machine.fail()
        count = host.reassessments
        meta.advance(95.0)
        assert host.reassessments == count
        host.machine.recover()
        meta.advance(30.0)
        assert host.reassessments == count + 1


class TestLoadWalkOnALiveHost:
    @pytest.fixture
    def busy_world(self):
        m = Metasystem(seed=11)
        m.add_domain("uva")
        m.add_unix_host("ws0", "uva", load_walk=LoadWalk(mean=1.0),
                        initial_load=1.0)
        return m

    def test_clearing_the_walk_stops_it(self, busy_world):
        """Used to raise AttributeError from the pending load step as
        soon as the world passed the next 10 s grid point."""
        machine = busy_world.hosts[0].machine
        busy_world.advance(25.0)
        moved = machine.background_load
        assert moved != 1.0
        machine.load_walk = None
        machine.set_background_load(2.0)
        busy_world.advance(100.0)        # ten grid points later
        assert machine.background_load == 2.0
        assert busy_world.hosts[0].attributes.get("host_load") == 2.0

    def test_clearing_the_walk_with_steps_owed_draws_nothing(
            self, busy_world):
        machine = busy_world.hosts[0].machine
        busy_world.advance(5.0)
        machine.load_walk = None
        busy_world.advance(100.0)
        assert machine.background_load == 1.0
        state = machine._rng.bit_generator.state
        twin = Metasystem(seed=11)
        twin.add_domain("uva")
        twin.add_unix_host("ws0", "uva", initial_load=1.0)
        assert twin.hosts[0].machine._rng.bit_generator.state == state

    def test_idle_machines_cost_no_kernel_events(self):
        m = Metasystem(seed=11, reassess_interval=1e9)
        m.add_domain("uva")
        for i in range(20):
            m.add_unix_host(f"ws{i}", "uva", load_walk=LoadWalk(mean=1.0),
                            initial_load=1.0)
        m.advance(1000.0)
        assert m.sim.events_processed == 100      # the shared 10 s grid
        assert m.sim.queue_depth == 2             # load grid + reassess
        assert len({h.machine.background_load for h in m.hosts}) == 20


#: the key order of a Unix host's Collection record (fixed by the first
#: write; unchanged since reassessment wrote every attribute every tick)
UNIX_RECORD_KEYS = [
    "host_name", "host_arch", "host_os_name", "host_os_version",
    "host_cpus", "host_speed", "host_memory_mb",
    "host_available_memory_mb", "host_load", "host_domain", "host_slots",
    "host_slots_free", "host_price", "host_up", "host_policy",
    "compatible_vaults", "host_kind"]


class TestDescriptorsReachTheCollection:
    """Descriptor attributes are rewritten only when their sources
    changed — decided by comparing the sources at each reassessment, so
    plain assignments from outside need no signal."""

    @staticmethod
    def pushed(meta, host):
        host.reassess()
        record = meta.collection.record_of(host.loid)
        assert record.attributes == host.attributes.snapshot()
        assert list(record.attributes) == UNIX_RECORD_KEYS
        return record.attributes

    def test_price_assignment(self, meta, host):
        host.price = 0.25
        assert self.pushed(meta, host)["host_price"] == 0.25

    def test_slots_assignment(self, meta, host):
        host.slots = 9
        attrs = self.pushed(meta, host)
        assert (attrs["host_slots"], attrs["host_slots_free"]) == (9, 9)

    def test_policy_replacement(self, meta, host):
        host.policy = DomainBlacklist({"evil"})
        assert self.pushed(meta, host)["host_policy"] == \
            "DomainBlacklist(['evil'])"

    def test_vault_added_and_removed(self, meta, host):
        extra = meta.minter.mint("vault", "extra")
        host.add_compatible_vault(extra)
        assert str(extra) in self.pushed(meta, host)["compatible_vaults"]
        host._compatible_vaults.remove(extra)
        assert str(extra) not in \
            self.pushed(meta, host)["compatible_vaults"]

    def test_spec_replacement(self, meta, host):
        host.machine.spec = MachineSpec(arch="x86", os_name="Linux",
                                        cpus=4)
        attrs = self.pushed(meta, host)
        assert (attrs["host_arch"], attrs["host_cpus"]) == ("x86", 4)

    def test_machine_fail_and_recover(self, meta, host):
        host.machine.fail()
        assert self.pushed(meta, host)["host_up"] is False
        host.machine.recover()
        assert self.pushed(meta, host)["host_up"] is True

    def test_unchanged_descriptors_keep_their_timestamp(self, meta, host):
        """The documented change of meaning: a descriptor's per-attribute
        timestamp is when its value last changed; the database's
        ``last_update`` and the record still advance every tick."""
        t0 = meta.now
        meta.advance(meta.reassess_interval * 2 + 1)
        assert host.attributes.updated_at("host_arch") == t0
        assert host.attributes.updated_at("host_load") > t0
        assert host.attributes.last_update > t0
        assert meta.collection.record_of(host.loid).updated_at > t0

    def test_one_push_per_reassessment(self, meta, host):
        record = meta.collection.record_of(host.loid)
        count, version = record.update_count, meta.collection.mutation_version
        host.reassess()
        assert record.update_count == count + 1
        assert meta.collection.mutation_version == version + 1


class TestLoadTrigger:
    def test_high_load_fires_event(self, meta):
        host = meta.hosts[0]
        firings = []
        host.rge.register_outcall(UnixHost.LOAD_EVENT,
                                  lambda f: firings.append(f))
        host.machine.set_background_load(10.0)
        host.reassess()
        assert len(firings) == 1
        assert firings[0].event_name == UnixHost.LOAD_EVENT

    def test_recovery_fires_ok_event(self, meta):
        host = meta.hosts[0]
        oks = []
        host.rge.register_outcall(UnixHost.LOAD_OK_EVENT,
                                  lambda f: oks.append(f))
        host.machine.set_background_load(10.0)
        host.reassess()
        host.machine.set_background_load(0.0)
        # advance past the trigger's min_interval rate limit
        meta.advance(120.0)
        host.reassess()
        assert len(oks) >= 1


class TestPolicies:
    def req(self, domain="", price=0.0):
        return PlacementRequest(requester_domain=domain,
                                offered_price=price)

    def test_accept_all(self):
        assert AcceptAll().decide(None, self.req(), 0.0)

    def test_blacklist(self):
        p = DomainBlacklist(["mars", "venus"])
        assert not p.decide(None, self.req("mars"), 0.0)
        assert p.decide(None, self.req("earth"), 0.0)
        assert "mars" in p.describe()

    def test_time_of_day_simple_window(self):
        p = TimeOfDayWindow(9.0, 17.0)
        hour = 3600.0
        assert p.decide(None, self.req(), 10 * hour)
        assert not p.decide(None, self.req(), 20 * hour)

    def test_time_of_day_wrapping_window(self):
        p = TimeOfDayWindow(18.0, 8.0)  # overnight
        hour = 3600.0
        assert p.decide(None, self.req(), 20 * hour)
        assert p.decide(None, self.req(), 3 * hour)
        assert not p.decide(None, self.req(), 12 * hour)

    def test_load_ceiling(self, meta):
        host = meta.hosts[0]
        p = LoadCeiling(2.0)
        host.machine.set_background_load(1.0)
        assert p.decide(host, self.req(), 0.0)
        host.machine.set_background_load(5.0)
        assert not p.decide(host, self.req(), 0.0)

    def test_price_floor(self):
        p = PriceFloor(0.5)
        assert not p.decide(None, self.req(price=0.1), 0.0)
        assert p.decide(None, self.req(price=0.5), 0.0)

    def test_composite_all_must_pass(self):
        p = CompositePolicy([DomainBlacklist(["x"]), PriceFloor(1.0)])
        assert not p.decide(None, self.req("x", 2.0), 0.0)
        assert not p.decide(None, self.req("y", 0.5), 0.0)
        assert p.decide(None, self.req("y", 2.0), 0.0)
        assert "&" in p.describe()
