"""Tests for implicit reactivation on access (paper section 3.1)."""

import pytest

from repro import Implementation, ObjectClassRequest
from repro.errors import MigrationError, ObjectStateError
from repro.objects import ObjectState
from repro.workload import wait_for_completion


@pytest.fixture
def parked(meta, app_class):
    """An instance deactivated to its Vault (OPR stored), host slot freed."""
    sched = meta.make_scheduler("random")
    outcome = sched.run([ObjectClassRequest(app_class, 1)])
    assert outcome.ok
    loid = outcome.created[0]
    instance = app_class.get_instance(loid)
    host = meta.resolve(instance.host_loid)
    meta.advance(30.0)
    opr, _remaining = host.deactivate_object(loid)
    vault = meta.resolve(instance.vault_loid)
    vault.store_opr(opr)
    return loid, host


class TestEnsureActive:
    def test_access_restarts_inert_object(self, meta, app_class, parked):
        loid, old_host = parked
        assert app_class.get_instance(loid).state == ObjectState.INERT
        instance = app_class.ensure_active(loid, now=meta.now)
        assert instance.is_active
        assert instance.host_loid is not None
        new_host = meta.resolve(instance.host_loid)
        assert loid in new_host.placed
        # progress survived the park: ~70 units remain of 100
        n, t = wait_for_completion(meta, app_class, [loid])
        assert n == 1

    def test_refused_restart_leaves_object_inert_and_unheld(
            self, meta, app_class, parked, monkeypatch):
        loid, _old_host = parked
        placer = app_class._default_placer

        def place_then_owner_takes_the_slots(class_obj, vault_loid):
            placement = placer(class_obj, vault_loid)
            meta.resolve(placement.host_loid).slots = 0
            return placement
        monkeypatch.setattr(app_class, "_default_placer",
                            place_then_owner_takes_the_slots)
        activations = app_class.get_instance(loid).activation_count
        with pytest.raises(MigrationError):
            app_class.ensure_active(loid, now=meta.now)
        instance = app_class.get_instance(loid)
        assert instance.state == ObjectState.INERT
        assert instance.host_loid is None
        assert instance.activation_count == activations
        assert all(loid not in host.placed for host in meta.hosts)

    def test_active_object_returned_unchanged(self, meta, app_class):
        result = app_class.create_instance()
        instance = app_class.ensure_active(result.loid)
        assert instance is app_class.get_instance(result.loid)

    def test_dead_object_raises(self, meta, app_class):
        result = app_class.create_instance()
        app_class.get_instance(result.loid).kill()
        with pytest.raises(ObjectStateError):
            app_class.ensure_active(result.loid)

    def test_missing_opr_raises(self, meta, app_class):
        sched = meta.make_scheduler("random")
        outcome = sched.run([ObjectClassRequest(app_class, 1)])
        loid = outcome.created[0]
        instance = app_class.get_instance(loid)
        host = meta.resolve(instance.host_loid)
        host.deactivate_object(loid)  # OPR never stored to the vault
        with pytest.raises(MigrationError):
            app_class.ensure_active(loid)

    def test_reactivation_respects_vault_reachability(self, multi):
        """The chosen host must reach the object's existing vault: parked
        in dom0's vault, the object reactivates on a dom0 host."""
        from repro.workload import implementations_for_all_platforms
        app = multi.create_class("Park",
                                 implementations_for_all_platforms(),
                                 work_units=100.0)
        sched = multi.make_scheduler("random")
        outcome = sched.run([ObjectClassRequest(app, 1)])
        assert outcome.ok
        loid = outcome.created[0]
        instance = app.get_instance(loid)
        vault = multi.resolve(instance.vault_loid)
        host = multi.resolve(instance.host_loid)
        opr, _ = host.deactivate_object(loid)
        vault.store_opr(opr)
        revived = app.ensure_active(loid, now=multi.now)
        new_host = multi.resolve(revived.host_loid)
        assert new_host.vault_ok(instance.vault_loid)
        assert new_host.domain == vault.location.domain
