"""Tests for topology, latency models, and the RPC transport."""

import pytest

from repro.errors import HostUnreachableError, MessageLostError, NetworkError
from repro.net import (
    AdministrativeDomain,
    Call,
    MetasystemLatencyModel,
    NetLocation,
    Topology,
    Transport,
    ZeroLatencyModel,
)
from repro.sim import RngRegistry, Simulator


@pytest.fixture
def topo():
    t = Topology()
    t.add_domain(AdministrativeDomain("uva", distance=1.0))
    t.add_domain(AdministrativeDomain("sdsc", distance=3.0))
    t.add_node("uva", "a")
    t.add_node("uva", "b")
    t.add_node("sdsc", "c")
    return t


def make_transport(topo, loss=0.0, zero=False):
    sim = Simulator()
    rngs = RngRegistry(1)
    model = ZeroLatencyModel() if zero else MetasystemLatencyModel(topo)
    return Transport(sim, topo, model, rngs, loss_probability=loss)


class TestTopology:
    def test_duplicate_domain_rejected(self, topo):
        with pytest.raises(NetworkError):
            topo.add_domain(AdministrativeDomain("uva"))

    def test_duplicate_node_rejected(self, topo):
        with pytest.raises(NetworkError):
            topo.add_node("uva", "a")

    def test_node_in_unknown_domain_rejected(self, topo):
        with pytest.raises(NetworkError):
            topo.add_node("mit", "x")

    def test_nodes_in(self, topo):
        assert [n.node_id for n in topo.nodes_in("uva")] == ["a", "b"]

    def test_domain_distance(self, topo):
        assert topo.domain_distance("uva", "uva") == 0.0
        assert topo.domain_distance("uva", "sdsc") == 4.0

    def test_reachability_basics(self, topo):
        a = NetLocation("uva", "a")
        c = NetLocation("sdsc", "c")
        assert topo.reachable(a, c)
        assert topo.reachable(None, c)

    def test_partition_and_heal(self, topo):
        a, c = NetLocation("uva", "a"), NetLocation("sdsc", "c")
        topo.partition("uva", "sdsc")
        assert not topo.reachable(a, c)
        assert not topo.reachable(c, a)
        # intra-domain unaffected
        assert topo.reachable(a, NetLocation("uva", "b"))
        # src=None service endpoints bypass domain partitions
        assert topo.reachable(None, c)
        topo.heal("uva", "sdsc")
        assert topo.reachable(a, c)

    def test_node_down(self, topo):
        a, b = NetLocation("uva", "a"), NetLocation("uva", "b")
        topo.set_node_down(a)
        assert not topo.node_up(a)
        assert not topo.reachable(b, a)
        assert not topo.reachable(a, b)
        topo.set_node_down(a, down=False)
        assert topo.reachable(b, a)

    def test_unknown_node_down_rejected(self, topo):
        with pytest.raises(NetworkError):
            topo.set_node_down(NetLocation("uva", "zzz"))

    def test_all_nodes_sorted(self, topo):
        names = [str(n) for n in topo.all_nodes()]
        assert names == ["sdsc/c", "uva/a", "uva/b"]


class TestLatencyModel:
    def test_ordering_local_intra_inter(self, topo):
        import numpy as np
        rng = np.random.default_rng(0)
        model = MetasystemLatencyModel(topo)
        a, b = NetLocation("uva", "a"), NetLocation("uva", "b")
        c = NetLocation("sdsc", "c")
        local = model.sample_latency(rng, a, a)
        intra = [model.sample_latency(rng, a, b) for _ in range(50)]
        inter = [model.sample_latency(rng, a, c) for _ in range(50)]
        assert local < min(intra)
        assert sum(intra) / 50 < sum(inter) / 50

    def test_transfer_time_scales_with_bytes(self, topo):
        import numpy as np
        rng = np.random.default_rng(0)
        model = MetasystemLatencyModel(topo)
        a, c = NetLocation("uva", "a"), NetLocation("sdsc", "c")
        small = model.transfer_time(rng, 1e3, a, c)
        big = model.transfer_time(rng, 1e7, a, c)
        assert big > small
        assert big > 1e7 / model.INTER_BANDWIDTH  # at least the wire time

    def test_zero_model(self, topo):
        import numpy as np
        rng = np.random.default_rng(0)
        model = ZeroLatencyModel()
        a = NetLocation("uva", "a")
        assert model.sample_latency(rng, None, a) == 0.0
        assert model.transfer_time(rng, 1e9, None, a) == 0.0


class TestTransport:
    def test_invoke_returns_result_and_advances_clock(self, topo):
        tr = make_transport(topo)
        a, c = NetLocation("uva", "a"), NetLocation("sdsc", "c")
        result = tr.invoke(a, c, lambda x: x * 2, 21)
        assert result == 42
        assert tr.sim.now > 0.0
        assert tr.messages_sent == 2  # request + reply

    def test_invoke_unreachable_raises(self, topo):
        tr = make_transport(topo)
        a, c = NetLocation("uva", "a"), NetLocation("sdsc", "c")
        topo.partition("uva", "sdsc")
        with pytest.raises(HostUnreachableError):
            tr.invoke(a, c, lambda: None)

    def test_invoke_propagates_callee_exception(self, topo):
        tr = make_transport(topo)
        a, b = NetLocation("uva", "a"), NetLocation("uva", "b")

        def boom():
            raise ValueError("callee failed")
        with pytest.raises(ValueError):
            tr.invoke(a, b, boom)
        # error reply still charged
        assert tr.messages_sent == 2

    def test_message_loss(self, topo):
        tr = make_transport(topo, loss=1.0)
        a, b = NetLocation("uva", "a"), NetLocation("uva", "b")
        with pytest.raises(MessageLostError):
            tr.invoke(a, b, lambda: None)
        assert tr.messages_lost == 1

    def test_loss_probability_validation(self, topo):
        with pytest.raises(ValueError):
            make_transport(topo, loss=1.5)

    def test_world_events_drain_during_invoke(self, topo):
        tr = make_transport(topo)
        fired = []
        tr.sim.schedule(1e-9, lambda: fired.append(tr.sim.now))
        a, b = NetLocation("uva", "a"), NetLocation("uva", "b")
        tr.invoke(a, b, lambda: None)
        assert fired  # the world event ran before/within the call

    def test_parallel_invoke_max_not_sum(self, topo):
        tr = make_transport(topo)
        a = NetLocation("uva", "a")
        b = NetLocation("uva", "b")
        c = NetLocation("sdsc", "c")
        # sequential baseline
        tr2 = make_transport(topo)
        for dst in (b, c, c, b):
            tr2.invoke(a, dst, lambda: None)
        sequential = tr2.sim.now
        calls = [Call(a, dst, lambda: 1) for dst in (b, c, c, b)]
        outcomes = tr.parallel_invoke(calls)
        assert all(o.ok for o in outcomes)
        assert tr.sim.now < sequential

    def test_parallel_invoke_captures_failures_per_slot(self, topo):
        tr = make_transport(topo, zero=True)
        a, b = NetLocation("uva", "a"), NetLocation("uva", "b")

        def boom():
            raise RuntimeError("x")
        outcomes = tr.parallel_invoke([
            Call(a, b, lambda: "ok"),
            Call(a, b, boom),
        ])
        assert outcomes[0].ok and outcomes[0].value == "ok"
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, RuntimeError)

    def test_parallel_invoke_unreachable_slot(self, topo):
        tr = make_transport(topo, zero=True)
        a = NetLocation("uva", "a")
        c = NetLocation("sdsc", "c")
        topo.partition("uva", "sdsc")
        outcomes = tr.parallel_invoke([Call(a, c, lambda: 1)])
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, HostUnreachableError)

    def test_parallel_invoke_empty(self, topo):
        tr = make_transport(topo)
        assert tr.parallel_invoke([]) == []

    def test_parallel_results_in_input_order(self, topo):
        tr = make_transport(topo)
        a, b = NetLocation("uva", "a"), NetLocation("uva", "b")
        calls = [Call(a, b, lambda i=i: i) for i in range(10)]
        outcomes = tr.parallel_invoke(calls)
        assert [o.value for o in outcomes] == list(range(10))

    def test_transfer_charges_time(self, topo):
        tr = make_transport(topo)
        a, c = NetLocation("uva", "a"), NetLocation("sdsc", "c")
        elapsed = tr.transfer(a, c, nbytes=1e6)
        assert elapsed > 0
        assert tr.sim.now >= elapsed

    def test_transfer_unreachable(self, topo):
        tr = make_transport(topo)
        a, c = NetLocation("uva", "a"), NetLocation("sdsc", "c")
        topo.partition("uva", "sdsc")
        with pytest.raises(HostUnreachableError):
            tr.transfer(a, c, 1e3)
