"""Micro-benchmarks of the substrate hot paths (pytest-benchmark proper:
many iterations, statistical timing).

These guard the simulator's scalability: experiments routinely push
hundreds of thousands of kernel events and tens of thousands of queries.
"""

import pytest

from repro.collection import Collection
from repro.collection.query import evaluate, matches, parse
from repro.hosts import REUSABLE_TIME, ReservationTable
from repro.naming import LOID, LOIDMinter
from repro.sim import Simulator
from repro.workload.testbed import TestbedSpec, build_testbed


HOST = LOID(("d", "host", "h"))
VAULT = LOID(("d", "vault", "v"))
CLASS = LOID(("d", "class", "C"))


class TestKernelMicro:
    def test_event_dispatch_throughput(self, benchmark):
        def run_events():
            sim = Simulator()
            for i in range(10_000):
                sim.schedule(float(i % 100), lambda: None)
            sim.run()
            return sim.events_processed

        processed = benchmark(run_events)
        assert processed == 10_000

    def test_process_switch_throughput(self, benchmark):
        def run_processes():
            sim = Simulator()

            def body():
                for _ in range(100):
                    yield 1.0

            for _ in range(20):
                sim.process(body())
            sim.run()
            return sim.events_processed

        benchmark(run_processes)


class TestQueryMicro:
    QUERY = ('($host_arch == "sparc" and $host_os_name == "SunOS") '
             'or match("IRIX", $host_os_name) and $host_load < 2.5')
    RECORD = {"host_arch": "sparc", "host_os_name": "SunOS",
              "host_load": 1.0}

    def test_parse(self, benchmark):
        node = benchmark(parse, self.QUERY)
        assert node is not None

    def test_evaluate(self, benchmark):
        node = parse(self.QUERY)
        result = benchmark(matches, node, self.RECORD)
        assert result is True

    def test_collection_query_1000_records(self, benchmark):
        coll = Collection(LOID(("d", "svc", "c")), require_auth=False)
        for i in range(1000):
            coll.join(LOID(("d", "host", f"h{i}")), {
                "host_arch": "sparc" if i % 2 else "mips",
                "host_os_name": "SunOS" if i % 2 else "IRIX 5.3",
                "host_load": float(i % 5),
            })
        result = benchmark(coll.query, self.QUERY)
        assert len(result) > 0


class TestReservationMicro:
    def test_grant_check_cancel_cycle(self, benchmark):
        table = ReservationTable(HOST, b"secret", slots=64)

        def cycle():
            tok = table.make_reservation(VAULT, CLASS, REUSABLE_TIME,
                                         now=0.0)
            assert table.check_reservation(tok, now=0.0)
            table.cancel_reservation(tok, now=0.0)

        benchmark(cycle)

    def test_token_signature_verify(self, benchmark):
        table = ReservationTable(HOST, b"secret", slots=4)
        tok = table.make_reservation(VAULT, CLASS, REUSABLE_TIME, now=0.0)
        ok = benchmark(tok.verify, b"secret")
        assert ok


class TestNamingMicro:
    def test_loid_parse(self, benchmark):
        text = "loid:legion.class.Ocean.i42"
        loid = benchmark(LOID.parse, text)
        assert str(loid) == text

    def test_instance_minting(self, benchmark):
        minter = LOIDMinter()
        cls = minter.mint("class", "C")
        loid = benchmark(minter.mint_instance, cls)
        assert loid.is_descendant_of(cls)


class TestHostMicro:
    def test_idle_host_tick(self, benchmark):
        """One 30 s tick of a 256-host world nobody places anything on:
        every host takes its owed load steps, reassesses, and pushes its
        attributes to the Collection."""
        meta = build_testbed(TestbedSpec(
            n_domains=4, hosts_per_domain=64, platform_mix=3,
            background_load_mean=0.5, seed=7))
        start = meta.now
        before = sum(h.reassessments for h in meta.hosts)
        benchmark(meta.advance, 30.0)
        ticks = round((meta.now - start) / 30.0)
        assert sum(h.reassessments for h in meta.hosts) - before \
            == 256 * ticks
