"""Tests for the guardrails subsystem: breakers, health, admission, bench.

Covers the PR's satellites: the generic non-retryable flag honoured by
RetryPolicy (with the open-breaker-consumes-one-attempt regression),
health-aware Collection eviction, reservation-ledger sweeping, the
hypothesis property that opened breakers re-close once faults heal, and
the seeded off/guardrails campaign comparison.
"""

import json
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Implementation, Metasystem
from repro.errors import (
    AdmissionRejected,
    CircuitOpenError,
    HostUnreachableError,
    MessageLostError,
    ReservationDeniedError,
)
from repro.chaos import RetryPolicy
from repro.guardrails import (
    CLOSED,
    DOWN,
    HALF_OPEN,
    LIVE,
    OPEN,
    SUSPECT,
    AdmissionController,
    BreakerBoard,
    CircuitBreaker,
    GuardrailConfig,
    run_comparison,
)
from repro.guardrails.health import FAIL_DOWN, FAIL_SUSPECT, HEALTH_INTERVAL
from repro.hosts import MachineSpec
from repro.net import AdministrativeDomain, NetLocation, Topology, Transport
from repro.sim import RngRegistry, Simulator
from repro.tools.cli import main as cli_main


def make_transport(topo, loss=0.0):
    from repro.net import MetasystemLatencyModel
    sim = Simulator()
    rngs = RngRegistry(1)
    return Transport(sim, topo, MetasystemLatencyModel(topo), rngs,
                     loss_probability=loss)


@pytest.fixture
def topo():
    t = Topology()
    t.add_domain(AdministrativeDomain("uva", distance=1.0))
    t.add_domain(AdministrativeDomain("sdsc", distance=3.0))
    t.add_node("uva", "a")
    t.add_node("uva", "b")
    t.add_node("sdsc", "c")
    return t


def guarded_meta(seed=7, **overrides):
    """The conftest meta topology, with guardrails enabled."""
    m = Metasystem(seed=seed)
    m.add_domain("uva")
    for i in range(4):
        m.add_unix_host(f"ws{i}", "uva",
                        MachineSpec(arch="sparc", os_name="SunOS"),
                        slots=4)
    m.add_vault("uva", name="uva-vault")
    m.enable_guardrails(GuardrailConfig(**overrides))
    return m


class TestGuardrailConfig:
    def test_defaults_valid(self):
        cfg = GuardrailConfig()
        assert cfg.suspect_after < cfg.down_after
        assert FAIL_SUSPECT < FAIL_DOWN

    def test_validation(self):
        with pytest.raises(ValueError):
            GuardrailConfig(breaker_failure_threshold=0)
        with pytest.raises(ValueError):
            GuardrailConfig(suspect_after=200.0, down_after=100.0)


class TestCircuitBreaker:
    """The three-state machine, driven by an explicit clock."""

    def test_opens_after_consecutive_failures(self):
        br = CircuitBreaker("dst", failure_threshold=3, cooldown=10.0)
        for _ in range(2):
            br.record_failure(0.0)
        assert br.state == CLOSED
        br.record_failure(0.0)
        assert br.state == OPEN
        assert br.opens == 1

    def test_success_resets_failure_count(self):
        br = CircuitBreaker("dst", failure_threshold=3, cooldown=10.0)
        br.record_failure(0.0)
        br.record_failure(0.0)
        br.record_success(0.0)
        br.record_failure(0.0)
        br.record_failure(0.0)
        assert br.state == CLOSED  # never three in a row

    def test_fast_fails_while_open_then_half_open_probe(self):
        br = CircuitBreaker("dst", failure_threshold=1, cooldown=10.0)
        br.record_failure(0.0)
        assert br.state == OPEN
        assert not br.allow(5.0)  # cooldown not elapsed
        assert br.fast_fails == 1
        assert br.allow(10.0)  # cooldown elapsed: single probe allowed
        assert br.state == HALF_OPEN
        assert not br.allow(10.0)  # probe already in flight
        assert br.fast_fails == 2

    def test_probe_success_recloses(self):
        br = CircuitBreaker("dst", failure_threshold=1, cooldown=10.0)
        br.record_failure(0.0)
        assert br.allow(10.0)
        br.record_success(10.5)
        assert br.state == CLOSED

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        br = CircuitBreaker("dst", failure_threshold=1, cooldown=10.0)
        br.record_failure(0.0)
        assert br.allow(10.0)
        br.record_failure(10.5)
        assert br.state == OPEN
        assert not br.allow(15.0)  # new cooldown runs from reopen
        assert br.allow(20.5)

    @given(st.lists(st.booleans(), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_opened_breaker_recloses_after_heal(self, outcomes):
        """Satellite property: whatever failure/success history a breaker
        has seen, once the fault heals (cooldown passes, traffic
        succeeds) it ends CLOSED within a bounded number of probes."""
        br = CircuitBreaker("dst", failure_threshold=2, cooldown=10.0)
        now = 0.0
        for ok in outcomes:
            now += 1.0
            if br.allow(now):
                br.record_success(now) if ok else br.record_failure(now)
        # heal: keep offering successful traffic past cooldowns
        for _ in range(3):
            now += 10.0
            if br.allow(now):
                br.record_success(now)
        assert br.state == CLOSED


class TestBreakerBoard:
    def test_lazily_creates_one_breaker_per_destination(self):
        clk = [0.0]
        board = BreakerBoard(lambda: clk[0], failure_threshold=2,
                             cooldown=5.0)
        board.record_failure("uva/a")
        board.record_failure("uva/b")
        assert len(board) == 2
        assert board.open_count() == 0

    def test_check_raises_circuit_open(self):
        clk = [0.0]
        board = BreakerBoard(lambda: clk[0], failure_threshold=1,
                             cooldown=5.0)
        board.record_failure("uva/a")
        with pytest.raises(CircuitOpenError):
            board.check("uva/a")
        # the other destination is unaffected
        board.check("uva/b")

    def test_listener_sees_outcomes(self):
        seen = []
        board = BreakerBoard(lambda: 0.0, failure_threshold=3,
                             cooldown=5.0,
                             listener=lambda dst, ok: seen.append((dst, ok)))
        board.record_success("uva/a")
        board.record_failure("uva/b")
        assert seen == [("uva/a", True), ("uva/b", False)]


class TestTransportBreakers:
    def test_unreachable_failures_open_the_circuit(self, topo):
        tr = make_transport(topo)
        tr.breakers = BreakerBoard(lambda: tr.sim.now,
                                   failure_threshold=2, cooldown=30.0)
        a, c = NetLocation("uva", "a"), NetLocation("sdsc", "c")
        topo.partition("uva", "sdsc")
        for _ in range(2):
            with pytest.raises(HostUnreachableError):
                tr.invoke(a, c, lambda: None)
        # the circuit is now open: no hop is charged, the error changes
        sent = tr.messages_sent
        with pytest.raises(CircuitOpenError):
            tr.invoke(a, c, lambda: None)
        assert tr.messages_sent == sent

    def test_open_breaker_consumes_at_most_one_attempt(self, topo):
        """Satellite (a) regression: CircuitOpenError is non-retryable,
        so a RetryPolicy gives up after the single fast-fail instead of
        burning its attempt budget against an open circuit."""
        tr = make_transport(topo)
        tr.breakers = BreakerBoard(lambda: tr.sim.now,
                                   failure_threshold=1, cooldown=1e9)
        tr.retry_policy = RetryPolicy(max_attempts=5, base_delay=0.1,
                                      retry_unreachable=True)
        a, c = NetLocation("uva", "a"), NetLocation("sdsc", "c")
        topo.partition("uva", "sdsc")
        # first call: the real attempt fails and opens the circuit; the
        # first retry fast-fails on the open breaker and the policy
        # gives up instead of burning the remaining budget
        with pytest.raises(CircuitOpenError):
            tr.invoke(a, c, lambda: None, idempotent=True)
        assert tr.breakers.open_count() == 1
        assert tr.retries == 1  # not max_attempts - 1
        # subsequent calls consume zero attempts and zero retries
        with pytest.raises(CircuitOpenError):
            tr.invoke(a, c, lambda: None, idempotent=True)
        assert tr.retries == 1

    def test_callee_error_counts_as_breaker_success(self, topo):
        tr = make_transport(topo)
        tr.breakers = BreakerBoard(lambda: tr.sim.now,
                                   failure_threshold=1, cooldown=30.0)
        a, b = NetLocation("uva", "a"), NetLocation("uva", "b")

        def boom():
            raise ValueError("application bug")
        with pytest.raises(ValueError):
            tr.invoke(a, b, boom)
        # dst answered (with an error reply): the circuit stays closed
        assert tr.breakers.open_count() == 0

    def test_probe_recloses_after_recovery(self, topo):
        tr = make_transport(topo)
        tr.breakers = BreakerBoard(lambda: tr.sim.now,
                                   failure_threshold=1, cooldown=5.0)
        a, c = NetLocation("uva", "a"), NetLocation("sdsc", "c")
        topo.partition("uva", "sdsc")
        with pytest.raises(HostUnreachableError):
            tr.invoke(a, c, lambda: None)
        topo.heal("uva", "sdsc")
        tr.sim.run_until(tr.sim.now + 5.0)
        assert tr.invoke(a, c, lambda: 42) == 42  # the half-open probe
        assert tr.breakers.open_count() == 0


class TestRetryFlagHandling:
    """Satellite (a): RetryPolicy honours the generic retryable flag."""

    def test_circuit_open_never_retryable(self):
        policy = RetryPolicy(retry_unreachable=True)
        assert not policy.is_retryable(CircuitOpenError("open"))
        assert policy.next_delay(CircuitOpenError("open"), 1, 0.0) is None

    def test_admission_rejected_never_retryable(self):
        policy = RetryPolicy(retry_unreachable=True)
        assert not policy.is_retryable(AdmissionRejected("full"))

    def test_instance_veto_beats_retryable_class(self):
        policy = RetryPolicy()
        exc = MessageLostError("lost")
        assert policy.is_retryable(exc)
        exc.retryable = False
        assert not policy.is_retryable(exc)

    def test_instance_grant_beats_nonretryable_class(self):
        policy = RetryPolicy(retry_unreachable=False)
        exc = HostUnreachableError("down")
        assert not policy.is_retryable(exc)
        exc.retryable = True
        assert policy.is_retryable(exc)


class TestAdmissionControl:
    def test_pending_queue_bound(self):
        meta = guarded_meta(admission_max_pending=2,
                            admission_load_limit=None)
        host = meta.host_by_name("ws0")
        vault = meta.vaults[0].loid
        cls = meta.create_class("App", [Implementation("sparc", "SunOS")],
                                work_units=1.0).loid
        host.make_reservation(vault, cls)
        host.make_reservation(vault, cls)
        with pytest.raises(AdmissionRejected):
            host.make_reservation(vault, cls)
        assert meta.guardrails.admission.rejections == 1
        # AdmissionRejected is a ReservationDeniedError to callers that
        # only know the base hierarchy
        assert issubclass(AdmissionRejected, ReservationDeniedError)

    def test_load_limit(self):
        meta = guarded_meta(admission_max_pending=None,
                            admission_load_limit=2.0)
        host = meta.host_by_name("ws0")
        vault = meta.vaults[0].loid
        cls = meta.create_class("App", [Implementation("sparc", "SunOS")],
                                work_units=1.0).loid
        host.machine.set_background_load(5.0)
        with pytest.raises(AdmissionRejected):
            host.make_reservation(vault, cls)
        host.machine.set_background_load(0.5)
        host.make_reservation(vault, cls)  # admitted again

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_pending=0)
        with pytest.raises(ValueError):
            AdmissionController(load_limit=0.0)


class TestHealthMonitor:
    def test_crash_quarantines_and_recovery_restores(self):
        meta = guarded_meta()
        monitor = meta.guardrails.monitor
        host = meta.host_by_name("ws0")
        assert monitor.state_of(host.loid) == LIVE
        host.machine.fail()
        meta.topology.set_node_down(host.location)
        meta.advance(meta.guardrails.config.down_after + 60.0)
        assert monitor.state_of(host.loid) == DOWN
        # quarantine is published into the Collection record...
        raw = meta.collection.record_of(host.loid)
        assert raw.attributes.get("host_health") == DOWN
        # ...and query-time exclusion hides the host
        names = [r.get("host_name") for r in meta.collection.query("true")]
        assert host.machine.name not in names
        assert len(names) == 3
        # recovery: heartbeats resume, the monitor re-classifies LIVE
        host.machine.recover()
        meta.topology.set_node_down(host.location, down=False)
        meta.advance(HEALTH_INTERVAL * 4)
        assert monitor.state_of(host.loid) == LIVE
        names = [r.get("host_name") for r in meta.collection.query("true")]
        assert host.machine.name in names

    def test_consecutive_invoke_failures_mark_suspect(self):
        meta = guarded_meta()
        monitor = meta.guardrails.monitor
        host = meta.host_by_name("ws1")
        key = str(host.location)
        for _ in range(FAIL_SUSPECT):
            monitor.note_outcome(key, ok=False)
        monitor.tick()
        assert monitor.state_of(host.loid) == SUSPECT
        monitor.note_outcome(key, ok=True)
        monitor.tick()
        assert monitor.state_of(host.loid) == LIVE

    def test_viable_hosts_excludes_down(self):
        meta = guarded_meta()
        app = meta.create_class("App", [Implementation("sparc", "SunOS")],
                                work_units=10.0)
        host = meta.host_by_name("ws0")
        host.machine.fail()
        meta.topology.set_node_down(host.location)
        meta.advance(meta.guardrails.config.down_after + 60.0)
        sched = meta.make_scheduler("random")
        viable = sched.viable_hosts(app)
        assert len(viable) == 3
        assert all(r.get("host_name") != host.machine.name for r in viable)

    def test_enable_guardrails_is_idempotent_and_deterministic(self):
        meta = guarded_meta()
        suite = meta.enable_guardrails()
        assert suite is meta.guardrails
        # guardrails draw no RNG: identical seeds stay identical with
        # the layer enabled (the determinism suite covers the rest)
        a = guarded_meta(seed=11)
        b = guarded_meta(seed=11)
        a.advance(200.0)
        b.advance(200.0)
        assert a.now == b.now
        assert a.guardrails.monitor.counts() == b.guardrails.monitor.counts()


class TestDaemonEviction:
    """Satellite (b): health-aware sweeps evict long-DOWN records."""

    def _down_host(self, meta, name="ws0"):
        host = meta.host_by_name(name)
        host.machine.fail()
        meta.topology.set_node_down(host.location)
        return host

    def test_long_down_record_evicted_then_rejoins(self):
        meta = guarded_meta()
        daemon = meta.make_daemon(interval=30.0, evict_down_after=300.0)
        daemon.start()
        host = self._down_host(meta)
        meta.advance(meta.guardrails.config.down_after + 300.0 + 120.0)
        assert daemon.evictions >= 1
        assert host.loid not in meta.collection.members()
        # gauge reflects the DOWN population seen by the last sweep
        assert meta.metrics.gauge("collection_down_members").value == 1.0
        # recovery re-joins on the next sweep and clears the gauge
        host.machine.recover()
        meta.topology.set_node_down(host.location, down=False)
        meta.advance(HEALTH_INTERVAL * 4 + 60.0)
        assert host.loid in meta.collection.members()
        assert meta.metrics.gauge("collection_down_members").value == 0.0

    def test_down_source_not_pushed_before_eviction(self):
        """A DOWN host's stale snapshot must not clobber quarantine."""
        meta = guarded_meta()
        daemon = meta.make_daemon(interval=30.0, evict_down_after=1e9)
        daemon.start()
        host = self._down_host(meta)
        meta.advance(meta.guardrails.config.down_after + 120.0)
        raw = meta.collection.record_of(host.loid)
        assert raw.attributes.get("host_health") == DOWN


class TestLedgerSweep:
    """Satellite (c): periodic reassessment drops dead ledger entries."""

    def test_reassess_purges_expired_reservations(self, meta):
        host = meta.host_by_name("ws0")
        vault = meta.vaults[0].loid
        cls = meta.create_class("App", [Implementation("sparc", "SunOS")],
                                work_units=1.0).loid
        for _ in range(3):
            host.make_reservation(vault, cls, duration=50.0, timeout=10.0)
        assert len(host.reservations) == 3
        # all three time out unredeemed; the next reassessment sweeps
        meta.advance(120.0)
        assert len(host.reservations) == 0

    def test_pending_count_tracks_unredeemed_live_grants(self, meta):
        host = meta.host_by_name("ws0")
        vault = meta.vaults[0].loid
        cls = meta.create_class("App", [Implementation("sparc", "SunOS")],
                                work_units=1.0).loid
        tok = host.make_reservation(vault, cls, timeout=60.0)
        assert host.reservations.pending_count(meta.now) == 1
        host.cancel_reservation(tok)
        assert host.reservations.pending_count(meta.now) == 0


@pytest.mark.slow
class TestCampaignComparison:
    """Satellite (d) + the acceptance criterion: on the same seeded
    fault timeline, guardrails+retries survives at least as well as
    the bare run while wasting strictly fewer reservation attempts."""

    #: exactly the parameters `legion-sim guardrails --compare --domains 3
    #: --hosts 6` used to produce the committed BENCH_guardrails.json
    BENCH_KWARGS = dict(profile="hosts", chaos_seed=1, seed=0,
                        scheduler="irs", waves=6, per_wave=4, work=250.0,
                        wave_interval=90.0, horizon=None, n_domains=3,
                        hosts_per_domain=6, platform_mix=2,
                        background_load=0.5, shards=0,
                        include_events=False)

    @pytest.fixture(scope="class")
    def comparison(self):
        return run_comparison(**self.BENCH_KWARGS)

    def test_guardrails_do_not_regress_survival(self, comparison):
        assert comparison.survival("guardrails") >= \
            comparison.survival("off")

    def test_guardrails_waste_strictly_fewer_reservations(self, comparison):
        assert comparison.wasted("guardrails") < comparison.wasted("off")
        assert comparison.to_dict()["benefit"]["guardrails_improve"]

    def test_guardrails_machinery_engaged(self, comparison):
        rep = comparison.reports["guardrails"]
        assert rep.guardrails_enabled
        assert rep.health_transitions > 0
        assert rep.load_shed + rep.breaker_opens > 0
        # the baseline never sheds and never opens a breaker
        base = comparison.reports["off"]
        assert not base.guardrails_enabled
        assert base.load_shed == 0 and base.breaker_opens == 0

    def test_same_seed_reproduces_identical_reports(self):
        """Identical seeds => identical reports (a second, smaller run
        so the determinism check is independent of the committed file)."""
        kwargs = dict(self.BENCH_KWARGS, waves=2, n_domains=2,
                      hosts_per_domain=4)
        a = run_comparison(**kwargs)
        b = run_comparison(**kwargs)
        assert a.to_json() == b.to_json()


class TestGuardrailsCli:
    def test_compare_exits_zero_and_prints_table(self):
        out = StringIO()
        rc = cli_main(["guardrails", "--compare", "--domains", "2",
                       "--hosts", "3", "--waves", "2"], out=out)
        text = out.getvalue()
        assert rc == 0
        assert "guardrails benchmark" in text
        for mode in ("off", "guardrails"):
            assert mode in text

    def test_out_writes_comparison_json(self, tmp_path):
        path = tmp_path / "bench.json"
        out = StringIO()
        rc = cli_main(["guardrails", "--compare", "--domains", "2",
                       "--hosts", "3", "--waves", "2",
                       "--out", str(path)], out=out)
        assert rc == 0
        doc = json.loads(path.read_text())
        assert set(doc["modes"]) == {"off", "guardrails"}
        assert "guardrails_improve" in doc["benefit"]

    def test_chaos_accepts_guardrails_flag(self):
        out = StringIO()
        rc = cli_main(["chaos", "--profile", "hosts", "--retry",
                       "--guardrails", "--waves", "2", "--domains", "2",
                       "--hosts", "3"], out=out)
        assert rc == 0
        assert "guardrails         on" in out.getvalue()
