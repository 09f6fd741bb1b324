"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import ProcessError, SimTimeError
from repro.sim import AllOf, AnyOf, Event, Interrupt, Simulator, Timeout
from repro.sim.kernel import Ticker


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_and_step(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        assert sim.step()
        assert fired == [5.0]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimTimeError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimTimeError):
            sim.schedule_at(5.0, lambda: None)

    def test_fifo_order_for_simultaneous_events(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(10))

    def test_priority_breaks_ties(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("low"), priority=5)
        sim.schedule(1.0, lambda: order.append("high"), priority=-5)
        sim.run()
        assert order == ["high", "low"]

    def test_time_ordering(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append(3))
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(2.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2, 3]

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_run_until_is_noop_for_past(self):
        sim = Simulator()
        sim.run_until(10.0)
        sim.run_until(5.0)
        assert sim.now == 10.0

    def test_run_until_processes_boundary_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(True))
        sim.run_until(5.0)
        assert fired == [True]

    def test_run_until_defers_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(True))
        sim.run_until(4.999)
        assert fired == []
        assert sim.peek() == 5.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(7):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 7

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def outer():
            times.append(sim.now)
            sim.schedule(2.0, inner)

        def inner():
            times.append(sim.now)

        sim.schedule(1.0, outer)
        sim.run()
        assert times == [1.0, 3.0]


class TestEvents:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        ev = sim.event("e")
        got = []
        ev._add_waiter(lambda e: got.append(e.value))
        ev.succeed(42)
        sim.run()
        assert got == [42]

    def test_double_resolution_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(ProcessError):
            ev.succeed()
        with pytest.raises(ProcessError):
            ev.fail(RuntimeError("x"))

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_waiting_on_resolved_event_fires_immediately(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("v")
        got = []
        ev._add_waiter(lambda e: got.append(e.value))
        sim.run()
        assert got == ["v"]

    def test_timeout_resolves_at_deadline(self):
        sim = Simulator()
        t = sim.timeout(3.5, value="done")
        sim.run()
        assert sim.now == 3.5
        assert t.ok and t.value == "done"

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimTimeError):
            sim.timeout(-0.5)


class TestConditions:
    def test_all_of_waits_for_all(self):
        sim = Simulator()
        t1, t2 = sim.timeout(1.0), sim.timeout(5.0)
        cond = sim.all_of([t1, t2])
        sim.run()
        assert cond.ok
        assert sim.now == 5.0

    def test_all_of_fails_on_child_failure(self):
        sim = Simulator()
        ev = sim.event()
        cond = sim.all_of([ev, sim.timeout(1.0)])
        ev.fail(RuntimeError("boom"))
        sim.run()
        assert cond.state == Event.FAILED

    def test_any_of_resolves_on_first(self):
        sim = Simulator()
        cond = sim.any_of([sim.timeout(10.0), sim.timeout(2.0)])

        def proc():
            yield cond
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 2.0

    def test_empty_all_of_is_vacuous(self):
        sim = Simulator()
        cond = sim.all_of([])
        assert cond.ok


class TestProcesses:
    def test_process_runs_and_returns(self):
        sim = Simulator()

        def body():
            yield 1.0
            yield 2.0
            return "result"

        p = sim.process(body())
        sim.run()
        assert p.ok and p.value == "result"
        assert sim.now == 3.0

    def test_numeric_yield_becomes_timeout(self):
        sim = Simulator()

        def body():
            yield 4
        sim.process(body())
        sim.run()
        assert sim.now == 4.0

    def test_process_waits_on_event_value(self):
        sim = Simulator()
        ev = sim.event()

        def body():
            value = yield ev
            return value

        p = sim.process(body())
        sim.schedule(2.0, lambda: ev.succeed("payload"))
        sim.run()
        assert p.value == "payload"

    def test_process_exception_fails_it(self):
        sim = Simulator()

        def body():
            yield 1.0
            raise ValueError("inner")

        p = sim.process(body())
        sim.run()
        assert p.state == Event.FAILED
        assert isinstance(p.value, ValueError)

    def test_failed_event_raises_inside_process(self):
        sim = Simulator()
        ev = sim.event()

        def body():
            try:
                yield ev
            except RuntimeError as e:
                return f"caught {e}"

        p = sim.process(body())
        sim.schedule(1.0, lambda: ev.fail(RuntimeError("bad")))
        sim.run()
        assert p.value == "caught bad"

    def test_non_waitable_yield_fails_process(self):
        sim = Simulator()

        def body():
            yield "nonsense"

        p = sim.process(body())
        sim.run()
        assert p.state == Event.FAILED
        assert isinstance(p.value, ProcessError)

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(ProcessError):
            sim.process(lambda: None)

    def test_interrupt_is_catchable(self):
        sim = Simulator()

        def body():
            try:
                yield 100.0
            except Interrupt as i:
                return (sim.now, f"interrupted: {i.cause}")

        p = sim.process(body())
        sim.schedule(1.0, lambda: p.interrupt("overload"))
        sim.run()
        when, message = p.value
        assert message == "interrupted: overload"
        assert when == 1.0  # resumed at interrupt time, not the timeout

    def test_uncaught_interrupt_fails_process(self):
        sim = Simulator()

        def body():
            yield 100.0

        p = sim.process(body())
        sim.schedule(1.0, lambda: p.interrupt())
        sim.run()
        assert p.state == Event.FAILED

    def test_waiting_on_another_process(self):
        sim = Simulator()

        def child():
            yield 3.0
            return 21

        def parent():
            c = sim.process(child())
            value = yield c
            return value * 2

        p = sim.process(parent())
        sim.run()
        assert p.value == 42

    def test_stale_wakeup_after_interrupt_ignored(self):
        sim = Simulator()
        hits = []

        def body():
            try:
                yield 5.0
            except Interrupt:
                yield 10.0  # new wait; old timeout must not wake us early
            hits.append(sim.now)

        p = sim.process(body())
        sim.schedule(1.0, lambda: p.interrupt())
        sim.run()
        assert hits == [11.0]


class TestTicker:
    def test_one_event_per_period_however_many_members(self):
        for members in (1, 50, 5000):
            sim = Simulator()
            hits = []
            for i in range(members):
                sim.ticker(10.0).subscribe(i, lambda: hits.append(sim.now))
            assert sim.queue_depth == 1
            sim.run_until(100.0)
            assert sim.events_processed == 10
            assert sim.queue_depth == 1
            assert len(hits) == 10 * members

    def test_fires_callbacks_in_subscription_order_after_the_count(self):
        sim = Simulator()
        ticker = sim.ticker(5.0)
        seen = []
        for name in "abc":
            ticker.subscribe(name, lambda n=name: seen.append(
                (n, ticker.count)))
        ticker.subscribe("a", lambda: seen.append(("a2", ticker.count)))
        sim.run_until(5.0)
        # "a" was re-subscribed: new callback, old place in the order
        assert seen == [("a2", 1), ("b", 1), ("c", 1)]

    def test_same_grid_shares_one_ticker_and_other_grids_do_not(self):
        sim = Simulator()
        first = sim.ticker(10.0)
        first.members += 1
        assert sim.ticker(10.0) is first
        assert sim.ticker(30.0) is not first
        sim.run_until(4.0)
        off_grid = sim.ticker(10.0)            # fires at 14, 24, ...
        assert off_grid is not first
        assert sim.ticker(6.0) not in (first, off_grid)  # same instant,
        sim.run_until(10.0)                              # other interval
        assert sim.ticker(10.0) is first

    def test_member_without_callback_reads_the_count(self):
        sim = Simulator()
        ticker = sim.ticker(10.0)
        ticker.members += 1
        sim.run_until(95.0)
        assert ticker.count == 9
        assert sim.events_processed == 9

    def test_ticker_nobody_rides_stops_rescheduling(self):
        sim = Simulator()
        ticker = sim.ticker(10.0)
        ticker.subscribe("x", lambda: None)
        ticker.members += 1
        sim.run_until(25.0)
        ticker.unsubscribe("x")
        ticker.members -= 1
        sim.run_until(1000.0)
        assert ticker.count == 3       # the pending firing, then nothing
        assert sim.queue_depth == 0
        assert not sim._tickers
        # the grid can be started again
        again = sim.ticker(10.0)
        assert again is not ticker and again.next_fire == 1010.0

    def test_abandoned_ticker_still_pending_can_be_rejoined(self):
        sim = Simulator()
        ticker = sim.ticker(10.0)
        ticker.members += 1
        sim.run_until(10.0)
        ticker.members -= 1
        assert sim.ticker(10.0) is ticker
        ticker.members += 1
        sim.run_until(50.0)
        assert ticker.count == 5

    def test_next_fire_accumulates_like_a_schedule_chain(self):
        """``now + interval`` at every firing — the float a
        ``schedule(interval, tick)`` chain lands on — never
        ``first + k * interval``."""
        interval = 0.1
        sim, chain_sim = Simulator(), Simulator()
        fires, chain = [], []
        sim.ticker(interval).subscribe("t", lambda: fires.append(sim.now))

        def tick():
            chain.append(chain_sim.now)
            chain_sim.schedule(interval, tick)
        chain_sim.schedule(interval, tick)
        sim.run_until(5.0)
        chain_sim.run_until(5.0)
        assert fires == chain
        assert fires != [interval + k * interval for k in range(len(fires))]

    def test_two_tickers_on_one_key_both_fire(self):
        """A ticker started at a grid instant *before* that grid's own
        ticker has fired there lands on the key the old one is about to
        take: both keep firing, the newcomer is the one found."""
        sim = Simulator()
        old = sim.ticker(10.0)
        hits = []
        old.subscribe("old", lambda: hits.append(("old", sim.now)))
        late = []
        # scheduled before the ticker re-arms itself for t=20, so it runs
        # at t=20 ahead of the firing
        sim.schedule_at(20.0, lambda: late.append(sim.ticker(10.0)))
        sim.run_until(20.0)
        new, = late
        assert new is not old
        new.subscribe("new", lambda: hits.append(("new", sim.now)))
        assert old.next_fire == new.next_fire == 30.0
        assert sim.ticker(10.0) is new
        del hits[:]
        sim.run_until(50.0)
        assert hits == [("new", 30.0), ("old", 30.0), ("new", 40.0),
                        ("old", 40.0), ("new", 50.0), ("old", 50.0)]
        assert sim.queue_depth == 2
        # the unfindable one still stops when its last rider leaves
        old.unsubscribe("old")
        sim.run_until(70.0)
        assert sim.queue_depth == 1 and sim.ticker(10.0) is new

    def test_joining_during_a_firing_starts_a_new_ticker(self):
        sim = Simulator()
        ticker = sim.ticker(10.0)
        found = []
        ticker.subscribe("x", lambda: found.append(sim.ticker(10.0)))
        sim.run_until(10.0)
        assert found[0] is not ticker
        assert found[0].next_fire == ticker.next_fire == 20.0

    def test_owned_ticker_is_never_found_on_the_grid(self):
        """A daemon's own ``Ticker`` fires at the grid's instants but is
        not handed out by :meth:`Simulator.ticker`: joining it would
        merge two kernel events into one."""
        sim = Simulator()
        owned = Ticker(sim, 10.0)
        owned.subscribe("daemon", lambda: None)
        shared = sim.ticker(10.0)
        assert shared is not owned
        shared.members += 1
        sim.run_until(10.0)
        assert sim.events_processed == 2
        assert sim.ticker(10.0) is shared

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError):
            Simulator().ticker(0.0)
