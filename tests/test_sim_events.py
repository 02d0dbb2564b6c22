"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.events import EventQueue, SimulationError, Simulator


class TestEventQueue:
    """Heap order and cancellation, driven through ``schedule_at``/``cancel``."""

    def test_pop_orders_by_time(self):
        sim = Simulator()
        fired = []
        for t in (3.0, 1.0, 2.0):
            sim.schedule_at(t, fired.append, t)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_fifo_tie_break_at_same_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, "first")
        sim.schedule_at(1.0, fired.append, "second")
        sim.run()
        assert fired == ["first", "second"]

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        fired = []
        e1 = sim.schedule_at(1.0, fired.append, 1)
        sim.schedule_at(2.0, fired.append, 2)
        assert sim.cancel(e1) is True
        sim.run()
        assert fired == [2]
        assert sim.events_processed == 1

    def test_len_ignores_cancelled(self):
        sim = Simulator()
        e = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert len(sim.queue) == 2
        sim.cancel(e)
        assert len(sim.queue) == 1
        sim.run()
        assert len(sim.queue) == 0

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        e = sim.schedule_at(1.0, lambda: None)
        last = sim.schedule_at(5.0, lambda: None)
        sim.cancel(e)
        assert sim.queue.peek_time() == 5.0
        sim.cancel(last)
        assert sim.queue.peek_time() is None
        # A queue holding only cancelled events is drained: a horizon
        # does not move the clock.
        sim.run(until=3.0)
        assert sim.now == 0.0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        e = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.cancel(e) is True
        assert sim.cancel(e) is False
        assert len(sim.queue) == 1

    def test_cancel_after_pop_does_not_corrupt_count(self):
        sim = Simulator()
        fired = []
        e = sim.schedule_at(1.0, fired.append, 1)
        sim.schedule_at(2.0, fired.append, 2)
        sim.run(max_events=1)
        assert fired == [1]
        assert sim.cancel(e) is False  # already fired: nothing to undo
        assert len(sim.queue) == 1
        sim.run()
        assert fired == [1, 2]
        assert len(sim.queue) == 0

    def test_pop_returns_the_event_and_marks_it_fired(self):
        q = EventQueue()
        f = lambda *a: None  # noqa: E731
        late = q.push(2.0, f, ("b",))
        early = q.push(1.0, f, ("a",))
        assert q.pop() == (1.0, f, ("a",))
        assert early[2] is None and late[2] is f
        assert len(q) == 1

    def test_a_callback_can_cancel_an_event_at_its_own_timestamp(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(sim.cancel(victim)))
        victim = sim.schedule_at(1.0, fired.append, "victim")
        sim.run()
        assert fired == [True]
        assert sim.events_processed == 1


class TestSimulator:
    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        times = []
        sim.schedule(2.0, lambda: times.append(sim.now))
        sim.schedule(1.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 2.0]
        assert sim.now == 2.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        log = []

        def chain(n):
            log.append((sim.now, n))
            if n > 0:
                sim.schedule(1.0, chain, n - 1)

        sim.schedule(0.0, chain, 3)
        sim.run()
        assert log == [(0.0, 3), (1.0, 2), (2.0, 1), (3.0, 0)]

    def test_run_until_is_inclusive_and_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(until=1.0)
        assert fired == [1]
        assert sim.now == 1.0
        sim.run()
        assert fired == [1, 2]

    def test_max_events_limit(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        sim.run(max_events=4)
        assert sim.events_processed == 4

    def test_run_until_in_past_does_not_rewind_clock(self):
        """Regression: run(until=t) with t < now must not move time back."""
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        sim.schedule(3.0, lambda: None)  # pending event at t=8
        sim.run(until=2.0)  # horizon already in the past
        assert sim.now == 5.0
        sim.run()
        assert sim.now == 8.0

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(1.0, log.append, i)
        sim.run()
        assert log == [0, 1, 2, 3, 4]
