"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.events import EventQueue, SimulationError, Simulator


class TestEventQueue:
    def test_pop_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(3.0, fired.append, "c")
        q.push(1.0, fired.append, "a")
        q.push(2.0, fired.append, "b")
        order = []
        while (e := q.pop()) is not None:
            order.append(e.time)
        assert order == [1.0, 2.0, 3.0]

    def test_fifo_tie_break_at_same_time(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        second = q.push(1.0, lambda: None)
        assert q.pop() is first
        assert q.pop() is second

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        e2 = q.push(2.0, lambda: None)
        e1.cancel()
        assert q.pop() is e2
        assert q.pop() is None

    def test_len_ignores_cancelled(self):
        q = EventQueue()
        e = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        e.cancel()
        assert len(q) == 1

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        e = q.push(1.0, lambda: None)
        q.push(5.0, lambda: None)
        e.cancel()
        assert q.peek_time() == 5.0

    def test_double_cancel_counts_once(self):
        q = EventQueue()
        e = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        e.cancel()
        e.cancel()
        assert len(q) == 1

    def test_cancel_after_pop_does_not_corrupt_count(self):
        q = EventQueue()
        e = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert q.pop() is e
        e.cancel()  # already fired: must not decrement the live count
        assert len(q) == 1
        assert q.pop() is not None
        assert q.pop() is None


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

    def test_reset(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.queue.pop() is None

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


class TestEventSlots:
    """Event is slotted (hot-path memory/attr-traffic optimisation)."""

    def test_event_has_no_instance_dict(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        assert not hasattr(event, "__dict__")
        with pytest.raises(AttributeError):
            event.ad_hoc_attribute = 1

    def test_cancel_still_works_with_slots(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, 1)
        event.cancel()
        sim.run()
        assert fired == []
