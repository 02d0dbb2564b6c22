"""Discrete-event simulation kernel.

The whole reproduction is driven by a small discrete-event engine: the task
runtime, the DVFS controllers and the memory hierarchy all schedule callbacks
on a shared :class:`Simulator`.  Time is measured in **seconds** (floats);
components that think in cycles convert through their local frequency.

The engine is deliberately minimal — a binary heap of timestamped events with
deterministic FIFO tie-breaking — because determinism matters more than
throughput here: every benchmark must produce identical numbers on every run.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["Event", "EventQueue", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    Events fire in ``(time, seq)`` order: two events at the same timestamp
    fire in the order they were scheduled, which keeps runs reproducible.
    The heap holds ``(time, seq, event)`` tuples, so ordering is a C tuple
    compare that never reaches the event (``(time, seq)`` is unique).

    ``slots=True``: events are the highest-churn allocation in the kernel
    (one per task completion, dispatch and DVFS transition), so dropping
    the per-instance ``__dict__`` measurably cuts attribute traffic and
    memory on the hot path.
    """

    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)
    _queue: Optional["EventQueue"] = field(compare=False, default=None, repr=False)

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._live -= 1

    @property
    def pending(self) -> bool:
        """True while the event is still queued (not fired, not cancelled).

        The runtime's abort-in-flight path uses this to assert a task's
        completion event is actually cancellable before killing it.
        """
        return not self.cancelled and self._queue is not None


class EventQueue:
    """Binary-heap priority queue of :class:`Event` with stable ordering.

    Live-event count is tracked incrementally so ``len()`` is O(1).
    Cancelled entries stay in the heap until they reach the top, where
    ``pop``/``peek_time`` discard them (only fault injection cancels
    events, a handful per run).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        seq = next(self._counter)
        event = Event(time, seq, callback, args, _queue=self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Pop the earliest live event, or ``None`` when empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                self._live -= 1
                event._queue = None  # fired: a late cancel() must not recount
                return event
        return None

    def peek_time(self) -> Optional[float]:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None


class Simulator:
    """Discrete-event simulator with a monotonically advancing clock.

    Usage::

        sim = Simulator()
        sim.schedule(1e-6, lambda: print("fired at", sim.now))
        sim.run()
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self.queue = EventQueue()
        self.events_processed: int = 0
        self._deferred: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def defer(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the current timestamp's events drain.

        A deferred callback fires after every queued event whose time
        equals ``now`` (including events those events push at ``now``),
        and before the clock advances to the next timestamp.  This is the
        batching primitive the task runtime's dispatcher uses: N
        same-timestamp task completions coalesce into one deferred
        dispatch with zero event-queue traffic, where scheduling a
        zero-delay event per wake-up would pay one heap push+pop each.

        Equivalent to ``schedule(0.0, callback)`` whenever nothing else
        schedules zero-delay work at the same timestamp after the trampoline
        (the only runtime source of such events — zero-duration task
        completions — is itself created by the dispatch and therefore
        ordered identically under both mechanisms).
        """
        self._deferred.append(callback)
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.queue.push(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time} < now={self.now})"
            )
        return self.queue.push(time, callback, *args)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process one event (or one deferred batch when the current
        timestamp has drained).  Returns ``False`` when nothing is left."""
        if self._deferred:
            next_time = self.queue.peek_time()
            if next_time is None or next_time > self.now:
                # The current timestamp has drained: flush the deferred
                # batch before the clock may advance.
                batch, self._deferred = self._deferred, []
                self.events_processed += 1
                for callback in batch:
                    callback()
                return True
        event = self.queue.pop()
        if event is None:
            return False
        if event.time < self.now:
            raise SimulationError("event queue yielded an event in the past")
        self.now = event.time
        self.events_processed += 1
        event.callback(*event.args)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        ``until`` is inclusive: events exactly at ``until`` still fire.
        """
        processed = 0
        while True:
            if max_events is not None and processed >= max_events:
                return
            if not self._deferred:
                # Deferred callbacks are due at the *current* timestamp,
                # so they are never beyond the horizon; only queued events
                # can be.
                next_time = self.queue.peek_time()
                if next_time is None:
                    return
                if until is not None and next_time > until:
                    # Advance to the horizon, but never rewind: an `until`
                    # in the past must leave the clock where it is.
                    if until > self.now:
                        self.now = until
                    return
            self.step()
            processed += 1

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero."""
        self.queue = EventQueue()
        self.now = 0.0
        self.events_processed = 0
        self._deferred = []
