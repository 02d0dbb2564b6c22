"""Discrete-event simulation kernel.

The whole reproduction is driven by a small discrete-event engine: the task
runtime, the DVFS controllers and the memory hierarchy all schedule callbacks
on a shared :class:`Simulator`.  Time is measured in **seconds** (floats);
components that think in cycles convert through their local frequency.

The engine is deliberately minimal — a binary heap of timestamped events with
deterministic FIFO tie-breaking — because determinism matters more than
throughput here: every benchmark must produce identical numbers on every run.

Handles
-------
A scheduled event is the plain list ``[time, seq, callback, args]`` on the
heap, and that list is the handle :meth:`Simulator.schedule` returns
(:data:`EventHandle`): no other object is built per event.  ``seq`` is
unique, so the heap's list compare orders by ``(time, seq)`` and never
reaches the callback.  :meth:`Simulator.cancel` sets a pending handle's
callback to ``None`` and the loop drops the entry when it reaches the top;
the loop also clears the callback of an entry it fires, so a handle is
pending exactly while its callback is set.  ``len(queue)`` is the heap
size minus the dead entries still in it: O(1).

One loop
--------
:meth:`Simulator.run` is the only loop that fires events.  It keeps the
heap, the deferred batch and the clock in locals, and runs the deferred
batch (:meth:`Simulator.defer`) once the current timestamp has drained.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["EventHandle", "EventQueue", "Simulator", "SimulationError"]

#: A scheduled event, and the handle to it: ``[time, seq, callback, args]``
#: (``callback`` is ``None`` once the event fired or was cancelled).
EventHandle = List[Any]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class EventQueue:
    """Binary heap of :data:`EventHandle` entries in ``(time, seq)`` order.
    ``_dead`` counts the cancelled entries still in it (only fault
    injection cancels events, a handful per run)."""

    def __init__(self) -> None:
        self._heap: List[EventHandle] = []
        self._next_seq = itertools.count().__next__
        self._dead = 0

    def __len__(self) -> int:
        return len(self._heap) - self._dead

    def push(self, time: float, callback: Callable[..., None], args: tuple) -> EventHandle:
        entry = [time, self._next_seq(), callback, args]
        heapq.heappush(self._heap, entry)
        return entry

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` when empty."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    def pop(self) -> Optional[Tuple[float, Callable[..., None], tuple]]:
        """Remove the earliest pending event and return ``(time, callback,
        args)``, or ``None`` when empty.  Its handle counts as fired."""
        if self.peek_time() is None:
            return None
        entry = heapq.heappop(self._heap)
        time, _, callback, args = entry
        entry[2] = None
        return time, callback, args


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
        #: Events fired plus deferred batches run; counted when
        #: :meth:`run` returns.
        self.events_processed: int = 0
        self._deferred: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def defer(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the current timestamp's events drain.

        A deferred callback fires after every queued event whose time
        equals ``now`` (including events those events push at ``now``),
        and before the clock advances.  The runtime's dispatcher batches
        on it: N same-timestamp completions coalesce into one dispatch
        with no heap traffic.  Equivalent to ``schedule(0.0, callback)``
        whenever nothing else schedules zero-delay work at the timestamp
        after it (zero-duration completions, the only runtime source, are
        created by the dispatch itself and so ordered the same way).
        """
        self._deferred.append(callback)

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.queue.push(self.now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time} < now={self.now})"
            )
        return self.queue.push(time, callback, args)

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a pending event.  Returns ``False``, and does nothing,
        when the event already fired or was cancelled."""
        if handle[2] is None:
            return False
        handle[2] = None
        self.queue._dead += 1
        return True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        ``until`` is inclusive: events exactly at ``until`` still fire.  A
        deferred batch counts as one event.
        """
        queue = self.queue
        heap = queue._heap
        deferred = self._deferred
        heappop = heapq.heappop
        now = self.now
        stop = -1 if max_events is None else max(max_events, 0)
        n = 0
        try:
            while n != stop:
                if deferred and (not heap or heap[0][0] > now):
                    # The current timestamp has drained: run the deferred
                    # batch before the clock may advance.
                    batch = deferred
                    deferred = self._deferred = []
                    n += 1
                    for callback in batch:
                        callback()
                    continue
                if until is not None and not deferred:
                    # Deferred callbacks are due at the *current*
                    # timestamp, so only queued events can lie beyond the
                    # horizon.  An `until` in the past never rewinds.
                    next_time = queue.peek_time()
                    if next_time is None:
                        break
                    if next_time > until:
                        if until > now:
                            self.now = until
                        break
                if not heap:
                    break
                entry = heappop(heap)
                time, _, callback, args = entry
                if callback is None:
                    queue._dead -= 1
                    continue
                entry[2] = None
                if time < now:
                    raise SimulationError("event queue yielded an event in the past")
                self.now = now = time
                n += 1
                callback(*args)
        finally:
            self.events_processed += n
