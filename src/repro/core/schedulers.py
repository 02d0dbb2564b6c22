"""Ready-task schedulers.

The runtime decouples *when a task becomes ready* (dataflow) from *where and
in what order it runs* (the scheduler).  These are the policies evaluated
throughout the BSC runtime-aware line of work:

* :class:`FifoScheduler` / :class:`LifoScheduler` — baseline orders.
* :class:`BreadthFirstScheduler` — prefers shallow tasks, maximising the
  exposed window (good for wide graphs).
* :class:`BottomLevelScheduler` — classic list scheduling: largest bottom
  level first (HLF), the order that minimises makespan on balanced graphs.
* :class:`WorkStealingScheduler` — per-core LIFO deques with FIFO steals
  (Cilk discipline), deterministic victim choice for reproducibility.
* :class:`CriticalityAwareScheduler` — the CATS policy of Section 3.1: two
  queues (critical / non-critical); fast cores drain the critical queue
  first, slow cores the non-critical one.
* :class:`StaticScheduler` — round-robin static assignment, the baseline the
  paper's 6.6%/20.0% improvements are measured against.

Id-keyed interface
------------------
Schedulers queue **dense task ids** (``task.gid``), not Task objects, and
read any per-task keys they need (depth, bottom level, criticality) from
the id-indexed arrays of the :class:`~repro.core.graph.TaskGraph` view
bound via :meth:`Scheduler.bind` — the runtime binds its graph at
construction; standalone use must bind explicitly.  Policies that consult
no per-task state (FIFO, LIFO, work stealing, static) work unbound too.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import TaskGraph
    from .task import Task

__all__ = [
    "Scheduler",
    "FifoScheduler",
    "LifoScheduler",
    "BreadthFirstScheduler",
    "BottomLevelScheduler",
    "WorkStealingScheduler",
    "CriticalityAwareScheduler",
    "StaticScheduler",
]


class Scheduler:
    """Interface: the runtime pushes ready task ids and cores pop them.

    The dispatcher short-circuits on scheduler truthiness, which Python
    reads from ``__len__``, so ``__len__`` (and therefore ``ready_ids``
    if the O(n) fallback is inherited) must be implemented and accurate:
    reporting empty while tasks are queued would strand them forever.
    """

    #: The bound id → Task view (a TaskGraph), or None while unbound.
    graph: Optional["TaskGraph"] = None

    def bind(self, graph: "TaskGraph") -> None:
        """Attach the graph whose id-keyed arrays supply ordering keys.

        Called by :class:`~repro.core.runtime.Runtime` at construction;
        rebinding (e.g. reusing a scheduler across runtimes) replaces the
        view.
        """
        self.graph = graph

    def push(self, gid: int, hint_core: Optional[int] = None) -> None:
        raise NotImplementedError

    def pop(self, core_id: int) -> Optional[int]:
        raise NotImplementedError

    def ready_ids(self) -> Sequence[int]:
        """Snapshot of queued task ids (used by criticality heuristics)."""
        raise NotImplementedError

    def ready_tasks(self) -> List["Task"]:
        """Queued tasks as handles, resolved through the bound view."""
        tasks = self.graph.tasks
        return [tasks[g] for g in self.ready_ids()]

    def __len__(self) -> int:
        """Number of queued tasks.

        The dispatcher consults this on every wakeup, so subclasses must
        override it with an O(1) counter — this fallback walks
        :meth:`ready_ids` and is O(n).
        """
        return sum(1 for _ in self.ready_ids())


class FifoScheduler(Scheduler):
    """Single global FIFO queue."""

    def __init__(self) -> None:
        self._queue: deque[int] = deque()

    def push(self, gid: int, hint_core: Optional[int] = None) -> None:
        self._queue.append(gid)

    def pop(self, core_id: int) -> Optional[int]:
        return self._queue.popleft() if self._queue else None

    def ready_ids(self) -> Sequence[int]:
        return list(self._queue)

    def __len__(self) -> int:
        return len(self._queue)


class LifoScheduler(FifoScheduler):
    """Single global LIFO stack (depth-first execution)."""

    def pop(self, core_id: int) -> Optional[int]:
        return self._queue.pop() if self._queue else None


class _HeapScheduler(Scheduler):
    """Shared machinery for priority-ordered global queues.

    Subclasses set ``self._key`` (gid -> sort key) when the graph view is
    bound; pushing before :meth:`bind` raises, since the key arrays live
    on the graph.
    """

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._key: Optional[Callable[[int], float]] = None

    def push(self, gid: int, hint_core: Optional[int] = None) -> None:
        if self._key is None:
            raise RuntimeError(
                f"{type(self).__name__} must be bound to a TaskGraph "
                "(scheduler.bind(graph)) before tasks are pushed"
            )
        heapq.heappush(self._heap, (self._key(gid), next(self._seq), gid))

    def pop(self, core_id: int) -> Optional[int]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def ready_ids(self) -> Sequence[int]:
        return [entry[2] for entry in self._heap]

    def __len__(self) -> int:
        return len(self._heap)


class BreadthFirstScheduler(_HeapScheduler):
    """Shallowest-depth-first order (submission order breaks ties)."""

    def bind(self, graph: "TaskGraph") -> None:
        super().bind(graph)
        # Bound method of the graph's depth array: the push key is a
        # C-level list index, no lambda frame per push.
        self._key = graph.depth.__getitem__


class BottomLevelScheduler(_HeapScheduler):
    """Highest-bottom-level-first (HLF) list scheduling.

    Requires ``graph.compute_bottom_levels()`` (the runtime's criticality
    policies call it); tasks pushed with zero bottom level degrade to FIFO.
    """

    def bind(self, graph: "TaskGraph") -> None:
        super().bind(graph)
        levels = graph.bottom_level
        self._key = lambda gid: -levels[gid]


class WorkStealingScheduler(Scheduler):
    """Per-core deques, LIFO owner pops, FIFO steals from the fullest victim.

    Victim selection is deterministic (max queue length, lowest core id as
    tie-break) so simulated runs are exactly reproducible.
    """

    def __init__(self, n_cores: int) -> None:
        if n_cores < 1:
            raise ValueError("need at least one core")
        self._deques: List[deque[int]] = [deque() for _ in range(n_cores)]
        self._rr = itertools.count()
        self._n = 0
        self.steals = 0

    def push(self, gid: int, hint_core: Optional[int] = None) -> None:
        if hint_core is None:
            hint_core = next(self._rr) % len(self._deques)
        self._deques[hint_core % len(self._deques)].append(gid)
        self._n += 1

    def pop(self, core_id: int) -> Optional[int]:
        own = self._deques[core_id % len(self._deques)]
        if own:
            self._n -= 1
            return own.pop()  # LIFO on own deque: locality
        victim = max(
            range(len(self._deques)),
            key=lambda i: (len(self._deques[i]), -i),
        )
        if self._deques[victim]:
            self.steals += 1
            self._n -= 1
            return self._deques[victim].popleft()  # FIFO steal: oldest work
        return None

    def ready_ids(self) -> Sequence[int]:
        out: List[int] = []
        for dq in self._deques:
            out.extend(dq)
        return out

    def __len__(self) -> int:
        return self._n


class CriticalityAwareScheduler(Scheduler):
    """CATS: critical tasks first, on every core.

    Criticality is read from the bound graph's ``critical`` array at push
    time (the runtime's policy writes it just before pushing).  With a
    DVFS/RSU machine the fast/slow partition is dynamic (any core boosts
    when given a critical task), so every core pops the critical queue
    while it is non-empty, then the normal one, each in FIFO order.
    """

    def __init__(self) -> None:
        self._critical: deque[int] = deque()
        self._normal: deque[int] = deque()

    def push(self, gid: int, hint_core: Optional[int] = None) -> None:
        graph = self.graph
        if graph is None:
            raise RuntimeError(
                "CriticalityAwareScheduler must be bound to a TaskGraph "
                "(scheduler.bind(graph)) before tasks are pushed"
            )
        if graph.critical[gid]:
            self._critical.append(gid)
        else:
            self._normal.append(gid)

    def pop(self, core_id: int) -> Optional[int]:
        if self._critical:
            return self._critical.popleft()
        if self._normal:
            return self._normal.popleft()
        return None

    def ready_ids(self) -> Sequence[int]:
        return list(self._critical) + list(self._normal)

    def __len__(self) -> int:
        return len(self._critical) + len(self._normal)


class StaticScheduler(Scheduler):
    """Round-robin static assignment: task i runs on core i mod N.

    Cores only execute their own queue — no load balancing, no criticality.
    This is the "static scheduling approach" baseline of Section 3.1.
    """

    def __init__(self, n_cores: int) -> None:
        if n_cores < 1:
            raise ValueError("need at least one core")
        self._queues: List[deque[int]] = [deque() for _ in range(n_cores)]
        self._next = itertools.count()
        self._n = 0

    def push(self, gid: int, hint_core: Optional[int] = None) -> None:
        core = hint_core if hint_core is not None else next(self._next)
        self._queues[core % len(self._queues)].append(gid)
        self._n += 1

    def pop(self, core_id: int) -> Optional[int]:
        own = self._queues[core_id % len(self._queues)]
        if own:
            self._n -= 1
            return own.popleft()
        return None

    def ready_ids(self) -> Sequence[int]:
        out: List[int] = []
        for dq in self._queues:
            out.extend(dq)
        return out

    def __len__(self) -> int:
        return self._n
