"""Tasks and data dependences — the vocabulary of the OmpSs-like runtime.

The paper's central thesis is that parallel programs should be expressed as
**tasks with data dependences**, handled by the runtime *"in the same way as
superscalar processors manage ILP"*.  A task therefore declares the data
regions it reads and writes (:class:`Region` + :class:`DepKind`), and the
runtime derives the Task Dependency Graph from those declarations — the
programmer never names another task.

Task as a thin handle
---------------------
A :class:`Task` owns only its *description* (label, cost, declared
accesses, optional real function) and per-dispatch handle fields
(``core_id``, ``result``).  All graph-structural state — adjacency, ready
counts, depth, state, criticality — **and the per-task lifecycle
timestamps** (``submit_time`` / ``ready_time`` / ``start_time`` /
``end_time``) live in id-keyed arrays on the owning
:class:`~repro.core.graph.TaskGraph`; ``task.gid`` is the task's dense
index into those arrays.  The ``predecessors`` / ``successors`` /
``unfinished_preds`` / ``state`` / ``depth`` / ``bottom_level`` /
``critical`` / timestamp attributes remain available as properties that
delegate to the graph (falling back to local slots while a task is
detached), so existing user code keeps working; the hot paths in the
runtime bypass the properties and touch the arrays directly.  Keeping the
timestamps in graph arrays means completion-side bookkeeping never has to
resolve ``tasks[gid]`` handles just to stamp times, and post-run
analytics (:mod:`repro.core.analytics`) can pivot whole campaigns without
materialising any Task collection.

Region interning
----------------
Workload builders emit the same ``(name, start, stop)`` triples over and
over (every tile of a factorisation is touched by O(nt) tasks).
:meth:`Region.interned` maps each distinct triple to one canonical
:class:`Region` instance, which buys two things: builders stop allocating
duplicate frozen dataclasses, and the dependence tracker can cache its
per-region history slot *on the canonical instance* (see
``_hist``/``_hist_owner``), so repeat accesses resolve by identity —
two attribute loads — instead of re-hashing name strings and bound
tuples on every declared access.

Cost model
----------
Simulated tasks carry a first-order execution cost split into a
frequency-scaling compute part and a frequency-insensitive memory part::

    duration(core) = cpu_cycles / f_core  +  mem_seconds

``mem_seconds`` models time spent waiting on the memory system, which DVFS
cannot shrink; a task with large ``mem_seconds`` sees little benefit from
turbo — exactly the effect that makes boosting *critical, compute-bound*
tasks the right power play in Section 3.1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import TaskGraph

__all__ = [
    "DepKind",
    "Region",
    "Dependence",
    "Task",
    "TaskState",
    "clear_region_intern",
]


class DepKind(Enum):
    """OmpSs/OpenMP-4.0 dependence kinds.

    ``IN``          task reads the region.
    ``OUT``         task overwrites the region (no read of prior value).
    ``INOUT``       task reads and writes the region.
    ``CONCURRENT``  tasks in a consecutive concurrent group may run in
                    parallel with each other (e.g. atomically-updated
                    reductions) but are ordered against ordinary readers and
                    writers on both sides.
    ``COMMUTATIVE`` tasks may run in any order but not simultaneously; this
                    runtime realises commutativity conservatively by chaining
                    them in submission order, which is always a legal
                    execution of the relaxed semantics.
    """

    IN = "in"
    OUT = "out"
    INOUT = "inout"
    CONCURRENT = "concurrent"
    COMMUTATIVE = "commutative"

    @property
    def writes(self) -> bool:
        return self in (DepKind.OUT, DepKind.INOUT, DepKind.COMMUTATIVE)

    @property
    def reads(self) -> bool:
        return self in (DepKind.IN, DepKind.INOUT, DepKind.CONCURRENT, DepKind.COMMUTATIVE)


#: Sentinel meaning "the whole object" when a region is built from a name only.
_WHOLE = (0, 1 << 62)


@dataclass(frozen=True, slots=True)
class Region:
    """A named address range, the unit of dependence matching.

    Mirrors Nanos++'s region-based dependence tracker: two accesses conflict
    when they touch the *same name* and their ``[start, stop)`` intervals
    overlap.  ``Region("x")`` denotes the whole object ``x``;
    ``Region("x", 0, 64)`` its first 64 bytes (or elements — the unit is the
    caller's, only consistency matters).

    ``slots=True``: the dependence tracker reads ``name``/``start``/``stop``
    for every declared access of every submitted task, so fixed slots keep
    those reads off the per-instance ``__dict__``.

    ``_hist`` / ``_hist_owner`` are the dependence tracker's identity
    cache: the :class:`~repro.core.deps.DependenceTracker` that last
    resolved this exact region instance stashes its history slot here, so
    the next access through the *same instance* (guaranteed by interning)
    skips the name and extent hash lookups entirely.  They are excluded
    from equality, hashing, repr and pickles.
    """

    name: str
    start: int = _WHOLE[0]
    stop: int = _WHOLE[1]
    # Tracker identity cache (see class docstring).  ``compare=False``
    # keeps them out of __eq__/__hash__; custom __getstate__ keeps them
    # out of pickles (a cached history would drag the whole tracker in).
    _hist_owner: Any = field(default=None, init=False, repr=False, compare=False)
    _hist: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise ValueError(f"empty region [{self.start}, {self.stop})")

    def overlaps(self, other: "Region") -> bool:
        return (
            self.name == other.name
            and self.start < other.stop
            and other.start < self.stop
        )

    def __getstate__(self) -> Tuple[str, int, int]:
        # Drop the tracker cache: pickling/deepcopy must never serialise
        # a history chain, and a clone belongs to no tracker.
        return (self.name, self.start, self.stop)

    def __setstate__(self, state: Tuple[str, int, int]) -> None:
        for slot, value in zip(("name", "start", "stop"), state):
            object.__setattr__(self, slot, value)
        object.__setattr__(self, "_hist_owner", None)
        object.__setattr__(self, "_hist", None)

    @classmethod
    def of(cls, spec: "Region | str | Tuple[str, int, int]") -> "Region":
        """Coerce a user-facing spec into a Region."""
        if isinstance(spec, Region):
            return spec
        if isinstance(spec, str):
            return cls(spec)
        if isinstance(spec, tuple) and len(spec) == 3:
            return cls(spec[0], spec[1], spec[2])
        raise TypeError(f"cannot interpret {spec!r} as a data region")

    @classmethod
    def interned(cls, spec: "Region | str | Tuple[str, int, int]") -> "Region":
        """Coerce like :meth:`of`, but return the canonical instance.

        Every distinct ``(name, start, stop)`` triple maps to exactly one
        :class:`Region` object per process, so workload builders that
        declare the same region across many tasks share a single frozen
        instance — and the tracker's identity cache on it.  The table is
        bounded by the number of *distinct* regions ever interned (ring
        buffers and tile grids recur; see :func:`clear_region_intern` for
        explicit resets in long-lived processes).
        """
        if isinstance(spec, Region):
            key = (spec.name, spec.start, spec.stop)
        elif isinstance(spec, str):
            key = (spec, _WHOLE[0], _WHOLE[1])
        else:
            key = spec
        region = _REGION_INTERN.get(key)
        if region is None:
            region = _REGION_INTERN[key] = cls.of(spec)
        return region


#: (name, start, stop) -> canonical Region instance (see Region.interned).
_REGION_INTERN: dict = {}


def clear_region_intern() -> int:
    """Empty the canonical-region table; returns how many were dropped.

    Interned regions also anchor the tracker identity caches, so a
    long-lived process that is done with a workload family can call this
    to release both in one step.
    """
    n = len(_REGION_INTERN)
    _REGION_INTERN.clear()
    return n


@dataclass(frozen=True, slots=True)
class Dependence:
    """One declared access of a task: (kind, region)."""

    kind: DepKind
    region: Region


class TaskState(Enum):
    CREATED = "created"
    READY = "ready"
    RUNNING = "running"
    FINISHED = "finished"


_task_ids = itertools.count()


@dataclass(slots=True)
class Task:
    """A schedulable unit of work with declared data accesses.

    ``slots=True``: the runtime reads task descriptions (costs, deps) on
    every dispatch, so fixed slots instead of a per-instance ``__dict__``
    shave the hot-path attribute traffic the ROADMAP flags.  Lifecycle
    timestamps live in the owning graph's arrays (the properties below
    delegate); ad-hoc attributes can no longer be attached to tasks —
    extend the dataclass instead.

    Parameters
    ----------
    label:
        Human-readable name (used in traces).
    cpu_cycles:
        Frequency-scaling compute work.
    mem_seconds:
        Frequency-insensitive memory time.
    deps:
        Declared accesses; build with :meth:`Task.make` or the
        :func:`repro.core.api.task` decorator.
    fn / args / kwargs:
        Optional real Python work executed when the simulated task completes
        (completion order is a topological order of the TDG, so real values
        are always dataflow-consistent).
    priority:
        Larger runs earlier among equally-ready tasks (scheduler specific).
    """

    label: str = "task"
    cpu_cycles: float = 1e6
    mem_seconds: float = 0.0
    deps: List[Dependence] = field(default_factory=list)
    fn: Optional[Callable[..., Any]] = None
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    priority: int = 0

    # identity ---------------------------------------------------------------
    task_id: int = field(default_factory=lambda: next(_task_ids))
    #: Dense id in the owning graph's struct-of-arrays storage.  ``-1``
    #: while detached; assigned by :meth:`TaskGraph.add_task` (or, for a
    #: graphless :class:`~repro.core.deps.DependenceTracker`, a negative
    #: tracker-local id ``<= -2``).
    gid: int = -1
    #: The owning :class:`~repro.core.graph.TaskGraph`, or ``None`` while
    #: detached.  Set by ``TaskGraph.add_task``.
    graph: Optional["TaskGraph"] = None

    # detached-task fallbacks for the graph-owned attributes -----------------
    _state: TaskState = TaskState.CREATED
    _critical: bool = False
    _bottom_level: float = 0.0
    _depth: int = 0
    _submit_time: Optional[float] = None
    _ready_time: Optional[float] = None
    _start_time: Optional[float] = None
    _end_time: Optional[float] = None

    # bookkeeping filled in by the executor (handle-local: dispatch target
    # and the real function's return value)
    core_id: Optional[int] = None
    result: Any = None

    def __post_init__(self) -> None:
        if self.cpu_cycles < 0 or self.mem_seconds < 0:
            raise ValueError("task cost components must be non-negative")

    # ------------------------------------------------------------------
    @classmethod
    def make(
        cls,
        label: str = "task",
        cpu_cycles: float = 1e6,
        mem_seconds: float = 0.0,
        in_: Sequence = (),
        out: Sequence = (),
        inout: Sequence = (),
        concurrent: Sequence = (),
        commutative: Sequence = (),
        fn: Optional[Callable[..., Any]] = None,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        priority: int = 0,
    ) -> "Task":
        """Convenience constructor turning region specs into dependences."""
        deps: List[Dependence] = []
        for kind, specs in (
            (DepKind.IN, in_),
            (DepKind.OUT, out),
            (DepKind.INOUT, inout),
            (DepKind.CONCURRENT, concurrent),
            (DepKind.COMMUTATIVE, commutative),
        ):
            for spec in specs:
                deps.append(Dependence(kind, Region.of(spec)))
        return cls(
            label=label,
            cpu_cycles=cpu_cycles,
            mem_seconds=mem_seconds,
            deps=deps,
            fn=fn,
            args=args,
            kwargs=kwargs if kwargs is not None else {},
            priority=priority,
        )

    # ------------------------------------------------------------------
    # graph-owned state, delegated through the handle
    # ------------------------------------------------------------------
    @property
    def state(self) -> TaskState:
        g = self.graph
        return g.state[self.gid] if g is not None else self._state

    @state.setter
    def state(self, value: TaskState) -> None:
        g = self.graph
        if g is not None:
            g.state[self.gid] = value
        else:
            self._state = value

    @property
    def critical(self) -> bool:
        g = self.graph
        return g.critical[self.gid] if g is not None else self._critical

    @critical.setter
    def critical(self, value: bool) -> None:
        g = self.graph
        if g is not None:
            g.critical[self.gid] = value
        else:
            self._critical = value

    @property
    def bottom_level(self) -> float:
        g = self.graph
        return g.bottom_level[self.gid] if g is not None else self._bottom_level

    @bottom_level.setter
    def bottom_level(self, value: float) -> None:
        g = self.graph
        if g is not None:
            g.bottom_level[self.gid] = value
        else:
            self._bottom_level = value

    @property
    def depth(self) -> int:
        g = self.graph
        return g.depth[self.gid] if g is not None else self._depth

    @depth.setter
    def depth(self, value: int) -> None:
        g = self.graph
        if g is not None:
            g.depth[self.gid] = value
        else:
            self._depth = value

    @property
    def submit_time(self) -> Optional[float]:
        g = self.graph
        return g.submit_time[self.gid] if g is not None else self._submit_time

    @submit_time.setter
    def submit_time(self, value: Optional[float]) -> None:
        g = self.graph
        if g is not None:
            g.submit_time[self.gid] = value
        else:
            self._submit_time = value

    @property
    def ready_time(self) -> Optional[float]:
        g = self.graph
        return g.ready_time[self.gid] if g is not None else self._ready_time

    @ready_time.setter
    def ready_time(self, value: Optional[float]) -> None:
        g = self.graph
        if g is not None:
            g.ready_time[self.gid] = value
        else:
            self._ready_time = value

    @property
    def start_time(self) -> Optional[float]:
        g = self.graph
        return g.start_time[self.gid] if g is not None else self._start_time

    @start_time.setter
    def start_time(self, value: Optional[float]) -> None:
        g = self.graph
        if g is not None:
            g.start_time[self.gid] = value
        else:
            self._start_time = value

    @property
    def end_time(self) -> Optional[float]:
        g = self.graph
        return g.end_time[self.gid] if g is not None else self._end_time

    @end_time.setter
    def end_time(self, value: Optional[float]) -> None:
        g = self.graph
        if g is not None:
            g.end_time[self.gid] = value
        else:
            self._end_time = value

    @property
    def unfinished_preds(self) -> int:
        """Ready count: predecessors not yet finished (0 while detached)."""
        g = self.graph
        return g.unfinished_preds[self.gid] if g is not None else 0

    @property
    def predecessors(self) -> Set["Task"]:
        """Snapshot set of predecessor tasks (a fresh set, not live graph
        state — mutate the graph through its API, not through this view)."""
        g = self.graph
        if g is None:
            return set()
        tasks = g.tasks
        return {tasks[i] for i in g.pred_ids[self.gid]}

    @property
    def successors(self) -> Set["Task"]:
        """Snapshot set of successor tasks (see :attr:`predecessors`)."""
        g = self.graph
        if g is None:
            return set()
        tasks = g.tasks
        return {tasks[i] for i in g.succ_ids[self.gid]}

    # ------------------------------------------------------------------
    def duration_at(self, frequency_hz: float) -> float:
        """Execution time at a given core frequency (seconds)."""
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        return self.cpu_cycles / frequency_hz + self.mem_seconds

    def reference_work(self, reference_hz: float = 1e9) -> float:
        """Scalar 'amount of work' used by critical-path analysis.

        Measured as the duration at a reference frequency so that compute
        and memory components combine into one number.
        """
        return self.duration_at(reference_hz)

    def writes_any(self) -> bool:
        return any(d.kind.writes for d in self.deps)

    def __hash__(self) -> int:
        return self.task_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Task) and other.task_id == self.task_id

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Task(#{self.task_id} {self.label!r}, {self.state.value})"
