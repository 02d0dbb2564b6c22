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
accesses, optional real function) and the real function's ``result``.
All graph-structural state — adjacency, ready counts, depth, state,
criticality — **and the per-task execution record** (``submit_time`` /
``ready_time`` / ``start_time`` / ``end_time`` timestamps, and the core
and DVFS level a task ran at) live in id-keyed arrays on the owning
:class:`~repro.core.graph.TaskGraph`; ``task.gid`` is the task's dense
index into those arrays, which are the *only* store of that state.  The
gid is also the task's only identity: it is the task's place in
submission order, as an instruction's place in program order identifies
it in a superscalar core.  Tasks compare and hash by object identity,
and a task belongs to at most one live graph: registering a task whose
:attr:`~Task.graph` is not ``None`` raises ``ValueError``.  The
``predecessors`` / ``successors`` / ``unfinished_preds`` / ``state`` /
``depth`` / ``bottom_level`` / ``critical`` / timestamp attributes are
read-only properties that index the graph's arrays; a detached task (never
registered, or rolled back by :meth:`~repro.core.graph.TaskGraph.truncate`)
reads the creation defaults (``CREATED``, ``False``, ``0.0``, ``0``,
``None``).  A handle refers to its graph weakly and the graph's ``tasks``
array holds the handles strongly, so the two form no reference cycle: a
dropped run is freed by reference counting, and a handle that outlives
its graph reads the creation defaults too.  Writers go through the arrays
(``graph.state[gid] = ...``), as the runtime's hot paths do.  Keeping the
timestamps in graph arrays means completion-side bookkeeping never has to
resolve ``tasks[gid]`` handles just to stamp times, and post-run
analytics (:mod:`repro.core.analytics`) can pivot whole campaigns without
materialising any Task collection.

Region interning
----------------
Workload builders emit the same ``(name, start, stop)`` triples over and
over (every tile of a factorisation is touched by O(nt) tasks).
:meth:`Region.interned` maps each distinct triple to one canonical
:class:`Region` instance, so builders stop allocating duplicate frozen
dataclasses.  A region is a plain ``(name, start, stop)`` value and
carries no tracker state: the dependence tracker resolves every access
through its own name/extent index, so a canonical region never keeps a
finished run alive.

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

import weakref
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    List,
    NamedTuple,
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


#: The kinds :meth:`Task.make` zips with its five keyword sequences.
_MAKE_KINDS = (DepKind.IN, DepKind.OUT, DepKind.INOUT, DepKind.CONCURRENT,
               DepKind.COMMUTATIVE)

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
    those reads off the per-instance ``__dict__``.  Those three fields are
    the whole region: it holds no tracker state, and pickles as its value.
    """

    name: str
    start: int = _WHOLE[0]
    stop: int = _WHOLE[1]

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise ValueError(f"empty region [{self.start}, {self.stop})")

    def overlaps(self, other: "Region") -> bool:
        return (
            self.name == other.name
            and self.start < other.stop
            and other.start < self.stop
        )

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
        instance.  The table is bounded by the number of *distinct*
        regions ever interned (ring buffers and tile grids recur; see
        :func:`clear_region_intern` for explicit resets in long-lived
        processes).
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

    A long-lived process that is done with a workload family can call
    this to release the family's regions.  Runs never need it: a region
    holds no tracker state, so the table pins nothing but regions.
    """
    n = len(_REGION_INTERN)
    _REGION_INTERN.clear()
    return n


class Dependence(NamedTuple):
    """One declared access of a task: the pair ``(kind, region)``.

    An immutable ``tuple`` subclass (``__slots__ = ()``): building one
    costs a tuple, where a frozen dataclass paid an ``object.__setattr__``
    per field, and every task of every workload builds one per access.
    ``kind`` and ``region`` read the two items, equality and hashing are
    the pair's (so ``Dependence(k, r) == (k, r)``), and it pickles as its
    type through ``__getnewargs__``.  It checks nothing itself:
    :meth:`~repro.core.deps.DependenceTracker.register_preds` rejects a
    kind or region of the wrong type, and a plain pair.
    """

    kind: DepKind
    region: Region


class TaskState(Enum):
    CREATED = "created"
    READY = "ready"
    RUNNING = "running"
    FINISHED = "finished"


@dataclass(slots=True, eq=False)
class Task:
    """A schedulable unit of work with declared data accesses.

    ``slots=True``: the runtime reads task descriptions (costs, deps) on
    every dispatch, so fixed slots instead of a per-instance ``__dict__``
    shave the hot-path attribute traffic the ROADMAP flags.  Graph-owned
    state and lifecycle timestamps live in the owning graph's arrays (the
    read-only properties below index them, through a weak reference to
    the graph: see :attr:`graph`); ad-hoc attributes can no longer be
    attached to tasks — extend the dataclass instead.  ``eq=False``: a
    task compares and hashes by identity (two tasks with equal fields
    are two tasks).

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
    #: Dense id in the owning graph's struct-of-arrays storage, i.e. the
    #: task's submission index.  ``-1`` while detached; assigned on
    #: registration (``register_batch`` or :meth:`TaskGraph.add_task`).
    gid: int = -1
    #: Weak reference to the owning graph (see :attr:`graph`), or
    #: ``None`` while detached.  Set together with ``gid``.
    _graph: Optional["weakref.ref[TaskGraph]"] = field(
        default=None, init=False, repr=False
    )

    #: The real function's return value, set when the task completes.
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
        """Convenience constructor turning region specs into dependences.

        Every workload builder constructs its tasks here, so it does only
        what a task needs: empty keyword sequences are skipped, and the
        :class:`Task` is built positionally.  A spec that is already a
        :class:`Region` is used as given (builders pass interned regions);
        anything else goes through :meth:`Region.of`.
        """
        deps: List[Dependence] = []
        for kind, specs in zip(
            _MAKE_KINDS, (in_, out, inout, concurrent, commutative)
        ):
            if specs:
                for spec in specs:
                    deps.append(Dependence(
                        kind, spec if type(spec) is Region else Region.of(spec)
                    ))
        return cls(
            label, cpu_cycles, mem_seconds, deps, fn, args,
            kwargs if kwargs is not None else {}, priority,
        )

    # ------------------------------------------------------------------
    # graph-owned state: read-only views of the owning graph's arrays
    # (creation defaults while detached)
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Optional["TaskGraph"]:
        """The owning :class:`~repro.core.graph.TaskGraph`, or ``None``.

        ``None`` while detached, and also once the graph is gone: the
        handle refers to its graph weakly (``TaskGraph.tasks`` is the only
        strong link between the two), so a dropped run is freed by
        reference counting while a caller still holds some of its tasks.
        Such a handle reads the creation defaults, like a detached one.
        """
        ref = self._graph
        return ref() if ref is not None else None

    @property
    def state(self) -> TaskState:
        g = self.graph
        return g.state[self.gid] if g is not None else TaskState.CREATED

    @property
    def critical(self) -> bool:
        g = self.graph
        return g.critical[self.gid] if g is not None else False

    @property
    def bottom_level(self) -> float:
        g = self.graph
        return g.bottom_level[self.gid] if g is not None else 0.0

    @property
    def depth(self) -> int:
        g = self.graph
        return g.depth[self.gid] if g is not None else 0

    @property
    def submit_time(self) -> Optional[float]:
        g = self.graph
        return g.submit_time[self.gid] if g is not None else None

    @property
    def ready_time(self) -> Optional[float]:
        g = self.graph
        return g.ready_time[self.gid] if g is not None else None

    @property
    def start_time(self) -> Optional[float]:
        g = self.graph
        return g.start_time[self.gid] if g is not None else None

    @property
    def end_time(self) -> Optional[float]:
        g = self.graph
        return g.end_time[self.gid] if g is not None else None

    @property
    def unfinished_preds(self) -> int:
        """Ready count: predecessors not yet finished (0 while detached)."""
        g = self.graph
        return g.unfinished_preds[self.gid] if g is not None else 0

    @property
    def predecessors(self) -> Set["Task"]:
        """Snapshot set of predecessor tasks (a fresh set, not live graph
        state — mutate the graph through its API, not through this view).

        Handles the graph has released (watermark pruning) are left out.
        """
        g = self.graph
        if g is None:
            return set()
        tasks = g.tasks
        found = (tasks[i] for i in g.pred_ids[self.gid])
        return {t for t in found if t is not None}

    @property
    def successors(self) -> Set["Task"]:
        """Snapshot set of successor tasks (see :attr:`predecessors`)."""
        g = self.graph
        if g is None:
            return set()
        tasks = g.tasks
        found = (tasks[i] for i in g.succ_ids[self.gid])
        return {t for t in found if t is not None}

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

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Task({self.label!r} gid={self.gid}, {self.state.value})"
