"""The Task Dependency Graph (TDG) — id-keyed, struct-of-arrays core.

The paper: *"tasks have data dependencies between them and a Task Dependency
Graph (TDG) can be built at runtime or statically.  In this context, the
runtime drives the design of new architecture components to support
activities like the construction of the TDG."*

Representation
--------------
Every task added to the graph receives a dense integer id (``task.gid``,
its insertion index, i.e. its place in submission order), and all
structural state lives in parallel arrays indexed by that id:

* ``succ_ids`` — adjacency (``List[List[int]]``), each list in ascending
  gid (the wake order); an edge is stored once, in its predecessor's
  list.  The analyses walk these lists only; :meth:`TaskGraph.pred_lists`
  derives the predecessors for ``Task.predecessors``;
* ``unfinished_preds`` — ready counts the runtime decrements on completion;
* ``depth`` / ``state`` / ``bottom_level`` / ``critical`` — per-task
  scalars consumed by schedulers, criticality policies and the analyses;
* ``submit_time`` / ``ready_time`` / ``start_time`` / ``end_time`` —
  lifecycle timestamps;
* ``core`` / ``dvfs_level`` — where and at which DVFS level a task ran,
  the rest of what :meth:`~repro.sim.trace.TraceRecorder.from_graph`
  reads to build a run's trace.

Edge insertion on the submission hot path is then one C-level
``append`` per edge instead of ``set`` operations on ``Task`` objects,
and a finishing task wakes its successors by walking its list; nothing
on the hot path reads predecessors.  These arrays are the only store of
per-task state: :class:`~repro.core.task.Task` stays a thin
handle whose ``predecessors``/``successors``/``state``/... properties are
read-only views of them (creation defaults while detached), and the
dependence tracker keeps gids, never handles.  The gid is the task's only
identity: the handle itself says which graph holds it (``task.graph``),
so a task belongs to at most one live graph.

This module holds the graph itself plus the global analyses the rest of the
system consumes — topological ordering, longest (critical) path, bottom
levels and width/depth profiles — all implemented as array sweeps over
ids.  Edge insertion is O(1); analyses run on demand.
"""

from __future__ import annotations

import weakref
from array import array
from bisect import insort
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs.metrics import SPAN_GRAPH_ANALYSIS, get_active
from .task import Task, TaskState

__all__ = ["TaskGraph", "CycleError"]


class CycleError(ValueError):
    """The graph contains a dependence cycle (impossible from honest
    dataflow registration, but user-constructed graphs are validated)."""


class TaskGraph:
    """A DAG of :class:`~repro.core.task.Task` nodes in id-keyed storage.

    The graph owns all structural and scheduling-adjacent per-task state
    (adjacency, ready counts, depth, state, bottom levels, criticality);
    the runtime mutates the arrays as execution progresses.  ``tasks[gid]``
    maps a dense id back to its handle — the "id → Task view" schedulers
    and criticality policies are given.
    """

    #: Every gid-indexed parallel array.  Any path that grows or trims
    #: one of these must grow/trim all of them (lockstep is what makes a
    #: gid a valid index everywhere) — machine-checked by lint rule RL004.
    _ARRAY_MANIFEST = (
        "tasks",
        "succ_ids",
        "unfinished_preds",
        "depth",
        "state",
        "bottom_level",
        "critical",
        "submit_time",
        "ready_time",
        "start_time",
        "end_time",
        "core",
        "dvfs_level",
    )

    def __init__(self) -> None:
        #: gid -> Task handle (the id → Task view).  ``None`` for handles
        #: retired via :meth:`release_handles` in streaming mode.
        self.tasks: List[Optional[Task]] = []
        #: gid -> successor gids, ascending: the deterministic wake order
        #: (submission order).  Submission appends each new gid, the
        #: largest so far; :meth:`add_edge` inserts in order.
        self.succ_ids: List[List[int]] = []
        #: gid -> number of predecessors not yet FINISHED.
        self.unfinished_preds: List[int] = []
        #: gid -> longest-edge-count distance from a root as edge insertion
        #: derives it (a lower bound if a hand-built graph adds edges out
        #: of order; includes pruning's ghost-depth floor).  Breadth-first
        #: scheduling orders by it, so analyses never write it (see
        #: width_profile).
        self.depth: List[int] = []
        #: gid -> TaskState.
        self.state: List[TaskState] = []
        #: gid -> bottom level (filled by compute_bottom_levels).
        self.bottom_level: List[float] = []
        #: gid -> criticality flag (filled by mark_critical_tasks or the
        #: runtime's online policy).
        self.critical: List[bool] = []
        #: gid -> lifecycle timestamps (None until stamped).  Array-native
        #: so the runtime's completion/wake-up paths never resolve a
        #: ``tasks[gid]`` handle just to record a time, and post-run
        #: analytics (:mod:`repro.core.analytics`) can sweep whole
        #: campaigns without touching Task objects.
        self.submit_time: List[Optional[float]] = []
        self.ready_time: List[Optional[float]] = []
        self.start_time: List[Optional[float]] = []
        self.end_time: List[Optional[float]] = []
        #: gid -> core the task started on, and that core's DVFS level
        #: after the RSU served the start's request (``-1`` until started,
        #: and again after a kill).  Typed arrays: two small ints per
        #: task, not two list slots.
        self.core = array("h")
        self.dvfs_level = array("b")
        self.n_edges = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> int:
        """Register ``task``, assign its dense id and return it.

        Raises ``ValueError`` if the task already belongs to a live graph
        (this one or another).
        """
        if task.graph is not None:
            raise ValueError(f"task {task.label!r} already in graph")
        gid = self.grow([task])
        task._graph = weakref.ref(self)
        task.gid = gid
        return gid

    def grow(
        self, tasks: Sequence[Task], submit_time: Optional[float] = None
    ) -> int:
        """Append one slot per task to every gid array; return the first
        new gid.

        New slots hold the creation defaults a detached handle reads: no
        edges, ready count 0, depth 0, state ``CREATED``, bottom level
        0.0, not critical, and no timestamps except ``submit_time`` (when
        given); core and DVFS level are ``-1``.  Nothing is read off the
        handles.  The caller owns the handles' graph reference and
        ``gid``, and rolls a failed registration back with
        :meth:`truncate`.  An entry that is not a :class:`Task` raises
        ``TypeError`` before any array grows.
        """
        for t in tasks:
            if not isinstance(t, Task):
                raise TypeError(f"{t!r} is not a Task")
        start = len(self.tasks)
        n = len(tasks)
        self.tasks.extend(tasks)
        self.succ_ids.extend([[] for _ in range(n)])
        self.unfinished_preds.extend([0] * n)
        self.depth.extend([0] * n)
        self.state.extend([TaskState.CREATED] * n)
        self.bottom_level.extend([0.0] * n)
        self.critical.extend([False] * n)
        self.submit_time.extend([submit_time] * n)
        self.ready_time.extend([None] * n)
        self.start_time.extend([None] * n)
        self.end_time.extend([None] * n)
        self.core.extend(array("h", [-1]) * n)
        self.dvfs_level.extend(array("b", [-1]) * n)
        return start

    def truncate(self, n: int) -> None:
        """Trim every gid array back to length ``n``.

        The rollback of a failed registration.  A handle in the dropped
        tail that this graph registered into the tail is detached (graph
        reference and ``gid`` reset), so it is resubmittable and its
        properties read the creation defaults instead of indexing past
        the arrays — whatever the dropped slots held is gone with them.
        A handle registered below ``n`` (a duplicate of an earlier task)
        or into another graph is left as it is.
        """
        for task in self.tasks[n:]:
            if task is not None and task.gid >= n and task.graph is self:
                task._graph = None
                task.gid = -1
        for arr in (
            self.tasks, self.succ_ids, self.unfinished_preds, self.depth,
            self.state, self.bottom_level, self.critical, self.submit_time,
            self.ready_time, self.start_time, self.end_time, self.core,
            self.dvfs_level,
        ):
            del arr[n:]

    def add_edge(self, pred: Task, succ: Task) -> bool:
        """Insert ``pred -> succ``; returns False if it already existed.

        The object-handle API for building a graph by hand (tests,
        manually built graphs).  Submission inserts edges by id in
        :meth:`~repro.core.deps.DependenceTracker.register_batch`.  The
        successor list stays ascending (the wake order), whatever order
        the edges are added in.
        """
        if pred.graph is not self or succ.graph is not self:
            raise ValueError("both endpoints must be in the graph")
        pg = pred.gid
        sg = succ.gid
        if sg in self.succ_ids[pg]:
            return False
        insort(self.succ_ids[pg], sg)
        if self.state[pg] is not TaskState.FINISHED:
            self.unfinished_preds[sg] += 1
        if self.depth[pg] >= self.depth[sg]:
            self.depth[sg] = self.depth[pg] + 1
        self.n_edges += 1
        return True

    def __len__(self) -> int:
        return len(self.tasks)

    # ------------------------------------------------------------------
    # streaming-mode retirement
    # ------------------------------------------------------------------
    def release_handles(self, gids: Iterable[int]) -> int:
        """Drop the graph's strong references to the given task handles.

        The struct-of-arrays state (adjacency, depth, timestamps, ...)
        for those ids stays intact — analytics and future edge insertions
        only ever read the arrays — but ``tasks[gid]`` becomes ``None``,
        so a retired :class:`Task` (with its label, deps and interned
        regions) is garbage-collectible as soon as the caller's own
        references go away.  Only FINISHED tasks may be released; the
        runtime's watermark pruning calls this for every retirement batch.
        Whole-graph object analyses (``total_work``, …) are unavailable
        after a release, which is why it is opt-in.
        """
        tasks = self.tasks
        state = self.state
        finished = TaskState.FINISHED
        released = 0
        for gid in gids:
            if state[gid] is not finished:
                raise ValueError(
                    f"cannot release unfinished task gid={gid}"
                )
            if tasks[gid] is not None:
                tasks[gid] = None
                released += 1
        return released

    def live_handles(self) -> int:
        """Number of task handles not yet released (memory diagnostics)."""
        return sum(1 for t in self.tasks if t is not None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def pred_lists(self) -> List[List[int]]:
        """gid -> predecessor gids, ascending: a fresh snapshot derived
        from ``succ_ids`` in one O(V+E) pass (each edge is stored once,
        in its predecessor's successor list)."""
        preds: List[List[int]] = [[] for _ in self.succ_ids]
        for g, succs in enumerate(self.succ_ids):
            for s in succs:
                preds[s].append(g)
        return preds

    def _in_degrees(self) -> List[int]:
        """gid -> number of predecessors, counted from ``succ_ids`` in one
        O(V+E) pass (no predecessor lists are built)."""
        indeg = [0] * len(self.succ_ids)
        for succs in self.succ_ids:
            for s in succs:
                indeg[s] += 1
        return indeg

    def roots(self) -> List[Task]:
        tasks = self.tasks
        return [tasks[g] for g, d in enumerate(self._in_degrees()) if not d]

    def sinks(self) -> List[Task]:
        tasks = self.tasks
        return [tasks[g] for g, s in enumerate(self.succ_ids) if not s]

    def topo_ids(self) -> List[int]:
        """Kahn's algorithm over ids; raises :class:`CycleError` on cycles."""
        succs = self.succ_ids
        n = len(succs)
        indeg = self._in_degrees()
        order = [g for g in range(n) if not indeg[g]]
        i = 0
        while i < len(order):
            for s in succs[order[i]]:
                d = indeg[s] = indeg[s] - 1
                if d == 0:
                    order.append(s)
            i += 1
        if len(order) != n:
            raise CycleError(
                f"dependence cycle: {n - len(order)} tasks unreachable"
            )
        return order

    def topological_order(self) -> List[Task]:
        """:meth:`topo_ids` mapped back to task handles."""
        tasks = self.tasks
        return [tasks[g] for g in self.topo_ids()]

    def validate(self) -> None:
        """Check structural invariants (acyclicity)."""
        self.topo_ids()

    def prepare_wake_order(self) -> None:
        """No-op, kept for its remaining caller: the host-performance
        benchmark in ``benchmarks/perf/`` wraps it as a traced target.

        Successor lists are always in wake order (ascending gid), so
        there is nothing to prepare.
        """

    # ------------------------------------------------------------------
    # analyses (array sweeps over ids)
    # ------------------------------------------------------------------
    def compute_bottom_levels(
        self, weight: Optional[Callable[[Task], float]] = None
    ) -> float:
        """Fill ``bottom_level`` for every id and return the maximum.

        The bottom level of a task is its own weight plus the heaviest chain
        of successors below it — the classic list-scheduling priority and the
        quantity that defines the *critical path* (Section 3.1: a task is
        critical if it belongs to the critical path of the TDG).

        One ``graph_analysis`` phase span on the process-wide obs sink
        when observability is enabled.
        """
        with get_active().span(SPAN_GRAPH_ANALYSIS):
            return self._compute_bottom_levels_impl(weight)

    def _compute_bottom_levels_impl(
        self, weight: Optional[Callable[[Task], float]] = None
    ) -> float:
        order = self.topo_ids()
        succs = self.succ_ids
        bl = self.bottom_level
        tasks = self.tasks
        if weight is None:
            # Default weight inlined: reference_work() at the 1 GHz
            # reference frequency, kept bit-identical to Task.duration_at.
            for g in reversed(order):
                below = 0.0
                for s in succs[g]:
                    v = bl[s]
                    if v > below:
                        below = v
                t = tasks[g]
                bl[g] = t.cpu_cycles / 1e9 + t.mem_seconds + below
        else:
            for g in reversed(order):
                below = 0.0
                for s in succs[g]:
                    v = bl[s]
                    if v > below:
                        below = v
                bl[g] = weight(tasks[g]) + below
        return max(bl, default=0.0)

    def critical_path(
        self, weight: Optional[Callable[[Task], float]] = None
    ) -> Tuple[List[Task], float]:
        """One longest path through the DAG and its total weight."""
        length = self.compute_bottom_levels(weight)
        bl = self.bottom_level
        tasks = self.tasks
        path: List[Task] = []
        frontier = [g for g, d in enumerate(self._in_degrees()) if not d]
        while frontier:
            g = max(frontier, key=bl.__getitem__)
            path.append(tasks[g])
            frontier = self.succ_ids[g]
        return path, length

    def mark_critical_tasks(
        self,
        weight: Optional[Callable[[Task], float]] = None,
        tolerance: float = 1e-9,
    ) -> int:
        """Set ``critical[gid]`` for every task lying on *some* longest path.

        A task is on a longest path iff ``top_level + bottom_level`` equals
        the critical-path length (top level = heaviest chain strictly above
        it).  Returns the number of critical tasks.
        """
        length = self.compute_bottom_levels(weight)
        order = self.topo_ids()
        tasks = self.tasks
        if weight is None:
            w = [t.cpu_cycles / 1e9 + t.mem_seconds for t in tasks]
        else:
            w = [weight(t) for t in tasks]
        succs = self.succ_ids
        n = len(tasks)
        # Kahn's order finalises a task's top level before its successors
        # read it, and a maximum over the same values is the same float.
        top = [0.0] * n
        for g in order:
            v = top[g] + w[g]
            for s in succs[g]:
                if v > top[s]:
                    top[s] = v
        bl = self.bottom_level
        crit = self.critical
        n_critical = 0
        for g in range(n):
            c = top[g] + bl[g] >= length - tolerance
            crit[g] = c
            n_critical += c
        return n_critical

    def width_profile(self) -> List[int]:
        """Number of tasks at each depth (the graph's parallelism profile).

        Depths are recomputed from the graph's edges, relaxed along the
        successor lists in Kahn's order, into a local list: the ``depth``
        array is live scheduling state
        (breadth-first order, and after pruning it also carries the ghost
        depth of edges never inserted, whose finished source pruning had
        retired from the tracker), so an analysis must not write it.
        """
        if not self.tasks:
            return []
        succs = self.succ_ids
        depth = [0] * len(succs)
        for g in self.topo_ids():
            d = depth[g] + 1
            for s in succs[g]:
                if d > depth[s]:
                    depth[s] = d
        levels: Dict[int, int] = {}
        for d in depth:
            levels[d] = levels.get(d, 0) + 1
        return [levels[d] for d in range(max(levels) + 1)]

    def total_work(self, weight: Optional[Callable[[Task], float]] = None) -> float:
        weight = weight or (lambda t: t.reference_work())
        return sum(weight(t) for t in self.tasks)

    def average_parallelism(self) -> float:
        """Total work divided by critical-path length (ideal speedup bound)."""
        _, cp = self.critical_path()
        if cp <= 0:
            return float(len(self.tasks)) if self.tasks else 0.0
        return self.total_work() / cp

