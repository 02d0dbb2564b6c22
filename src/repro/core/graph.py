"""The Task Dependency Graph (TDG) — id-keyed, struct-of-arrays core.

The paper: *"tasks have data dependencies between them and a Task Dependency
Graph (TDG) can be built at runtime or statically.  In this context, the
runtime drives the design of new architecture components to support
activities like the construction of the TDG."*

Representation
--------------
Every task added to the graph receives a dense integer id (``task.gid``,
its insertion index), and all structural state lives in parallel arrays
indexed by that id:

* ``succ_ids`` / ``pred_ids`` — append-only adjacency (``List[List[int]]``);
* ``unfinished_preds`` — ready counts the runtime decrements on completion;
* ``depth`` / ``state`` / ``bottom_level`` / ``critical`` — per-task
  scalars consumed by schedulers, criticality policies and the analyses.

Edge insertion on the submission hot path is then pure C-level list
traffic (an ``append`` per endpoint) instead of ``set`` operations that
hash ``Task`` objects through their Python-level ``__hash__`` — the
constant factor ROADMAP open item 3 targeted.  :class:`~repro.core.task.Task`
stays a thin handle whose ``predecessors``/``successors``/... properties
delegate back here, so object-level user code keeps working.

This module holds the graph itself plus the global analyses the rest of the
system consumes — topological ordering, longest (critical) path, bottom
levels, width/depth profiles, and an export to :mod:`networkx` — all
implemented as array sweeps over ids.  Edge insertion is O(1); analyses
run on demand.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

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
        "task_ids",
        "succ_ids",
        "pred_ids",
        "unfinished_preds",
        "depth",
        "state",
        "bottom_level",
        "critical",
        "submit_time",
        "ready_time",
        "start_time",
        "end_time",
        "_wake_len",
    )

    def __init__(self) -> None:
        #: gid -> Task handle (the id → Task view).  ``None`` for handles
        #: retired via :meth:`release_handles` in streaming mode.
        self.tasks: List[Optional[Task]] = []
        #: gid -> globally unique ``task_id`` (the deterministic wake-order
        #: sort key).
        self.task_ids: List[int] = []
        #: ``task_id`` -> gid (duplicate detection + object-API lookups).
        self.index_of: Dict[int, int] = {}
        #: gid -> successor gids, in edge-insertion order.
        self.succ_ids: List[List[int]] = []
        #: gid -> predecessor gids, in edge-insertion order.
        self.pred_ids: List[List[int]] = []
        #: gid -> number of predecessors not yet FINISHED.
        self.unfinished_preds: List[int] = []
        #: gid -> longest-edge-count distance from a root (monotone
        #: under-approximation during construction; see width_profile).
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
        # Per-gid length of the prefix of succ_ids[gid] known to be sorted
        # by task_id (the deterministic wake order); maintained by
        # prepare_wake_order / the runtime's completion path.
        self._wake_len: List[int] = []
        self.n_edges = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> int:
        """Register ``task``, assign its dense id and return it."""
        tid = task.task_id
        if tid in self.index_of:
            raise ValueError(f"task #{tid} already in graph")
        gid = len(self.tasks)
        self.index_of[tid] = gid
        task.graph = self
        task.gid = gid
        self.tasks.append(task)
        self.task_ids.append(tid)
        self.succ_ids.append([])
        self.pred_ids.append([])
        self.unfinished_preds.append(0)
        self.depth.append(0)
        # Detached-task state carries over (matching the object-graph
        # behaviour, which kept whatever the task already held).
        self.state.append(task._state)
        self.bottom_level.append(task._bottom_level)
        self.critical.append(task._critical)
        self.submit_time.append(task._submit_time)
        self.ready_time.append(task._ready_time)
        self.start_time.append(task._start_time)
        self.end_time.append(task._end_time)
        self._wake_len.append(0)
        return gid

    def add_edge(self, pred: Task, succ: Task) -> bool:
        """Insert ``pred -> succ``; returns False if it already existed.

        The object-handle API (tests, manually built graphs).  The
        submission hot path uses :meth:`add_edges_to` on ids instead.
        """
        pg = self.index_of.get(pred.task_id)
        sg = self.index_of.get(succ.task_id)
        if pg is None or sg is None:
            raise ValueError("both endpoints must be in the graph")
        if sg in self.succ_ids[pg]:
            return False
        self.succ_ids[pg].append(sg)
        self.pred_ids[sg].append(pg)
        if self.state[pg] is not TaskState.FINISHED:
            self.unfinished_preds[sg] += 1
        if self.depth[pg] >= self.depth[sg]:
            self.depth[sg] = self.depth[pg] + 1
        self.n_edges += 1
        return True

    def add_edges_to(self, pred_gids: Iterable[int], succ_gid: int) -> int:
        """Bulk insert ``pred -> succ`` edges by id; returns how many were
        new.

        The submission hot path: ``pred_gids`` is the dependence tracker's
        predecessor id collection (duplicate-free, all already in this
        graph), which lets the common case — a freshly submitted ``succ``
        with no edges yet — append straight into the adjacency arrays
        with no membership probes and no ``Task`` hashing.  Iteration
        order does not matter: every update (depth max, counter
        increments) is order-insensitive.
        """
        if not hasattr(pred_gids, "__len__"):
            # Both branches iterate twice (loop + extend / set probe);
            # materialise one-shot iterators (the tracker's dict is sized
            # and skips this).
            pred_gids = list(pred_gids)
        succs = self.succ_ids
        depths = self.depth
        states = self.state
        finished = TaskState.FINISHED
        preds_list = self.pred_ids[succ_gid]
        depth = depths[succ_gid]
        unfinished = 0
        if preds_list:
            # succ already has edges: probe membership per predecessor.
            existing = set(preds_list)
            added = 0
            for p in pred_gids:
                if p in existing:
                    continue
                succs[p].append(succ_gid)
                preds_list.append(p)
                if states[p] is not finished:
                    unfinished += 1
                d = depths[p]
                if d >= depth:
                    depth = d + 1
                added += 1
        else:
            # Freshly submitted succ: every pred is a new edge, and the
            # predecessor list fills in one bulk extend.
            for p in pred_gids:
                succs[p].append(succ_gid)
                if states[p] is not finished:
                    unfinished += 1
                d = depths[p]
                if d >= depth:
                    depth = d + 1
            preds_list.extend(pred_gids)
            added = len(preds_list)
        depths[succ_gid] = depth
        self.unfinished_preds[succ_gid] += unfinished
        self.n_edges += added
        return added

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
        Whole-graph object analyses (``total_work``, ``to_networkx``, …)
        are unavailable after a release, which is why it is opt-in.
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
    def roots(self) -> List[Task]:
        tasks = self.tasks
        return [tasks[g] for g, p in enumerate(self.pred_ids) if not p]

    def sinks(self) -> List[Task]:
        tasks = self.tasks
        return [tasks[g] for g, s in enumerate(self.succ_ids) if not s]

    def topo_ids(self) -> List[int]:
        """Kahn's algorithm over ids; raises :class:`CycleError` on cycles."""
        preds = self.pred_ids
        succs = self.succ_ids
        n = len(preds)
        indeg = [len(p) for p in preds]
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
        """Check structural invariants (acyclicity, symmetric adjacency)."""
        self.topo_ids()
        for g in range(len(self.tasks)):
            for s in self.succ_ids[g]:
                if g not in self.pred_ids[s]:
                    raise AssertionError("asymmetric adjacency")
            for p in self.pred_ids[g]:
                if g not in self.succ_ids[p]:
                    raise AssertionError("asymmetric adjacency")

    # ------------------------------------------------------------------
    # wake order
    # ------------------------------------------------------------------
    def prepare_wake_order(self) -> None:
        """Sort every successor list into deterministic wake order.

        Wake order is ascending ``task_id`` (matching the pre-id-keyed
        runtime, whose completion path sorted successor sets).  For the
        workload builders — which submit tasks in creation order — the
        lists are already sorted and Timsort's run detection makes this a
        linear verification pass.  The runtime re-sorts an individual
        list lazily (via ``_wake_len``) if edges were added later.
        """
        with get_active().span(SPAN_GRAPH_ANALYSIS):
            key = self.task_ids.__getitem__
            wake = self._wake_len
            for g, lst in enumerate(self.succ_ids):
                if len(lst) > 1:
                    lst.sort(key=key)
                wake[g] = len(lst)

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
        frontier = [g for g, p in enumerate(self.pred_ids) if not p]
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
        preds = self.pred_ids
        n = len(tasks)
        top = [0.0] * n
        for g in order:
            best = 0.0
            for p in preds[g]:
                v = top[p] + w[p]
                if v > best:
                    best = v
            top[g] = best
        bl = self.bottom_level
        crit = self.critical
        n_critical = 0
        for g in range(n):
            c = top[g] + bl[g] >= length - tolerance
            crit[g] = c
            n_critical += c
        return n_critical

    def width_profile(self) -> List[int]:
        """Number of tasks at each depth (the graph's parallelism profile)."""
        if not self.tasks:
            return []
        # Recompute depths from scratch (add_edge keeps them monotone but
        # submission order can under-approximate).
        order = self.topo_ids()
        depth = self.depth
        preds = self.pred_ids
        for g in order:
            best = 0
            for p in preds[g]:
                d = depth[p] + 1
                if d > best:
                    best = d
            depth[g] = best
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

    # ------------------------------------------------------------------
    def to_networkx(self) -> Any:
        """Export to a :class:`networkx.DiGraph` (labels + costs as attrs)."""
        import networkx as nx

        g = nx.DiGraph()
        for gid, t in enumerate(self.tasks):
            g.add_node(
                t.task_id,
                label=t.label,
                cpu_cycles=t.cpu_cycles,
                mem_seconds=t.mem_seconds,
                critical=self.critical[gid],
            )
        ids = self.task_ids
        for gid, succs in enumerate(self.succ_ids):
            for s in succs:
                g.add_edge(ids[gid], ids[s])
        return g
