"""Region-based dataflow dependence tracking.

This is the runtime component the paper compares to a superscalar's register
renaming/scoreboard: as tasks are submitted, their declared accesses are
matched against earlier tasks' accesses to derive true (RAW), anti (WAR) and
output (WAW) dependences, yielding the Task Dependency Graph edges.

Semantics
---------
The tracker keeps one access history per *exact region instance* (same name,
start and stop).  An incoming access is matched against every history whose
region overlaps it, and a write is additionally recorded into every
overlapping history so later accesses of *those* regions observe it — each
seen region acts as a conservative witness that smears a writer across its
full extent.  This is deliberately an over-approximation (it can only add
edges, never drop one), and it is pinned bit-for-bit by the equivalence
tests: any replacement structure must reproduce exactly these edges, or
makespans shift.

Interval index
--------------
Histories are kept per name in two tiers:

* **bounded** regions live in parallel ``(starts, stops, hists)`` arrays
  sorted by start.  An insertion scan bisects to the candidate window
  ``(start - max_len, stop)`` — ``max_len`` being the longest *bounded*
  region under that name — and filters by ``stop > q.start`` with plain
  int compares: O(log n + k) in the k overlapping accesses.
* **long** regions (length ≥ :data:`_LONG_LEN`, notably the whole-object
  sentinel ``Region("x")`` whose extent is 2**62) live in a short side list
  scanned directly.  Keeping them out of the bounded tier is what makes the
  index robust: a single whole-object access used to poison ``max_len`` and
  degrade every later scan under that name to O(history).

Every access resolves the same way: ``by_name[name].exact[(start,
stop)]`` is the pair ``(history, overlaps)`` of that exact extent.  The
interval index is only scanned when that lookup misses, i.e. when a *new*
extent appears.  ``overlaps`` lists every history whose region overlaps
the extent, its own history included, and is kept symmetric as regions
are inserted, so an access is two dict hits plus an O(k) walk of exactly
the overlapping histories, with no scan at all.  The overlap lists store
one entry per overlapping *pair*, the same k·n total the queries already
pay in time.  They live in the name index, not on the histories: no
history references another history (or itself), so the index holds no
reference cycle.  All of this state lives in the tracker: a
:class:`~repro.core.task.Region` is a plain value, so nothing outside a
run points into its tracker, and a dropped
:class:`~repro.core.runtime.Runtime` is freed by reference counting, with
no cleanup call.

Compaction keeps the member sets tight: an exact write *replaces* the
region's writer set (last-writer compaction — earlier readers, writers and
concurrents are fully ordered before it and can be forgotten), and writer
propagation into overlapping histories deduplicates by gid, so a
multi-access writer is recorded once per region, not once per access.
A tracker serves the one :class:`~repro.core.graph.TaskGraph` it is built
with (``DependenceTracker(graph)``) and holds **gids only**: members are
insertion-ordered ``{gid: None}`` dicts (ordered sets) keyed by the task's
dense graph id, and every per-task fact the tracker needs (state, depth)
is read from the graph's arrays — no ``Task`` is reachable from it.  The
hot loops move data with C-level ``dict.update`` on int keys, and
:meth:`register_preds` returns the accumulated dict — a predecessor *id*
collection — which :meth:`DependenceTracker.register_batch` inserts into
the graph's adjacency arrays.  Each new gid is the largest in the graph,
so appending it keeps every successor list ascending, which is the wake
order.

Watermark pruning (streaming mode)
----------------------------------
:meth:`prune_finished` retires finished tasks from the member dicts so a
runtime that streams millions of tasks does not accrete history, as in
Nanos++.  Pruning is **execution-equivalent** by construction: a removed
member could only ever have sourced edges *from a finished task*, which
never change readiness (finished predecessors don't count towards
``unfinished_preds``) — but they do feed the successor's ``depth``, which
the breadth-first scheduler orders by.  Each history therefore keeps one
**ghost depth** per member kind (the max ``depth + 1`` over members
pruned from it), reset exactly where the member dicts themselves are
reset (last-writer compaction), and :meth:`register_preds` folds the
ghosts of every consulted history into ``last_depth_floor`` so the
runtime reproduces bit-for-bit the depth the un-pruned edges would have
produced.  Pruning reads ``graph.state`` / ``graph.depth`` only; since
members are bare gids, a retired task is collectible as soon as the graph
releases its handle.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import TaskGraph

from .task import Dependence, DepKind, Region, Task, TaskState

__all__ = ["DependenceTracker"]

#: Regions at least this long are indexed in the per-name ``longs`` side
#: list instead of the bounded tier, so that one huge extent (e.g. the
#: whole-object sentinel) cannot widen the bounded tier's scan window.
_LONG_LEN = 1 << 30

_IN = DepKind.IN
_CONCURRENT = DepKind.CONCURRENT


class _RegionHistory:
    """Access history for one exact region instance.

    ``writers`` holds every write not yet superseded by an exact write to
    this region (the first entry is the last exact writer, if any; the rest
    were propagated from overlapping writes).  ``readers``/``concurrents``
    hold the exact accesses of those kinds since the last exact write.
    All three are insertion-ordered ``{gid: None}`` dicts keyed by the
    task's dense graph id.

    The histories that overlap this one are listed next to it in
    ``_NameIndex.exact``, not here, so a history references no other
    history.

    ``ghost_w`` / ``ghost_r`` / ``ghost_c`` are the pruning ghosts: the
    maximum ``depth + 1`` over members of that kind removed by
    :meth:`DependenceTracker.prune_finished`, preserving the depth
    contribution the removed (always finished, hence readiness-neutral)
    edges would have made.  They reset together with the member dicts on
    last-writer compaction.
    """

    __slots__ = (
        "start", "stop", "writers", "readers", "concurrents",
        "ghost_w", "ghost_r", "ghost_c",
    )

    def __init__(self, start: int, stop: int) -> None:
        self.start = start
        self.stop = stop
        # Member dicts are lazy: ``None`` until the first member of that
        # kind arrives (and reset back to ``None`` by compaction), so a
        # fresh history costs zero dict allocations.  Invariant: a member
        # dict is either ``None`` or non-empty, which keeps every
        # truthiness guard on the hot path working unchanged.
        self.writers: Optional[Dict[int, None]] = None
        self.readers: Optional[Dict[int, None]] = None
        self.concurrents: Optional[Dict[int, None]] = None
        self.ghost_w = 0
        self.ghost_r = 0
        self.ghost_c = 0


class _NameIndex:
    """The two-tier interval index of one region name.

    ``exact`` maps each indexed ``(start, stop)`` extent to its history
    and the list of histories that overlap it (itself included, in the
    order the tracker walks them).
    """

    __slots__ = ("starts", "stops", "hists", "max_len", "longs", "exact")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.stops: List[int] = []
        self.hists: List[_RegionHistory] = []
        self.max_len = 0
        self.longs: List[_RegionHistory] = []
        self.exact: Dict[
            Tuple[int, int], Tuple[_RegionHistory, List[_RegionHistory]]
        ] = {}


class DependenceTracker:
    """Derives the edges of ``graph``'s TDG from declared data accesses.

    :meth:`register_batch` is the entry point — the runtime's only way
    into its graph: it appends a submission batch to ``graph`` and runs
    :meth:`register_preds` per task with the edge insertion inlined.
    Instrumented counters (``scan_probes``, ``scan_matches``) expose how
    much index work registrations did, which the scale-regression tests
    pin to stay linear in the task count.

    ``__slots__``: every registration read-modify-writes several counters
    and loads ``_by_name``/``_pruned``; fixed slots keep those off a
    per-instance ``__dict__`` on the submission hot path.
    """

    __slots__ = (
        "graph", "_by_name", "_pruned", "scan_probes", "scan_matches",
        "last_matches", "last_depth_floor",
    )

    def __init__(self, graph: "TaskGraph") -> None:
        #: The graph this tracker registers into; member dicts key by its
        #: gids, which are graph-local.
        self.graph = graph
        self._by_name: Dict[str, _NameIndex] = {}
        # Becomes True after the first prune_finished call; gates the
        # ghost-depth bookkeeping out of the never-pruned hot path.
        self._pruned = False
        #: Candidate histories examined by insertion scans so far
        #: (including window false positives) — index efficiency metric.
        self.scan_probes = 0
        #: History entries consulted by queries (the access's own history
        #: plus every overlapping one) — the irreducible per-access k.
        self.scan_matches = 0
        #: Matches of the most recent register call (consumed by the
        #: runtime's submission-cost model).
        self.last_matches = 0
        #: Depth floor of the most recent register call: the max ghost
        #: depth of every consulted history, i.e. the depth the pruned
        #: (finished, readiness-neutral) edges would have induced.
        #: :meth:`register_batch` folds it into ``graph.depth`` right after
        #: edge insertion; 0 unless pruning has run.
        self.last_depth_floor = 0

    # ------------------------------------------------------------------
    def _insert_history(
        self, entry: _NameIndex, key: Tuple[int, int]
    ) -> Tuple[_RegionHistory, List[_RegionHistory]]:
        """Index a new exact region ``key = (start, stop)``: scan once, then
        record the new history's overlap list in ``entry.exact`` and add
        the new history to the list of everything it overlaps."""
        qstart, qstop = key
        h = _RegionHistory(qstart, qstop)
        exact = entry.exact
        found: List[_RegionHistory] = []
        starts = entry.starts
        lo = bisect_left(starts, qstart - entry.max_len)
        hi = bisect_right(starts, qstop - 1, lo)
        self.scan_probes += (hi - lo) + len(entry.longs)
        if lo != hi:
            stops = entry.stops
            hists = entry.hists
            for i in range(lo, hi):
                if stops[i] > qstart:
                    found.append(hists[i])
        for other in entry.longs:
            if other.start < qstop and other.stop > qstart:
                found.append(other)
        for other in found:
            exact[other.start, other.stop][1].append(h)
        found.append(h)
        hit = exact[key] = (h, found)
        length = qstop - qstart
        if length >= _LONG_LEN:
            entry.longs.append(h)
        else:
            # qstart's insertion point lies inside the scan window
            # (entries below lo start before qstart - max_len; entries at
            # hi and beyond start after qstop - 1 >= qstart).
            i = bisect_left(starts, qstart, lo, hi)
            starts.insert(i, qstart)
            entry.stops.insert(i, qstop)
            entry.hists.insert(i, h)
            if length > entry.max_len:
                entry.max_len = length
        return hit

    # ------------------------------------------------------------------
    def register_batch(self, tasks: List[Task], now: float) -> None:
        """Add a submission batch to the graph and insert its edges.

        The one path that puts tasks and edges into a runtime's graph
        (``Runtime.submit`` is a one-task batch).  The batch's slots are
        appended in one :meth:`TaskGraph.grow` call, every task stamped
        with submit time ``now``; then, per task: the duplicate probe,
        :meth:`register_preds`, the edge insertion for a task that has no
        edges yet, and the pruning depth floor.

        A task is a duplicate when it already belongs to a live graph
        (``task.graph is not None``): earlier in this batch, in an earlier
        batch, or in another runtime's graph.  Readiness is left to the
        caller: the new gids run from ``len(graph)`` before the call to
        ``len(graph)`` after it, and a gid is ready when its
        ``unfinished_preds`` is 0.  On a mid-batch failure (a duplicate
        task, a malformed access) the tasks registered so far stay in the
        graph — exactly where a one-task-at-a-time loop would have left
        graph and tracker — the rest is trimmed back off with
        :meth:`TaskGraph.truncate`, and the exception propagates.  An
        entry that is not a :class:`Task` fails before the graph grows.
        """
        graph = self.graph
        succ_ids = graph.succ_ids
        pred_ids = graph.pred_ids
        unfinished_preds = graph.unfinished_preds
        depth_arr = graph.depth
        state_arr = graph.state
        finished = TaskState.FINISHED
        start = graph.grow(tasks, now)
        # One canonical weak reference per graph: the handles point back
        # at their graph weakly, so ``graph.tasks`` stays the only strong
        # link and a dropped run is freed by reference counting.
        graph_ref = weakref.ref(graph)
        # Pruning cannot fire mid-batch (nothing here steps the
        # simulation), so the ghost-depth replay applies uniformly.
        apply_floor = self._pruned
        register_preds = self.register_preds
        n_done = 0
        n_edges = 0
        try:
            for task in tasks:
                gid = start + n_done
                if task.graph is not None:
                    raise ValueError(f"task {task.label!r} already in graph")
                task._graph = graph_ref
                task.gid = gid
                # Registered only after the duplicate probe and gid
                # assignment, so a mid-batch failure leaves the tracker
                # and its counters exactly where a one-task-at-a-time
                # loop would.
                preds = register_preds(task)
                if preds:
                    # A fresh task has no edges yet: every tracker pred
                    # is a new edge.
                    depth = 0
                    unfinished = 0
                    for p in preds:
                        succ_ids[p].append(gid)
                        if state_arr[p] is not finished:
                            unfinished += 1
                        d = depth_arr[p]
                        if d >= depth:
                            depth = d + 1
                    pred_ids[gid].extend(preds)
                    if apply_floor:
                        floor = self.last_depth_floor
                        if floor > depth:
                            depth = floor
                    depth_arr[gid] = depth
                    unfinished_preds[gid] = unfinished
                    n_edges += len(preds)
                elif apply_floor:
                    # Depth contribution of edges pruned away (always
                    # finished predecessors), replayed so breadth-first
                    # order matches the unpruned run.
                    depth_arr[gid] = self.last_depth_floor
                n_done += 1
        finally:
            if n_done != len(tasks):
                graph.truncate(start + n_done)
            graph.n_edges += n_edges

    # ------------------------------------------------------------------
    def register_preds(self, task: Task) -> Dict[int, None]:
        """Register ``task``'s accesses; return its predecessor gids.

        The per-task step of :meth:`register_batch`, which has already
        given ``task`` its gid in the graph.  The successor of every edge
        is ``task`` itself, so this returns an insertion-ordered
        ``{gid: None}`` set of predecessors (deduplicated, self excluded)
        that :meth:`register_batch` inserts directly — no per-edge tuples
        and no Task-set materialisation on the submission hot path.

        Every access is checked before any is recorded: each entry of
        ``task.deps`` must be an exact :class:`Dependence` whose kind is a
        :class:`DepKind` and whose region is a :class:`Region`, otherwise
        :class:`TypeError` is raised and the tracker is left untouched.
        """
        deps = task.deps
        for dep in deps:
            if (
                type(dep) is not Dependence
                or type(dep.kind) is not DepKind
                or type(dep.region) is not Region
            ):
                raise TypeError(
                    f"task gid={task.gid} ({task.label!r}): {dep!r} is not "
                    "a Dependence(DepKind, Region)"
                )
        tid = task.gid
        preds: Dict[int, None] = {}
        matches = 0
        floor = 0
        pruned = self._pruned
        by_name = self._by_name
        for dep in deps:
            kind, region = dep
            entry = by_name.get(region.name)
            if entry is None:
                entry = by_name[region.name] = _NameIndex()
            key = (region.start, region.stop)
            hit = entry.exact.get(key)
            if hit is None:
                hit = self._insert_history(entry, key)
            h, overlapping = hit
            matches += len(overlapping)

            # --- edge computation (before this access is recorded) ----
            # Empty member dicts are guarded out (no C update call on
            # nothing).
            if kind is _IN:
                # RAW against writers and any open concurrent group
                # (concurrent tasks count as writers to outsiders).
                for o in overlapping:
                    w = o.writers
                    if w:
                        preds.update(w)
                    c = o.concurrents
                    if c:
                        preds.update(c)
                    if pruned:
                        g = o.ghost_w if o.ghost_w >= o.ghost_c else o.ghost_c
                        if g > floor:
                            floor = g
                r = h.readers
                if r is None:
                    h.readers = {tid: None}
                else:
                    r[tid] = None
            elif kind is _CONCURRENT:
                # Ordered against writers and ordinary readers, but NOT
                # against fellow members of the open concurrent group.
                for o in overlapping:
                    w = o.writers
                    if w:
                        preds.update(w)
                    r = o.readers
                    if r:
                        preds.update(r)
                    if pruned:
                        g = o.ghost_w if o.ghost_w >= o.ghost_r else o.ghost_r
                        if g > floor:
                            floor = g
                c = h.concurrents
                if c is None:
                    h.concurrents = {tid: None}
                else:
                    c[tid] = None
            else:
                # OUT/INOUT: WAW vs writers, WAR vs readers, ordering vs
                # concurrents.  COMMUTATIVE chains conservatively the same
                # way, serialising the group in submission order (a legal
                # linearisation of the relaxed semantics).
                #
                # Edge collection and writer propagation fused into one
                # pass: each history's members merge into ``preds``
                # *before* the new writer is recorded into it, and the
                # self-entry this plants in ``h.writers`` is overwritten
                # by the reset below (self edges are popped at the end
                # regardless).  Every overlapping region must observe the
                # new writer, otherwise a later reader of the overlap
                # could miss the RAW edge.
                for o in overlapping:
                    w = o.writers
                    if w:
                        preds.update(w)
                        w[tid] = None
                    else:
                        o.writers = {tid: None}
                    r = o.readers
                    if r:
                        preds.update(r)
                    c = o.concurrents
                    if c:
                        preds.update(c)
                    if pruned:
                        g = o.ghost_w
                        if o.ghost_r > g:
                            g = o.ghost_r
                        if o.ghost_c > g:
                            g = o.ghost_c
                        if g > floor:
                            floor = g
                if h.readers is not None:
                    h.readers = None
                if h.concurrents is not None:
                    h.concurrents = None
                if pruned:
                    # Exact write: everything earlier — members and the
                    # ghosts of members pruned from this history — is now
                    # fully ordered before the new sole writer, exactly
                    # like the member reset below.
                    h.ghost_w = h.ghost_r = h.ghost_c = 0
                # New sole writer: previous readers/writers/concurrents
                # are now fully ordered before it (last-writer compaction).
                h.writers = {tid: None}
        preds.pop(tid, None)
        self.scan_matches += matches
        self.last_matches = matches
        if pruned:
            # Only meaningful (and only read by register_batch) after a
            # prune; stays 0 from construction otherwise.
            self.last_depth_floor = floor
        return preds

    # ------------------------------------------------------------------
    def prune_finished(self) -> int:
        """Drop finished tasks that can no longer source live edges.

        A finished member could only ever source edges *from a finished
        task* — readiness-neutral by construction — so removal is safe
        for execution as long as the member's **depth contribution** is
        preserved: each removal folds ``depth + 1`` into the history's
        per-kind ghost (see the module docstring), which
        :meth:`register_preds` replays as ``last_depth_floor``.  Finished
        readers/concurrents and superseded writers are removed; the
        *last* writer entry is kept for exact RAW bookkeeping.  State and
        depth are read from the graph's arrays.  Returns entries removed.
        """
        self._pruned = True
        state = self.graph.state
        depth = self.graph.depth
        finished = TaskState.FINISHED

        def prune(
            members: Dict[int, None], ghost: int, keep: int = -1
        ) -> Tuple[Dict[int, None], int]:
            # Members other than ``keep`` that have finished leave,
            # folding their depth + 1 into the ghost.
            kept: Dict[int, None] = {}
            for mid in members:
                if mid != keep and state[mid] is finished:
                    d = depth[mid] + 1
                    if d > ghost:
                        ghost = d
                else:
                    kept[mid] = None
            return kept, ghost

        removed = 0
        for entry in self._by_name.values():
            for tier in (entry.hists, entry.longs):
                for h in tier:
                    readers = h.readers
                    if readers:
                        kept, h.ghost_r = prune(readers, h.ghost_r)
                        if len(kept) != len(readers):
                            removed += len(readers) - len(kept)
                            h.readers = kept or None
                    concurrents = h.concurrents
                    if concurrents:
                        kept, h.ghost_c = prune(concurrents, h.ghost_c)
                        if len(kept) != len(concurrents):
                            removed += len(concurrents) - len(kept)
                            h.concurrents = kept or None
                    writers = h.writers
                    if writers:
                        kept, h.ghost_w = prune(
                            writers, h.ghost_w, next(reversed(writers))
                        )
                        if len(kept) != len(writers):
                            removed += len(writers) - len(kept)
                            h.writers = kept
        return removed

    def invalidate_region_caches(self) -> int:
        """No-op that returns 0, kept for its remaining caller: the
        host-performance benchmark in ``benchmarks/perf/`` calls it after
        each run.

        A :class:`Region` holds no tracker state, so a finished run needs
        no cleanup call: dropping the runtime frees its tracker, graph
        and tasks.
        """
        return 0

    @property
    def live_regions(self) -> int:
        """Distinct histories held by the name index (both tiers)."""
        return sum(
            len(e.hists) + len(e.longs) for e in self._by_name.values()
        )

    @property
    def live_members(self) -> int:
        """Total member entries across all histories (pruning diagnostics)."""
        return sum(
            (len(h.writers) if h.writers else 0)
            + (len(h.readers) if h.readers else 0)
            + (len(h.concurrents) if h.concurrents else 0)
            for e in self._by_name.values()
            for tier in (e.hists, e.longs)
            for h in tier
        )
