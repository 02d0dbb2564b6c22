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

The index is only consulted when a *new* region instance appears.  Each
history caches its overlap set (``h.overlaps``, kept symmetric as regions
are inserted), so the common case — another access to an already-seen
region — is a dict hit plus an O(k) walk of exactly the overlapping
histories, with no scan at all.  The cache stores one entry per
overlapping *pair*, the same k·n total the queries already pay in time.

On top of the dict hit sits an **identity cache**: after resolving a
region's history once, the tracker stashes ``(tracker, history)`` on the
:class:`~repro.core.task.Region` instance itself (``_hist_owner`` /
``_hist`` slots).  Workload builders intern their regions
(:meth:`Region.interned`), so every later access through the same
canonical instance resolves with two attribute loads and an identity
compare — no name-string hash, no ``(start, stop)`` tuple hash.
:meth:`DependenceTracker.invalidate_region_caches` severs those
back-references when a tracker is retired (the campaign runner calls it
per scenario), so a canonical region never keeps a dead tracker's
history graph alive.

Compaction keeps the member sets tight: an exact write *replaces* the
region's writer set (last-writer compaction — earlier readers, writers and
concurrents are fully ordered before it and can be forgotten), and writer
propagation into overlapping histories deduplicates by task id, so a
multi-access writer is recorded once per region, not once per access.
Members are stored as insertion-ordered ``{gid: Task}`` dicts keyed by the
task's dense graph id: the hot loops move data with C-level ``dict.update``
on int keys instead of hashing ``Task`` objects through their Python-level
``__hash__``, and :meth:`register_preds` hands the accumulated key view —
a predecessor *id* collection — straight to
:meth:`~repro.core.graph.TaskGraph.add_edges_to` with no Task-set
materialisation.  Tasks registered outside any graph get tracker-local
negative ids, so the standalone API keeps working.

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
produced.  Kept last-writer entries drop their strong ``Task`` reference
(value becomes ``None``; the gid key and the graph's arrays carry
everything edge insertion needs), so retired tasks are collectible.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import TaskGraph

from .task import DepKind, Task, TaskState

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
    All three are insertion-ordered ``{gid: Task}`` dicts keyed by the
    task's dense graph id (tracker-local negative id when detached).

    ``overlaps`` is the cached list of histories whose region overlaps this
    one — *including itself* — maintained symmetrically as new regions are
    indexed.

    ``ghost_w`` / ``ghost_r`` / ``ghost_c`` are the pruning ghosts: the
    maximum ``depth + 1`` over members of that kind removed by
    :meth:`DependenceTracker.prune_finished`, preserving the depth
    contribution the removed (always finished, hence readiness-neutral)
    edges would have made.  They reset together with the member dicts on
    last-writer compaction.
    """

    __slots__ = (
        "start", "stop", "writers", "readers", "concurrents", "overlaps",
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
        self.writers: Optional[Dict[int, Optional[Task]]] = None
        self.readers: Optional[Dict[int, Optional[Task]]] = None
        self.concurrents: Optional[Dict[int, Optional[Task]]] = None
        self.ghost_w = 0
        self.ghost_r = 0
        self.ghost_c = 0
        # ``overlaps`` is filled by _insert_history immediately after
        # construction (not allocated here: one fewer list per region).


class _NameIndex:
    """The two-tier interval index of one region name."""

    __slots__ = (
        "starts", "stops", "hists", "max_len", "longs", "exact",
        "append_tail",
    )

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.stops: List[int] = []
        self.hists: List[_RegionHistory] = []
        self.max_len = 0
        self.longs: List[_RegionHistory] = []
        self.exact: Dict[Tuple[int, int], _RegionHistory] = {}
        # While every insertion under this name has arrived in ascending,
        # mutually disjoint order (layer slots, ring buffers, per-round
        # partials), ``append_tail`` is the exclusive high-water stop and
        # a new region starting at/after it provably overlaps nothing —
        # no bisects, no window scan.  Set to None forever on the first
        # violation (or any long-tier insert).
        self.append_tail: Optional[int] = -(1 << 62)


class DependenceTracker:
    """Derives TDG edges from declared per-task data accesses.

    The hot entry point is :meth:`register_preds`, which returns the
    predecessor tasks directly (what the runtime consumes); :meth:`register`
    wraps them into ``(pred, succ)`` pairs for the original API, and
    :meth:`register_batch` runs it over a whole ``submit_all`` batch with
    the graph insertion inlined.  Instrumented counters (``scan_probes``,
    ``scan_matches``) expose how much index work registrations did, which
    the scale-regression tests pin to stay linear in the task count.

    ``__slots__``: every registration read-modify-writes several counters
    and loads ``_by_name``/``_graph``/``_pruned``; fixed slots keep those
    off a per-instance ``__dict__`` on the submission hot path.
    """

    __slots__ = (
        "_by_name", "_next_detached", "_graph", "_pruned", "edges_added",
        "scan_probes", "scan_matches", "cache_hits", "last_matches",
        "last_depth_floor", "refs_released",
    )

    def __init__(self) -> None:
        self._by_name: Dict[str, _NameIndex] = {}
        # Tracker-local dense ids for tasks registered outside any graph
        # (counting down from -2; graph-attached tasks use their gid >= 0,
        # -1 is the detached sentinel).  Either way every task this tracker
        # sees carries a unique int id for the member dicts.
        self._next_detached = -2
        # The one TaskGraph whose gids this tracker has seen (gids are
        # graph-local, so mixing graphs is rejected in register_preds).
        self._graph = None
        # Becomes True after the first prune_finished call; gates the
        # ghost-depth bookkeeping out of the never-pruned hot path.
        self._pruned = False
        self.edges_added = 0
        #: Candidate histories examined by insertion scans so far
        #: (including window false positives) — index efficiency metric.
        self.scan_probes = 0
        #: History entries consulted by queries (the access's own history
        #: plus every overlapping one) — the irreducible per-access k.
        self.scan_matches = 0
        #: Accesses resolved through the interned-region identity cache
        #: (``Region._hist_owner`` slot) without touching the name index —
        #: the ``region_cache_hits`` observability counter.
        self.cache_hits = 0
        #: Matches of the most recent register call (consumed by the
        #: runtime's submission-cost model).
        self.last_matches = 0
        #: Depth floor of the most recent register call: the max ghost
        #: depth of every consulted history, i.e. the depth the pruned
        #: (finished, readiness-neutral) edges would have induced.  The
        #: runtime folds it into ``graph.depth`` right after edge
        #: insertion; 0 unless pruning has run.
        self.last_depth_floor = 0
        #: Strong Task references dropped by pruning so far (kept
        #: last-writer entries whose value became None).
        self.refs_released = 0

    # ------------------------------------------------------------------
    def _insert_history(
        self,
        entry: _NameIndex,
        qstart: int,
        qstop: int,
        key: Optional[Tuple[int, int]] = None,
    ) -> _RegionHistory:
        """Index a new exact region: scan once, then cache the overlap set
        on the new history and symmetrically on everything it overlaps.

        ``key`` lets the caller pass the already-built ``(qstart, qstop)``
        tuple from its failed ``exact`` probe instead of re-building it.
        """
        # __new__ + inline stores: this runs once per distinct region and
        # the __init__ frame was a measurable slice of insertion cost.
        h = _RegionHistory.__new__(_RegionHistory)
        h.start = qstart
        h.stop = qstop
        h.writers = None
        h.readers = None
        h.concurrents = None
        h.ghost_w = h.ghost_r = h.ghost_c = 0
        entry.exact[key if key is not None else (qstart, qstop)] = h
        length = qstop - qstart
        tail = entry.append_tail
        if tail is not None:
            if qstart >= tail and length < _LONG_LEN:
                # Ascending-disjoint append (layer slots, ring buffers,
                # per-round partials): every indexed region stops at or
                # before ``tail`` <= qstart, so nothing can overlap — no
                # bisects, no window scan, pure appends.
                h.overlaps = [h]
                entry.starts.append(qstart)
                entry.stops.append(qstop)
                entry.hists.append(h)
                entry.append_tail = qstop
                if length > entry.max_len:
                    entry.max_len = length
                return h
            entry.append_tail = None
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
        if found:
            for other in found:
                other.overlaps.append(h)
        found.append(h)
        h.overlaps = found
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
        return h

    # ------------------------------------------------------------------
    def register_batch(
        self,
        tasks: List[Task],
        graph: "TaskGraph",
        now: float,
        check_states: bool,
    ) -> None:
        """Add a whole submission batch to ``graph`` and insert its edges.

        The bulk path behind ``Runtime.submit_all``: per task, exactly
        ``graph.add_task`` + :meth:`register_preds` + the fresh-successor
        branch of :meth:`TaskGraph.add_edges_to`, with the graph insertion
        inlined (a Python call per task adds up on graphs of 10^4+ tasks)
        and the struct-of-arrays storage bulk pre-extended in C-level
        comprehensions instead of per-task appends.  Every task is
        stamped with submit time ``now``.  ``check_states=False`` promises
        that no task in ``graph`` has finished yet, which collapses the
        per-edge FINISHED probe to ``unfinished = len(preds)``.

        Readiness is left to the caller: the new gids run from
        ``len(graph)`` before the call to ``len(graph)`` after it, and a
        gid is ready when its ``unfinished_preds`` is 0.  On a mid-batch
        failure (e.g. a
        duplicate task) the tasks registered so far stay in the graph —
        exactly where a one-task-at-a-time loop would have left graph and
        tracker — the pre-extended tail is trimmed back off, and the
        exception propagates.
        """
        index_of = graph.index_of
        graph_tasks = graph.tasks
        succ_ids = graph.succ_ids
        pred_ids = graph.pred_ids
        unfinished_preds = graph.unfinished_preds
        depth_arr = graph.depth
        state_arr = graph.state
        finished = TaskState.FINISHED
        n_new = len(tasks)
        start = len(graph_tasks)
        tids = [t.task_id for t in tasks]
        graph_tasks.extend(tasks)
        graph.task_ids.extend(tids)
        succ_ids.extend([] for _ in range(n_new))
        # Placeholder-filled: the loop below assigns each slot exactly
        # once (a fresh list for edged tasks, [] otherwise), so no empty
        # list is allocated just to be thrown away.
        pred_ids.extend([None] * n_new)
        unfinished_preds.extend([0] * n_new)
        depth_arr.extend([0] * n_new)
        state_arr.extend([t._state for t in tasks])
        graph.bottom_level.extend([t._bottom_level for t in tasks])
        graph.critical.extend([t._critical for t in tasks])
        graph._wake_len.extend([0] * n_new)
        # Timestamps are array-native: one bulk fill replaces a per-task
        # ``task.submit_time = now`` slot write (the failure path trims
        # the tail for never-registered tasks like every other array).
        graph.submit_time.extend([now] * n_new)
        graph.ready_time.extend([None] * n_new)
        graph.start_time.extend([None] * n_new)
        graph.end_time.extend([None] * n_new)
        # Pruning cannot fire mid-batch (nothing here steps the
        # simulation), so the ghost-depth replay applies uniformly.
        apply_floor = self._pruned
        register_preds = self.register_preds
        n_done = 0
        n_edges = 0
        try:
            for i, task in enumerate(tasks):
                tid = tids[i]
                gid = start + i
                # One dict op for probe + insert (setdefault returns the
                # prior mapping on a duplicate).
                if index_of.setdefault(tid, gid) != gid:
                    raise ValueError(f"task #{tid} already in graph")
                task.graph = graph
                task.gid = gid
                # Registered only after the duplicate probe and gid
                # assignment, so a mid-batch failure leaves the tracker
                # and its counters exactly where a submit() loop would.
                preds = register_preds(task)
                if preds:
                    # Fresh successor: every tracker pred is a new edge.
                    depth = 0
                    if check_states:
                        unfinished = 0
                        for p in preds:
                            succ_ids[p].append(gid)
                            if state_arr[p] is not finished:
                                unfinished += 1
                            d = depth_arr[p]
                            if d >= depth:
                                depth = d + 1
                    else:
                        unfinished = len(preds)
                        for p in preds:
                            succ_ids[p].append(gid)
                            d = depth_arr[p]
                            if d >= depth:
                                depth = d + 1
                    pred_ids[gid] = list(preds)
                    if apply_floor:
                        floor = self.last_depth_floor
                        if floor > depth:
                            depth = floor
                    depth_arr[gid] = depth
                    unfinished_preds[gid] = unfinished
                    n_edges += len(preds)
                else:
                    pred_ids[gid] = []
                    if apply_floor:
                        floor = self.last_depth_floor
                        if floor:
                            depth_arr[gid] = floor
                n_done += 1
        finally:
            if n_done != n_new:
                cut = start + n_done
                for arr in (
                    graph_tasks, graph.task_ids, succ_ids, pred_ids,
                    unfinished_preds, depth_arr, state_arr,
                    graph.bottom_level, graph.critical, graph._wake_len,
                    graph.submit_time, graph.ready_time,
                    graph.start_time, graph.end_time,
                ):
                    del arr[cut:]
                # The failing task may already hold a mapping/handle into
                # the trimmed tail (a mid-registration exception lands
                # after index_of/graph/gid were set); detach it so it is
                # resubmittable and its properties don't index past the
                # arrays.  A *duplicate* task maps below the cut and is
                # left alone.
                for t in tasks[n_done:]:
                    g_t = index_of.get(t.task_id)
                    if g_t is not None and g_t >= cut:
                        del index_of[t.task_id]
                        t.graph = None
                        t.gid = -1
            graph.n_edges += n_edges

    # ------------------------------------------------------------------
    def register(self, task: Task) -> Set[Tuple[Task, Task]]:
        """Register ``task``'s accesses; return the set of new edges.

        Edges are returned as ``(predecessor, successor)`` pairs with
        ``successor is task``; self-edges (a task touching the same region
        twice) are suppressed.  After watermark pruning a predecessor's
        strong reference may have been dropped; such pairs are resolved
        through the graph's handle view, and omitted if the handle was
        released too (the id-keyed :meth:`register_preds` path — what the
        runtime uses — always reports the full predecessor id set).
        """
        preds = self.register_preds(task)
        graph = self._graph
        out: Set[Tuple[Task, Task]] = set()
        for gid, pred in preds.items():
            if pred is None and graph is not None and gid >= 0:
                pred = graph.tasks[gid]
            if pred is not None:
                out.add((pred, task))
        return out

    def register_preds(self, task: Task) -> Dict[int, Task]:
        """Register ``task``'s accesses; return its predecessors keyed by id.

        The runtime's fast path: the successor of every edge is ``task``
        itself, so this returns a ``{gid: Task}`` mapping (deduplicated,
        self excluded) whose *key view is the predecessor id-list* that
        :meth:`TaskGraph.add_edges_to` consumes directly — no per-edge
        tuples and no Task-set materialisation on the submission hot path.
        For tasks not attached to a graph the ids are tracker-local
        negatives, useful only for dedup/counters.
        """
        graph = task.graph
        if graph is not None:
            # Member dicts key by gid, which is only unique within one
            # graph: feeding one tracker tasks from two graphs would
            # silently collide ids and drop/merge dependences, so it is
            # an error, not a wrong answer.
            if graph is not self._graph:
                if self._graph is not None:
                    raise ValueError(
                        "tracker already bound to a different TaskGraph; "
                        "one DependenceTracker serves one graph"
                    )
                self._graph = graph
        tid = task.gid
        if tid == -1:
            tid = task.gid = self._next_detached
            self._next_detached -= 1
        preds: Dict[int, Optional[Task]] = {}
        matches = 0
        hits = 0
        floor = 0
        pruned = self._pruned
        by_name = self._by_name
        setattr_ = object.__setattr__
        for dep in task.deps:
            region = dep.region
            kind = dep.kind
            # Identity cache: an interned region resolved by this tracker
            # before carries its history on a slot — two loads and an
            # identity compare instead of a name hash plus an extent hash.
            if region._hist_owner is self:
                h = region._hist
                hits += 1
            else:
                qstart = region.start
                qstop = region.stop
                entry = by_name.get(region.name)
                if entry is None:
                    entry = by_name[region.name] = _NameIndex()
                key = (qstart, qstop)
                h = entry.exact.get(key)
                if h is None:
                    h = self._insert_history(entry, qstart, qstop, key)
                    setattr_(region, "_hist_owner", self)
                    setattr_(region, "_hist", h)
                    if len(h.overlaps) == 1:
                        # Brand-new region overlapping nothing: its
                        # (empty) history contributes no edges — just
                        # record the access.  This is every first write
                        # to a fresh tile, the hottest case of the tiled
                        # workloads.
                        matches += 1
                        if kind is _IN:
                            h.readers = {tid: task}
                        elif kind is _CONCURRENT:
                            h.concurrents = {tid: task}
                        else:
                            h.writers = {tid: task}
                        continue
                else:
                    setattr_(region, "_hist_owner", self)
                    setattr_(region, "_hist", h)
            overlapping = h.overlaps
            n_over = len(overlapping)
            matches += n_over

            # --- edge computation (before this access is recorded) ----
            # Empty member dicts are guarded out (no C update call on
            # nothing), and the single-overlap case — an isolated region,
            # the common shape under disjoint tiling — skips the loop
            # machinery entirely.
            if kind is _IN:
                # RAW against writers and any open concurrent group
                # (concurrent tasks count as writers to outsiders).
                if n_over == 1:
                    w = h.writers
                    if w:
                        preds.update(w)
                    c = h.concurrents
                    if c:
                        preds.update(c)
                    if pruned:
                        g = h.ghost_w if h.ghost_w >= h.ghost_c else h.ghost_c
                        if g > floor:
                            floor = g
                else:
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
                    h.readers = {tid: task}
                else:
                    r[tid] = task
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
                    h.concurrents = {tid: task}
                else:
                    c[tid] = task
            else:
                # OUT/INOUT: WAW vs writers, WAR vs readers, ordering vs
                # concurrents.  COMMUTATIVE chains conservatively the same
                # way, serialising the group in submission order (a legal
                # linearisation of the relaxed semantics).
                if n_over == 1:
                    w = h.writers
                    if w:
                        preds.update(w)
                    r = h.readers
                    if r:
                        preds.update(r)
                        h.readers = None
                    c = h.concurrents
                    if c:
                        preds.update(c)
                        h.concurrents = None
                else:
                    # Edge collection and writer propagation fused into
                    # one pass: each history's members merge into
                    # ``preds`` *before* the new writer is recorded into
                    # it, and the self-entry this plants in ``h.writers``
                    # is overwritten by the reset below (self edges are
                    # popped at the end regardless).  Every overlapping
                    # region must observe the new writer, otherwise a
                    # later reader of the overlap could miss the RAW
                    # edge.
                    for o in overlapping:
                        w = o.writers
                        if w:
                            preds.update(w)
                            w[tid] = task
                        else:
                            o.writers = {tid: task}
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
                    if n_over == 1:
                        g = h.ghost_w
                        if h.ghost_r > g:
                            g = h.ghost_r
                        if h.ghost_c > g:
                            g = h.ghost_c
                        if g > floor:
                            floor = g
                    # Exact write: everything earlier — members and the
                    # ghosts of members pruned from this history — is now
                    # fully ordered before the new sole writer, exactly
                    # like the member reset below.
                    h.ghost_w = h.ghost_r = h.ghost_c = 0
                # New sole writer: previous readers/writers/concurrents
                # are now fully ordered before it (last-writer compaction).
                h.writers = {tid: task}
        preds.pop(tid, None)
        self.scan_matches += matches
        self.cache_hits += hits
        self.last_matches = matches
        if pruned:
            # Only meaningful (and only read by the runtime) after a
            # prune; stays 0 from construction otherwise.
            self.last_depth_floor = floor
        self.edges_added += len(preds)
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
        readers/concurrents and superseded writers are removed outright;
        the *last* writer entry is kept for exact RAW bookkeeping but its
        strong ``Task`` reference is dropped (value ``None``) for
        graph-attached tasks, so a retired task is collectible the moment
        the graph releases its handle.  Returns entries removed.
        """
        self._pruned = True
        removed = 0
        released = 0
        graph = self._graph
        state_arr = graph.state if graph is not None else None
        depth_arr = graph.depth if graph is not None else None
        finished = TaskState.FINISHED

        def is_finished(mid: int, t: Optional[Task]) -> bool:
            if t is None:
                return True  # reference already dropped by a prior prune
            if mid >= 0 and state_arr is not None:
                return state_arr[mid] is finished
            return t.state is finished

        def ghost_of(mid: int, t: Optional[Task]) -> int:
            if mid >= 0 and depth_arr is not None:
                return depth_arr[mid] + 1
            return (t._depth if t is not None else 0) + 1

        for entry in self._by_name.values():
            for tier in (entry.hists, entry.longs):
                for h in tier:
                    readers = h.readers
                    if readers:
                        kept: Dict[int, Optional[Task]] = {}
                        g = h.ghost_r
                        for mid, t in readers.items():
                            if is_finished(mid, t):
                                removed += 1
                                d = ghost_of(mid, t)
                                if d > g:
                                    g = d
                            else:
                                kept[mid] = t
                        if len(kept) != len(readers):
                            h.readers = kept or None
                            h.ghost_r = g
                    concurrents = h.concurrents
                    if concurrents:
                        kept = {}
                        g = h.ghost_c
                        for mid, t in concurrents.items():
                            if is_finished(mid, t):
                                removed += 1
                                d = ghost_of(mid, t)
                                if d > g:
                                    g = d
                            else:
                                kept[mid] = t
                        if len(kept) != len(concurrents):
                            h.concurrents = kept or None
                            h.ghost_c = g
                    writers = h.writers
                    if writers:
                        last_mid = next(reversed(writers))
                        kept = {}
                        g = h.ghost_w
                        for mid, t in writers.items():
                            if mid != last_mid and is_finished(mid, t):
                                removed += 1
                                d = ghost_of(mid, t)
                                if d > g:
                                    g = d
                            else:
                                kept[mid] = t
                        last_t = kept[last_mid]
                        if (
                            last_t is not None
                            and last_mid >= 0
                            and is_finished(last_mid, last_t)
                        ):
                            kept[last_mid] = None
                            released += 1
                        h.writers = kept
                        h.ghost_w = g
        self.refs_released += released
        return removed

    def invalidate_region_caches(self) -> int:
        """Clear this tracker's identity caches off every interned region.

        A canonical :class:`Region` lives in the process-wide intern
        table; its ``_hist`` slot would otherwise keep this tracker's
        entire history graph (and through it every member task) alive
        after the run is over.  The campaign runner calls this once per
        scenario.  Returns how many caches were cleared.
        """
        from .task import _REGION_INTERN

        cleared = 0
        setattr_ = object.__setattr__
        for region in _REGION_INTERN.values():
            if region._hist_owner is self:
                setattr_(region, "_hist_owner", None)
                setattr_(region, "_hist", None)
                cleared += 1
        return cleared

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

    @property
    def live_task_refs(self) -> int:
        """Member entries still holding a strong Task reference."""
        total = 0
        for e in self._by_name.values():
            for tier in (e.hists, e.longs):
                for h in tier:
                    for members in (h.writers, h.readers, h.concurrents):
                        if members:
                            total += sum(
                                1 for t in members.values() if t is not None
                            )
        return total
