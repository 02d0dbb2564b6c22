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
A tracker serves the one :class:`~repro.core.graph.TaskGraph` it is built
with (``DependenceTracker(graph)``) and holds **gids only**: members are
insertion-ordered ``{gid: None}`` dicts (ordered sets) keyed by the task's
dense graph id, and every per-task fact the tracker needs (state, depth)
is read from the graph's arrays — no ``Task`` is reachable from it.  The
hot loops move data with C-level ``dict.update`` on int keys instead of
hashing ``Task`` objects through their Python-level ``__hash__``, and
:meth:`register_preds` returns the accumulated dict — a predecessor *id*
collection — which :meth:`DependenceTracker.register_batch` inserts into
the graph's adjacency arrays.

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
        self.writers: Optional[Dict[int, None]] = None
        self.readers: Optional[Dict[int, None]] = None
        self.concurrents: Optional[Dict[int, None]] = None
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
        "cache_hits", "last_matches", "last_depth_floor",
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
        #: Accesses resolved through the interned-region identity cache
        #: (``Region._hist_owner`` slot) without touching the name index —
        #: the ``region_cache_hits`` observability counter.
        self.cache_hits = 0
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
    def register_batch(self, tasks: List[Task], now: float) -> None:
        """Add a submission batch to the graph and insert its edges.

        The one path that puts tasks and edges into a runtime's graph
        (``Runtime.submit`` is a one-task batch).  The batch's slots are
        appended in one :meth:`TaskGraph.grow` call, every task stamped
        with submit time ``now``; then, per task: the duplicate probe,
        :meth:`register_preds`, the edge insertion for a task that has no
        edges yet, and the pruning depth floor.

        Readiness is left to the caller: the new gids run from
        ``len(graph)`` before the call to ``len(graph)`` after it, and a
        gid is ready when its ``unfinished_preds`` is 0.  On a mid-batch
        failure (a duplicate task, a malformed access) the tasks
        registered so far stay in the graph — exactly where a
        one-task-at-a-time loop would have left graph and tracker — the
        rest is trimmed back off with :meth:`TaskGraph.truncate`, and the
        exception propagates.
        """
        graph = self.graph
        index_of = graph.index_of
        succ_ids = graph.succ_ids
        pred_ids = graph.pred_ids
        unfinished_preds = graph.unfinished_preds
        depth_arr = graph.depth
        state_arr = graph.state
        finished = TaskState.FINISHED
        start = graph.grow(tasks, now)
        # Pruning cannot fire mid-batch (nothing here steps the
        # simulation), so the ghost-depth replay applies uniformly.
        apply_floor = self._pruned
        register_preds = self.register_preds
        n_done = 0
        n_edges = 0
        try:
            for task in tasks:
                gid = start + n_done
                tid = task.task_id
                # One dict op for probe + insert (setdefault returns the
                # prior mapping on a duplicate).
                if index_of.setdefault(tid, gid) != gid:
                    raise ValueError(f"task #{tid} already in graph")
                task.graph = graph
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
                    f"task #{task.task_id} ({task.label!r}): {dep!r} is not "
                    "a Dependence(DepKind, Region)"
                )
        tid = task.gid
        preds: Dict[int, None] = {}
        matches = 0
        hits = 0
        floor = 0
        pruned = self._pruned
        by_name = self._by_name
        setattr_ = object.__setattr__
        for dep in deps:
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
                            h.readers = {tid: None}
                        elif kind is _CONCURRENT:
                            h.concurrents = {tid: None}
                        else:
                            h.writers = {tid: None}
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
                h.writers = {tid: None}
        preds.pop(tid, None)
        self.scan_matches += matches
        self.cache_hits += hits
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
        """Clear this tracker's identity caches off every interned region.

        A canonical :class:`Region` lives in the process-wide intern
        table; its ``_hist_owner`` slot would otherwise keep this tracker
        (and through it the graph and every task handle it still holds)
        alive after the run is over.  The campaign runner calls this once per
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
