"""Old-vs-new dependence tracker equivalence, pinned property-style.

The interval-indexed :class:`~repro.core.deps.DependenceTracker` must be
*behaviour-preserving*: for any access pattern it has to produce exactly
the edge set of the seed implementation — the conservative witness-region
semantics documented in ``deps.py`` — otherwise TDGs, and with them every
simulated makespan, silently shift.  ``ReferenceTracker`` below is a
straight port of the seed tracker (linear scan, list members, no index);
the randomized tests drive both over WAR/WAW/RAW mixes with overlapping
intervals and whole-object accesses across many seeds and assert identical
edges.

The scale-regression tests pin the index's efficiency: the per-task match
count (the irreducible k of overlapping accesses) must stay flat as the
graph scales, and the insertion-scan probe count must not blow up when
whole-object regions share a name with blocked accesses — the exact
pattern that degraded the previous ``max_len`` window index to O(history)
per access.
"""

import numpy as np
import pytest

from repro.core.deps import DependenceTracker
from repro.core.graph import TaskGraph
from repro.core.task import DepKind, Task, TaskState
from tracker_helpers import register


# ----------------------------------------------------------------------
# reference implementation (seed semantics, deliberately naive)
# ----------------------------------------------------------------------
class _Hist:
    def __init__(self, region):
        self.region = region
        self.writers = []
        self.readers = []
        self.concurrents = []


class ReferenceTracker:
    """The seed tracker, minus every index: scan all histories per name.

    Kept intentionally simple — its correctness is auditable by eye against
    the semantics in the ``deps.py`` docstring, and the production tracker
    is tested against it, never the other way around.
    """

    def __init__(self):
        self.by_name = {}
        self.edges_added = 0

    def register(self, task):
        edges = set()
        for dep in task.deps:
            edges |= self._register_one(task, dep)
        self.edges_added += len(edges)
        return edges

    def _register_one(self, task, dep):
        region, kind = dep.region, dep.kind
        hists = self.by_name.setdefault(region.name, [])
        overlapping = [h for h in hists if h.region.overlaps(region)]
        edges = set()

        def link(pred):
            if pred is not task:
                edges.add((pred, task))

        if kind is DepKind.IN:
            for h in overlapping:
                for w in h.writers:
                    link(w)
                for c in h.concurrents:
                    link(c)
        elif kind is DepKind.CONCURRENT:
            for h in overlapping:
                for w in h.writers:
                    link(w)
                for r in h.readers:
                    link(r)
        else:  # OUT / INOUT / COMMUTATIVE
            for h in overlapping:
                for w in h.writers:
                    link(w)
                for r in h.readers:
                    link(r)
                for c in h.concurrents:
                    link(c)

        exact = next(
            (
                h
                for h in hists
                if h.region.start == region.start and h.region.stop == region.stop
            ),
            None,
        )
        if exact is None:
            exact = _Hist(region)
            hists.append(exact)
        if kind is DepKind.IN:
            exact.readers.append(task)
        elif kind is DepKind.CONCURRENT:
            exact.concurrents.append(task)
        else:
            exact.writers = [task]
            exact.readers = []
            exact.concurrents = []
            for other in hists:
                if (
                    other is not exact
                    and other.region.overlaps(region)
                    and task not in other.writers
                ):
                    other.writers.append(task)
        return edges


# ----------------------------------------------------------------------
# randomized access patterns
# ----------------------------------------------------------------------
_KINDS = ("in_", "out", "inout", "concurrent", "commutative")


def random_tasks(seed, n_tasks=120, n_names=2, p_whole=0.15, max_coord=40):
    """Tasks with 1-3 random accesses each: mixed kinds, overlapping
    intervals of random extent, occasional whole-object regions."""
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(n_tasks):
        kwargs = {k: [] for k in _KINDS}
        for _ in range(int(rng.integers(1, 4))):
            name = f"r{rng.integers(n_names)}"
            if rng.random() < p_whole:
                spec = name  # whole object
            else:
                start = int(rng.integers(0, max_coord))
                spec = (name, start, start + int(rng.integers(1, 12)))
            kwargs[_KINDS[int(rng.integers(len(_KINDS)))]].append(spec)
        tasks.append(Task.make(f"t{i}", **kwargs))
    return tasks


def assert_equivalent(tasks):
    ref, new = ReferenceTracker(), DependenceTracker(TaskGraph())
    for task in tasks:
        # Both sides return ``(predecessor, task)`` pairs of the same
        # handles, which compare by identity.
        expected = ref.register(task)
        actual = register(new, task)
        assert actual == expected, (
            f"edge sets diverge at {task.label}: "
            f"extra={actual - expected}, missing={expected - actual}"
        )
    assert new.graph.n_edges == ref.edges_added


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_kinds_overlapping_intervals(self, seed):
        assert_equivalent(random_tasks(seed))

    def test_single_name_heavy_overlap(self):
        # One name, dense interval soup: every access overlaps many others.
        assert_equivalent(
            random_tasks(seed=99, n_tasks=150, n_names=1, max_coord=16)
        )

    def test_whole_object_heavy(self):
        # Mostly whole-object accesses: the long-region tier does the work.
        assert_equivalent(
            random_tasks(seed=7, n_tasks=100, n_names=2, p_whole=0.7)
        )

    def test_writes_only_waw_chains(self):
        rng = np.random.default_rng(3)
        tasks = []
        for i in range(80):
            start = int(rng.integers(0, 20))
            stop = start + int(rng.integers(1, 8))
            tasks.append(Task.make(f"w{i}", out=[("x", start, stop)]))
        assert_equivalent(tasks)

    def test_workload_families_match_reference(self):
        from repro.apps.dag_workloads import make_workload

        for family in ("layered", "cholesky", "lu", "fork_join", "pipeline"):
            assert_equivalent(make_workload(family, scale=2, seed=1))


class TestWitnessRegionSemantics:
    """Pin the conservative corner explicitly (not just by fuzzing)."""

    def test_witness_region_smears_writer(self):
        # w0 writes [0,10); w1 writes [5,15).  A reader of [0,3) only
        # overlaps w0's bytes, but the seen region [0,10) acts as witness
        # for w1 too — the reader must depend on BOTH writers.
        tr = DependenceTracker(TaskGraph())
        w0 = Task.make("w0", out=[("x", 0, 10)])
        w1 = Task.make("w1", out=[("x", 5, 15)])
        r = Task.make("r", in_=[("x", 0, 3)])
        register(tr, w0)
        register(tr, w1)
        edges = {(p.label, s.label) for p, s in register(tr, r)}
        assert edges == {("w0", "r"), ("w1", "r")}

    def test_exact_rewrite_clears_witness(self):
        tr = DependenceTracker(TaskGraph())
        register(tr, Task.make("w0", out=[("x", 0, 10)]))
        register(tr, Task.make("w1", out=[("x", 5, 15)]))
        # An exact write to [0,10) supersedes both writers there.
        register(tr, Task.make("w2", out=[("x", 0, 10)]))
        r = Task.make("r", in_=[("x", 0, 3)])
        edges = {(p.label, s.label) for p, s in register(tr, r)}
        assert edges == {("w2", "r")}


# ----------------------------------------------------------------------
# index scale regression
# ----------------------------------------------------------------------
def _register_all(tasks):
    tr = DependenceTracker(TaskGraph())
    for t in tasks:
        register(tr, t)
    return tr


class TestIndexScaling:
    def test_matches_per_task_flat_across_scale(self):
        """The per-access match count k must not grow with graph size for
        tile workloads — the interval index's core guarantee."""
        from repro.apps.dag_workloads import make_workload

        for family in ("cholesky", "lu", "layered"):
            small = make_workload(family, scale=2, seed=1)
            large = make_workload(family, scale=8, seed=1)
            k_small = _register_all(small).scan_matches / len(small)
            k_large = _register_all(large).scan_matches / len(large)
            # Flat within noise: a linear-in-history regression would grow
            # this ratio with the ~30x task-count increase.
            assert k_large <= 1.5 * k_small + 1.0, (
                family, k_small, k_large
            )

    def test_probes_stay_linear_with_whole_object_poisoning(self):
        """A whole-object access sharing a name with unit tiles used to
        widen the scan window to the full history; the long tier must keep
        insertion probes O(1) per new region instead."""

        def build(n):
            tasks = [Task.make("snap", inout=["a"])]  # whole-object first
            tasks += [
                Task.make(f"w{i}", out=[("a", i, i + 1)]) for i in range(n)
            ]
            return tasks

        probes_small = _register_all(build(200)).scan_probes / 201
        probes_large = _register_all(build(2000)).scan_probes / 2001
        assert probes_large <= 2.0 * probes_small + 2.0, (
            probes_small, probes_large,
        )

    def test_matches_count_includes_own_history(self):
        tr = DependenceTracker(TaskGraph())
        register(tr, Task.make("w", out=["x"]))
        assert tr.last_matches == 1  # its own (fresh) history
        register(tr, Task.make("r", in_=["x"]))
        assert tr.last_matches == 1  # exact hit on the same history
        register(tr, Task.make("r2", in_=[("x", 0, 4)]))
        assert tr.last_matches == 2  # own history + the whole-object one


class TestPruneCompaction:
    def test_prune_drops_superseded_finished_tasks(self):
        tr = DependenceTracker(TaskGraph())
        tasks = [Task.make(f"t{i}", inout=["x"]) for i in range(4)]
        readers = [Task.make(f"r{i}", in_=["x"]) for i in range(3)]
        for t in tasks[:2] + readers:
            register(tr, t)
        for t in tasks[:2] + readers:
            tr.graph.state[t.gid] = TaskState.FINISHED
        removed = tr.prune_finished()
        assert removed == len(readers)  # readers gone, last writer kept
        # New writer after pruning still chains correctly off the kept one.
        edges = {(p.label, s.label) for p, s in register(tr, tasks[2])}
        assert edges == {("t1", "t2")}

    def test_live_regions_counts_both_tiers(self):
        tr = DependenceTracker(TaskGraph())
        register(tr, Task.make("a", out=["whole"]))
        register(tr, Task.make("b", out=[("whole", 0, 8)]))
        register(tr, Task.make("c", out=[("other", 4, 6)]))
        assert tr.live_regions == 3
