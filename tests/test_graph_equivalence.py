"""Id-keyed TaskGraph vs object-set reference — representation equivalence.

The struct-of-arrays :class:`~repro.core.graph.TaskGraph` must be a pure
*representation* change: for any construction sequence it has to hold
exactly the structure the pre-refactor object-set graph held — edge sets,
depths, ready counts, topological orders, bottom levels and critical
marks — otherwise TDGs, and with them every simulated makespan, silently
shift.  ``ReferenceGraph`` below is a straight port of the seed's
Task-object ``set`` adjacency, keeping all state in its own dicts (it
deliberately never touches ``Task`` handles' delegating properties); the
randomized suites drive both representations from the same dependence
tracker over every DAG family and over random programs with mid-build
completion flips, and assert bit-for-bit agreement.
"""

import numpy as np
import pytest

from repro.apps.dag_workloads import WORKLOADS, make_workload
from repro.core.deps import DependenceTracker
from repro.core.graph import TaskGraph
from repro.core.task import Task, TaskState


# ----------------------------------------------------------------------
# reference implementation (seed semantics: object sets, per-task scalars)
# ----------------------------------------------------------------------
class ReferenceGraph:
    """The pre-refactor graph, keyed by the ``Task`` object (tasks hash by
    identity) in plain dicts."""

    def __init__(self):
        self.order = []  # tasks in insertion order
        self.preds = {}  # task -> set of tasks
        self.succs = {}
        self.unfinished = {}
        self.depth = {}
        self.state = {}
        self.bottom = {}
        self.critical = {}
        self.n_edges = 0

    def add_task(self, task):
        assert task not in self.preds
        self.order.append(task)
        self.preds[task] = set()
        self.succs[task] = set()
        self.unfinished[task] = 0
        self.depth[task] = 0
        self.state[task] = TaskState.CREATED
        self.bottom[task] = 0.0
        self.critical[task] = False

    def add_edge(self, pred, succ):
        if succ in self.succs[pred]:
            return False
        self.succs[pred].add(succ)
        self.preds[succ].add(pred)
        if self.state[pred] is not TaskState.FINISHED:
            self.unfinished[succ] += 1
        self.depth[succ] = max(
            self.depth[succ], self.depth[pred] + 1
        )
        self.n_edges += 1
        return True

    def edge_set(self):
        return {
            (p, s) for p, ss in self.succs.items() for s in ss
        }

    def topological_ids(self):
        from collections import deque

        indeg = {t: len(self.preds[t]) for t in self.order}
        queue = deque(t for t in self.order if indeg[t] == 0)
        out = []
        while queue:
            t = queue.popleft()
            out.append(t)
            for s in self.succs[t]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    queue.append(s)
        assert len(out) == len(self.order), "cycle in reference graph"
        return out

    def compute_bottom_levels(self):
        for t in reversed(self.topological_ids()):
            below = max(
                (self.bottom[s] for s in self.succs[t]), default=0.0
            )
            self.bottom[t] = t.cpu_cycles / 1e9 + t.mem_seconds + below
        return max(self.bottom.values(), default=0.0)

    def mark_critical(self, tolerance=1e-9):
        length = self.compute_bottom_levels()
        top = {}
        for t in self.topological_ids():
            top[t] = max(
                (
                    top[p] + p.cpu_cycles / 1e9 + p.mem_seconds
                    for p in self.preds[t]
                ),
                default=0.0,
            )
        n = 0
        for t in self.order:
            self.critical[t] = (
                top[t] + self.bottom[t] >= length - tolerance
            )
            n += self.critical[t]
        return n


# ----------------------------------------------------------------------
# driving both representations from one tracker
# ----------------------------------------------------------------------
def build_both(tasks, finish_every=0):
    """Submit ``tasks`` through one tracker into both graphs.

    ``finish_every > 0`` flips every k-th already-submitted task to
    FINISHED mid-build (in both representations), so later edge inserts
    exercise the ready-count state check.
    """
    g = TaskGraph()
    tracker = DependenceTracker(g)
    ref = ReferenceGraph()
    submitted = []
    for i, task in enumerate(tasks):
        # The production insertion: a one-task register_batch, as
        # Runtime.submit runs it.
        tracker.register_batch([task], 0.0)
        gid = task.gid
        ref.add_task(task)
        for p in g.pred_ids[gid]:
            ref.add_edge(g.tasks[p], task)
        submitted.append(task)
        # Ready counts must agree after every single insertion.
        assert g.unfinished_preds[gid] == ref.unfinished[task], (
            f"ready count diverges at {task.label}"
        )
        if finish_every and i % finish_every == finish_every - 1:
            victim = submitted[(i * 7919) % len(submitted)]
            g.state[victim.gid] = TaskState.FINISHED
            ref.state[victim] = TaskState.FINISHED
    return g, ref


def assert_same_structure(g: TaskGraph, ref: ReferenceGraph):
    tasks = g.tasks
    # Node set and insertion order.
    assert tasks == ref.order
    # Edge sets (order-free) and counts.
    edges = {
        (tasks[p], tasks[s])
        for p in range(len(tasks))
        for s in g.succ_ids[p]
    }
    assert edges == ref.edge_set()
    assert g.n_edges == ref.n_edges
    # No duplicate adjacency entries, and successor lists ascending (the
    # wake order), however the edges were added.
    for p in range(len(tasks)):
        assert len(g.succ_ids[p]) == len(set(g.succ_ids[p]))
        assert len(g.pred_ids[p]) == len(set(g.pred_ids[p]))
        assert g.succ_ids[p] == sorted(g.succ_ids[p])
    # Per-task scalars.
    for gid, t in enumerate(tasks):
        assert g.depth[gid] == ref.depth[t], f"depth diverges at {t.label}"
        assert g.unfinished_preds[gid] == ref.unfinished[t]
    # Topological order: valid and complete (the id-keyed order may be a
    # different linearisation, but must respect every reference edge).
    topo = g.topo_ids()
    assert sorted(topo) == list(range(len(tasks)))
    pos = {tasks[gid]: i for i, gid in enumerate(topo)}
    for p, s in ref.edge_set():
        assert pos[p] < pos[s]
    # Bottom levels and critical marks, bit for bit.
    g_len = g.compute_bottom_levels()
    r_len = ref.compute_bottom_levels()
    assert g_len == r_len
    for gid, t in enumerate(tasks):
        assert g.bottom_level[gid] == ref.bottom[t]
    assert g.mark_critical_tasks() == ref.mark_critical()
    for gid, t in enumerate(tasks):
        assert g.critical[gid] == ref.critical[t]


# ----------------------------------------------------------------------
# randomized programs (mixed dependence kinds, overlapping intervals)
# ----------------------------------------------------------------------
_KINDS = ("in_", "out", "inout", "concurrent", "commutative")


def random_tasks(seed, n_tasks=100, n_names=3, p_whole=0.1, max_coord=30):
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(n_tasks):
        kwargs = {k: [] for k in _KINDS}
        for _ in range(int(rng.integers(1, 4))):
            name = f"r{rng.integers(n_names)}"
            if rng.random() < p_whole:
                spec = name
            else:
                start = int(rng.integers(0, max_coord))
                spec = (name, start, start + int(rng.integers(1, 10)))
            kwargs[_KINDS[int(rng.integers(len(_KINDS)))]].append(spec)
        tasks.append(
            Task.make(
                f"t{i}",
                cpu_cycles=float(rng.uniform(1e4, 1e7)),
                mem_seconds=float(rng.uniform(0, 1e-3)),
                **kwargs,
            )
        )
    return tasks


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_mixed_kind_programs(self, seed):
        g, ref = build_both(random_tasks(seed))
        assert_same_structure(g, ref)

    @pytest.mark.parametrize("seed", range(5))
    def test_with_midbuild_completions(self, seed):
        """Tasks finishing while later tasks are still being submitted:
        the FINISHED-predecessor branch of edge insertion must keep ready
        counts identical."""
        g, ref = build_both(random_tasks(seed + 100), finish_every=5)
        assert_same_structure(g, ref)

    def test_dense_single_name(self):
        g, ref = build_both(
            random_tasks(seed=42, n_tasks=150, n_names=1, max_coord=12)
        )
        assert_same_structure(g, ref)


class TestWorkloadFamilyEquivalence:
    @pytest.mark.parametrize("family", sorted(WORKLOADS))
    def test_family_scale2(self, family):
        g, ref = build_both(make_workload(family, scale=2, seed=1))
        assert_same_structure(g, ref)

    def test_cholesky_scale4(self):
        g, ref = build_both(make_workload("cholesky", scale=4, seed=1))
        assert_same_structure(g, ref)


class TestObjectApiEquivalence:
    """The Task-handle API (add_edge, properties) over the same arrays."""

    def test_manual_add_edge_matches(self):
        rng = np.random.default_rng(7)
        tasks = [Task.make(f"m{i}", cpu_cycles=1e6) for i in range(30)]
        g = TaskGraph()
        ref = ReferenceGraph()
        for t in tasks:
            g.add_task(t)
            ref.add_task(t)
        for _ in range(120):
            i, j = sorted(rng.integers(0, len(tasks), size=2).tolist())
            if i == j:
                continue
            a = g.add_edge(tasks[i], tasks[j])
            b = ref.add_edge(tasks[i], tasks[j])
            assert a == b  # duplicate detection agrees
        assert_same_structure(g, ref)

    def test_handle_properties_reflect_arrays(self):
        tasks = make_workload("fork_join", scale=1, seed=3)
        g, ref = build_both(tasks)
        for t in tasks:
            assert t.predecessors == ref.preds[t]
            assert t.successors == ref.succs[t]
            assert t.unfinished_preds == ref.unfinished[t]
            assert t.depth == ref.depth[t]
