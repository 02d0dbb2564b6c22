"""Unit tests for tasks, regions, and the dependence tracker."""

import pytest

from repro.core.deps import DependenceTracker
from repro.core.task import DepKind, Region, Task


class TestRegion:
    def test_whole_object_overlap(self):
        assert Region("x").overlaps(Region("x", 5, 10))

    def test_disjoint_ranges_do_not_overlap(self):
        assert not Region("x", 0, 10).overlaps(Region("x", 10, 20))

    def test_different_names_never_overlap(self):
        assert not Region("x").overlaps(Region("y"))

    def test_partial_overlap(self):
        assert Region("x", 0, 10).overlaps(Region("x", 5, 15))

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            Region("x", 5, 5)

    def test_of_coercions(self):
        assert Region.of("a") == Region("a")
        assert Region.of(("a", 0, 8)) == Region("a", 0, 8)
        r = Region("b", 1, 2)
        assert Region.of(r) is r
        with pytest.raises(TypeError):
            Region.of(42)


class TestTaskConstruction:
    def test_make_collects_dep_kinds(self):
        t = Task.make("t", in_=["a"], out=["b"], inout=[("c", 0, 4)])
        kinds = sorted(d.kind.value for d in t.deps)
        assert kinds == ["in", "inout", "out"]

    def test_duration_at(self):
        t = Task.make("t", cpu_cycles=2e9, mem_seconds=0.5)
        assert t.duration_at(2e9) == pytest.approx(1.5)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            Task.make("t", cpu_cycles=-1)

    def test_unique_ids(self):
        assert Task.make("a").task_id != Task.make("b").task_id

    def test_kind_read_write_flags(self):
        assert DepKind.IN.reads and not DepKind.IN.writes
        assert DepKind.OUT.writes and not DepKind.OUT.reads
        assert DepKind.INOUT.reads and DepKind.INOUT.writes
        assert DepKind.CONCURRENT.reads
        assert DepKind.COMMUTATIVE.writes


def edges_of(tracker, task):
    return {(p.label, s.label) for p, s in tracker.register(task)}


class TestDependenceTracker:
    def test_raw_dependence(self):
        tr = DependenceTracker()
        w = Task.make("w", out=["x"])
        r = Task.make("r", in_=["x"])
        assert tr.register(w) == set()
        assert edges_of(tr, r) == {("w", "r")}

    def test_war_dependence(self):
        tr = DependenceTracker()
        r = Task.make("r", in_=["x"])
        w = Task.make("w", out=["x"])
        tr.register(r)
        assert edges_of(tr, w) == {("r", "w")}

    def test_waw_dependence(self):
        tr = DependenceTracker()
        w1 = Task.make("w1", out=["x"])
        w2 = Task.make("w2", out=["x"])
        tr.register(w1)
        assert edges_of(tr, w2) == {("w1", "w2")}

    def test_independent_reads_share_no_edge(self):
        tr = DependenceTracker()
        tr.register(Task.make("w", out=["x"]))
        r1 = Task.make("r1", in_=["x"])
        r2 = Task.make("r2", in_=["x"])
        tr.register(r1)
        edges = edges_of(tr, r2)
        assert ("r1", "r2") not in edges

    def test_new_writer_orders_after_all_readers(self):
        tr = DependenceTracker()
        tr.register(Task.make("w0", out=["x"]))
        tr.register(Task.make("r1", in_=["x"]))
        tr.register(Task.make("r2", in_=["x"]))
        w = Task.make("w1", out=["x"])
        edges = edges_of(tr, w)
        assert ("r1", "w1") in edges and ("r2", "w1") in edges

    def test_reader_after_new_writer_sees_only_new_writer(self):
        tr = DependenceTracker()
        tr.register(Task.make("w0", out=["x"]))
        tr.register(Task.make("w1", out=["x"]))
        r = Task.make("r", in_=["x"])
        assert edges_of(tr, r) == {("w1", "r")}

    def test_disjoint_block_accesses_are_independent(self):
        tr = DependenceTracker()
        tr.register(Task.make("w0", out=[("x", 0, 10)]))
        r = Task.make("r", in_=[("x", 10, 20)])
        assert edges_of(tr, r) == set()

    def test_overlapping_block_accesses_conflict(self):
        tr = DependenceTracker()
        tr.register(Task.make("w0", out=[("x", 0, 10)]))
        r = Task.make("r", in_=[("x", 5, 8)])
        assert edges_of(tr, r) == {("w0", "r")}

    def test_whole_object_write_conflicts_with_blocks(self):
        tr = DependenceTracker()
        tr.register(Task.make("wb", out=[("x", 0, 10)]))
        w_all = Task.make("wall", inout=["x"])
        assert edges_of(tr, w_all) == {("wb", "wall")}
        r = Task.make("r", in_=[("x", 3, 7)])
        assert ("wall", "r") in edges_of(tr, r)

    def test_concurrent_group_members_unordered(self):
        tr = DependenceTracker()
        tr.register(Task.make("w", out=["acc"]))
        c1 = Task.make("c1", concurrent=["acc"])
        c2 = Task.make("c2", concurrent=["acc"])
        assert edges_of(tr, c1) == {("w", "c1")}
        edges2 = edges_of(tr, c2)
        assert ("c1", "c2") not in edges2
        assert ("w", "c2") in edges2

    def test_reader_after_concurrent_group_waits_for_all(self):
        tr = DependenceTracker()
        tr.register(Task.make("c1", concurrent=["acc"]))
        tr.register(Task.make("c2", concurrent=["acc"]))
        r = Task.make("r", in_=["acc"])
        assert edges_of(tr, r) == {("c1", "r"), ("c2", "r")}

    def test_commutative_chain_serialises(self):
        tr = DependenceTracker()
        m1 = Task.make("m1", commutative=["x"])
        m2 = Task.make("m2", commutative=["x"])
        m3 = Task.make("m3", commutative=["x"])
        tr.register(m1)
        assert edges_of(tr, m2) == {("m1", "m2")}
        assert edges_of(tr, m3) == {("m2", "m3")}

    def test_inout_chain(self):
        tr = DependenceTracker()
        prev = None
        for i in range(5):
            t = Task.make(f"t{i}", inout=["x"])
            edges = tr.register(t)
            if prev is not None:
                assert (prev, t) in edges
            prev = t

    def test_no_self_edges(self):
        tr = DependenceTracker()
        t = Task.make("t", in_=["x"], out=["x"])
        assert tr.register(t) == set()

    def test_multiple_names_tracked_independently(self):
        tr = DependenceTracker()
        tr.register(Task.make("wx", out=["x"]))
        tr.register(Task.make("wy", out=["y"]))
        r = Task.make("r", in_=["x", "y"])
        assert edges_of(tr, r) == {("wx", "r"), ("wy", "r")}

    def test_tracker_rejects_tasks_from_two_graphs(self):
        """Member dicts key by gid, which is graph-local: mixing graphs
        would silently collide ids, so it must raise instead."""
        from repro.core.graph import TaskGraph

        g1, g2 = TaskGraph(), TaskGraph()
        w = Task.make("w", out=["x"])
        r = Task.make("r", in_=["x"])
        g1.add_task(w)  # gid 0 in g1
        g2.add_task(r)  # gid 0 in g2
        tr = DependenceTracker()
        tr.register(w)
        with pytest.raises(ValueError, match="one DependenceTracker"):
            tr.register(r)

    def test_tracker_mixes_one_graph_with_detached_tasks(self):
        """Graph gids (>= 0) and tracker-local detached ids (<= -2)
        never collide, so one graph plus detached tasks is fine."""
        from repro.core.graph import TaskGraph

        g = TaskGraph()
        w = Task.make("w", out=["x"])
        g.add_task(w)
        tr = DependenceTracker()
        tr.register(w)
        r = Task.make("r", in_=["x"])  # detached
        assert edges_of(tr, r) == {("w", "r")}


class TestTaskSlots:
    """Task is slotted: fixed attribute set, still picklable/hashable."""

    def test_task_has_no_instance_dict(self):
        t = Task.make("t", out=["x"])
        assert not hasattr(t, "__dict__")
        with pytest.raises(AttributeError):
            t.ad_hoc_attribute = 1

    def test_task_pickle_round_trip(self):
        import pickle

        t = Task.make("t", cpu_cycles=2e6, mem_seconds=1e-3,
                      in_=["a"], out=["b"], priority=3)
        clone = pickle.loads(pickle.dumps(t))
        assert clone.task_id == t.task_id
        assert clone.label == "t"
        assert clone.cpu_cycles == t.cpu_cycles
        assert clone.deps == t.deps
        assert clone == t and hash(clone) == hash(t)

    def test_pickled_clone_submits_with_same_edges(self):
        import pickle

        from repro.core.runtime import Runtime
        from repro.sim.machine import Machine

        def edges(tasks):
            rt = Runtime(Machine(2), record_trace=False)
            rt.submit_all(tasks)
            return [list(s) for s in rt.graph.succ_ids]

        tasks = [
            Task.make("w", out=["a"]),
            Task.make("r", in_=["a"], out=[("b", 0, 8)]),
            Task.make("rw", inout=[("b", 4, 12)]),
        ]
        clones = pickle.loads(pickle.dumps(tasks))
        assert all(c.graph is None and c.gid == -1 for c in clones)
        assert edges(clones) == edges(tasks) == [[1], [2], []]

    def test_runtime_managed_fields_still_assignable(self):
        t = Task.make("t")
        t.critical = True
        t.bottom_level = 4.2
        assert t.critical and t.bottom_level == 4.2

    def test_graph_owned_fields_delegate_once_attached(self):
        from repro.core.graph import TaskGraph

        g = TaskGraph()
        t = Task.make("t")
        t.critical = True  # detached: local fallback slot
        g.add_task(t)
        assert t.critical  # carried into the graph array
        t.bottom_level = 2.5
        assert g.bottom_level[t.gid] == 2.5  # setter hits the array
        g.critical[t.gid] = False
        assert t.critical is False  # getter reads the array
