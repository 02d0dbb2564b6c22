"""Unit tests for tasks, regions, and the dependence tracker."""

import pickle

import pytest

from repro.core.deps import DependenceTracker
from repro.core.graph import TaskGraph
from repro.core.task import Dependence, DepKind, Region, Task, TaskState
from tracker_helpers import register


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
        """Tasks compare by identity: equal fields make two tasks."""
        a, b = Task.make("a", out=["x"]), Task.make("a", out=["x"])
        assert (a.label, a.cpu_cycles, a.deps) == (b.label, b.cpu_cycles, b.deps)
        assert a != b and a == a
        assert len({a, b}) == 2

    def test_kind_read_write_flags(self):
        assert DepKind.IN.reads and not DepKind.IN.writes
        assert DepKind.OUT.writes and not DepKind.OUT.reads
        assert DepKind.INOUT.reads and DepKind.INOUT.writes
        assert DepKind.CONCURRENT.reads
        assert DepKind.COMMUTATIVE.writes

    def test_make_fills_every_field_in_place(self):
        t = Task.make("t", 5.0, 0.25, in_=["a", "b"], out=(),
                      commutative=["c"], fn=max, args=(1,),
                      kwargs={"k": 1}, priority=3)
        assert t.deps == [
            Dependence(DepKind.IN, Region("a")),
            Dependence(DepKind.IN, Region("b")),
            Dependence(DepKind.COMMUTATIVE, Region("c")),
        ]
        assert (t.label, t.cpu_cycles, t.mem_seconds) == ("t", 5.0, 0.25)
        assert (t.fn, t.args, t.kwargs, t.priority) == (max, (1,), {"k": 1}, 3)
        assert Task.make("u").kwargs == {} and Task.make("u").deps == []


class TestDependenceValue:
    """``Dependence`` is an immutable ``(kind, region)`` tuple subclass."""

    def test_fields_read_back(self):
        dep = Dependence(DepKind.INOUT, Region("x", 0, 8))
        assert dep.kind is DepKind.INOUT
        assert dep.region == Region("x", 0, 8)
        assert tuple(dep) == (DepKind.INOUT, Region("x", 0, 8))

    def test_assignment_raises(self):
        dep = Dependence(DepKind.IN, Region("x"))
        with pytest.raises(AttributeError):
            dep.kind = DepKind.OUT
        with pytest.raises(AttributeError):
            dep.extra = 1

    def test_equal_pairs_hash_equal(self):
        a = Dependence(DepKind.IN, Region("x"))
        b = Dependence(DepKind.IN, Region("x"))
        assert a == b and hash(a) == hash(b)
        assert a != Dependence(DepKind.OUT, Region("x"))
        assert a == (DepKind.IN, Region("x"))  # a plain pair compares equal

    def test_pickle_keeps_the_type(self):
        dep = Dependence(DepKind.CONCURRENT, Region("x", 2, 4))
        back = pickle.loads(pickle.dumps(dep))
        assert type(back) is Dependence and back == dep

    def test_register_rejects_a_plain_pair(self):
        tracker = DependenceTracker(TaskGraph())
        bad = Task(label="bad", deps=[(DepKind.IN, Region("x"))])
        with pytest.raises(TypeError):
            register(tracker, bad)


def edges_of(tracker, task):
    return {(p.label, s.label) for p, s in register(tracker, task)}


class TestDependenceTracker:
    def test_raw_dependence(self):
        tr = DependenceTracker(TaskGraph())
        w = Task.make("w", out=["x"])
        r = Task.make("r", in_=["x"])
        assert register(tr, w) == set()
        assert edges_of(tr, r) == {("w", "r")}

    def test_war_dependence(self):
        tr = DependenceTracker(TaskGraph())
        r = Task.make("r", in_=["x"])
        w = Task.make("w", out=["x"])
        register(tr, r)
        assert edges_of(tr, w) == {("r", "w")}

    def test_waw_dependence(self):
        tr = DependenceTracker(TaskGraph())
        w1 = Task.make("w1", out=["x"])
        w2 = Task.make("w2", out=["x"])
        register(tr, w1)
        assert edges_of(tr, w2) == {("w1", "w2")}

    def test_independent_reads_share_no_edge(self):
        tr = DependenceTracker(TaskGraph())
        register(tr, Task.make("w", out=["x"]))
        r1 = Task.make("r1", in_=["x"])
        r2 = Task.make("r2", in_=["x"])
        register(tr, r1)
        edges = edges_of(tr, r2)
        assert ("r1", "r2") not in edges

    def test_new_writer_orders_after_all_readers(self):
        tr = DependenceTracker(TaskGraph())
        register(tr, Task.make("w0", out=["x"]))
        register(tr, Task.make("r1", in_=["x"]))
        register(tr, Task.make("r2", in_=["x"]))
        w = Task.make("w1", out=["x"])
        edges = edges_of(tr, w)
        assert ("r1", "w1") in edges and ("r2", "w1") in edges

    def test_reader_after_new_writer_sees_only_new_writer(self):
        tr = DependenceTracker(TaskGraph())
        register(tr, Task.make("w0", out=["x"]))
        register(tr, Task.make("w1", out=["x"]))
        r = Task.make("r", in_=["x"])
        assert edges_of(tr, r) == {("w1", "r")}

    def test_disjoint_block_accesses_are_independent(self):
        tr = DependenceTracker(TaskGraph())
        register(tr, Task.make("w0", out=[("x", 0, 10)]))
        r = Task.make("r", in_=[("x", 10, 20)])
        assert edges_of(tr, r) == set()

    def test_overlapping_block_accesses_conflict(self):
        tr = DependenceTracker(TaskGraph())
        register(tr, Task.make("w0", out=[("x", 0, 10)]))
        r = Task.make("r", in_=[("x", 5, 8)])
        assert edges_of(tr, r) == {("w0", "r")}

    def test_whole_object_write_conflicts_with_blocks(self):
        tr = DependenceTracker(TaskGraph())
        register(tr, Task.make("wb", out=[("x", 0, 10)]))
        w_all = Task.make("wall", inout=["x"])
        assert edges_of(tr, w_all) == {("wb", "wall")}
        r = Task.make("r", in_=[("x", 3, 7)])
        assert ("wall", "r") in edges_of(tr, r)

    def test_concurrent_group_members_unordered(self):
        tr = DependenceTracker(TaskGraph())
        register(tr, Task.make("w", out=["acc"]))
        c1 = Task.make("c1", concurrent=["acc"])
        c2 = Task.make("c2", concurrent=["acc"])
        assert edges_of(tr, c1) == {("w", "c1")}
        edges2 = edges_of(tr, c2)
        assert ("c1", "c2") not in edges2
        assert ("w", "c2") in edges2

    def test_reader_after_concurrent_group_waits_for_all(self):
        tr = DependenceTracker(TaskGraph())
        register(tr, Task.make("c1", concurrent=["acc"]))
        register(tr, Task.make("c2", concurrent=["acc"]))
        r = Task.make("r", in_=["acc"])
        assert edges_of(tr, r) == {("c1", "r"), ("c2", "r")}

    def test_commutative_chain_serialises(self):
        tr = DependenceTracker(TaskGraph())
        m1 = Task.make("m1", commutative=["x"])
        m2 = Task.make("m2", commutative=["x"])
        m3 = Task.make("m3", commutative=["x"])
        register(tr, m1)
        assert edges_of(tr, m2) == {("m1", "m2")}
        assert edges_of(tr, m3) == {("m2", "m3")}

    def test_inout_chain(self):
        tr = DependenceTracker(TaskGraph())
        prev = None
        for i in range(5):
            t = Task.make(f"t{i}", inout=["x"])
            edges = register(tr, t)
            if prev is not None:
                assert (prev, t) in edges
            prev = t

    def test_no_self_edges(self):
        tr = DependenceTracker(TaskGraph())
        t = Task.make("t", in_=["x"], out=["x"])
        assert register(tr, t) == set()

    def test_multiple_names_tracked_independently(self):
        tr = DependenceTracker(TaskGraph())
        register(tr, Task.make("wx", out=["x"]))
        register(tr, Task.make("wy", out=["y"]))
        r = Task.make("r", in_=["x", "y"])
        assert edges_of(tr, r) == {("wx", "r"), ("wy", "r")}


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
        assert clone.label == "t"
        assert clone.cpu_cycles == t.cpu_cycles
        assert clone.mem_seconds == t.mem_seconds
        assert clone.priority == t.priority
        assert clone.deps == t.deps
        # Equal fields, distinct task: tasks compare by identity.
        assert clone is not t and clone != t

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

    def test_graph_owned_fields_delegate_once_attached(self):
        g = TaskGraph()
        t = Task.make("t")
        g.add_task(t)
        assert t.critical is False and t.bottom_level == 0.0
        g.critical[t.gid] = True
        g.bottom_level[t.gid] = 2.5
        assert t.critical is True  # the getter reads the array
        assert t.bottom_level == 2.5


#: The graph-owned views and the creation default a detached handle reads.
GRAPH_OWNED_DEFAULTS = {
    "state": TaskState.CREATED,
    "critical": False,
    "bottom_level": 0.0,
    "depth": 0,
    "submit_time": None,
    "ready_time": None,
    "start_time": None,
    "end_time": None,
}


def assert_detached(task):
    assert task.graph is None and task.gid == -1
    for name, default in GRAPH_OWNED_DEFAULTS.items():
        assert getattr(task, name) == default, name
        assert type(getattr(task, name)) is type(default), name
        with pytest.raises(AttributeError):
            setattr(task, name, default)


class TestGraphOwnedState:
    """The graph's arrays are the only store of per-task state."""

    def test_detached_handle_reads_creation_defaults(self):
        assert_detached(Task.make("t", out=["x"]))

    def test_attached_views_reject_assignment(self):
        from repro.core.runtime import Runtime
        from repro.sim.machine import Machine

        rt = Runtime(Machine(1), record_trace=False)
        t = rt.submit(Task.make("t", cpu_cycles=1e6))
        rt.run()
        assert t.state is TaskState.FINISHED and t.end_time > 0
        for name in GRAPH_OWNED_DEFAULTS:
            with pytest.raises(AttributeError):
                setattr(t, name, getattr(t, name))
        assert t.state is TaskState.FINISHED

    def test_handle_detached_by_a_failed_batch_reads_defaults(self):
        """A batch that fails mid-way is trimmed with TaskGraph.truncate:
        the failing task's slot (stamped with a submit time) is gone, and
        its handle reads the creation defaults again."""
        from repro.core.runtime import Runtime
        from repro.core.task import Dependence
        from repro.sim.machine import Machine

        rt = Runtime(Machine(2), record_trace=False)
        good = Task.make("good", out=["x"])
        bad = Task(label="bad", deps=[Dependence(DepKind.IN, "x")])
        with pytest.raises(TypeError):
            rt.submit_all([good, bad])
        assert len(rt.graph) == 1 and good.gid == 0
        assert rt.graph.tasks == [good]
        assert_detached(bad)
