"""Unit tests for the Task Dependency Graph and its analyses."""

import pytest

from repro.core.graph import CycleError, TaskGraph
from repro.core.task import Task, TaskState


def chain(n, cycles=1e6):
    """t0 -> t1 -> ... -> t{n-1}"""
    g = TaskGraph()
    tasks = [Task.make(f"t{i}", cpu_cycles=cycles) for i in range(n)]
    for t in tasks:
        g.add_task(t)
    for a, b in zip(tasks, tasks[1:]):
        g.add_edge(a, b)
    return g, tasks


def diamond():
    g = TaskGraph()
    a, b, c, d = (Task.make(x, cpu_cycles=1e6) for x in "abcd")
    for t in (a, b, c, d):
        g.add_task(t)
    g.add_edge(a, b)
    g.add_edge(a, c)
    g.add_edge(b, d)
    g.add_edge(c, d)
    return g, (a, b, c, d)


class TestStructure:
    def test_roots_and_sinks(self):
        g, (a, b, c, d) = diamond()
        assert g.roots() == [a]
        assert g.sinks() == [d]

    def test_duplicate_task_rejected(self):
        g = TaskGraph()
        t = Task.make("t")
        g.add_task(t)
        with pytest.raises(ValueError):
            g.add_task(t)

    def test_edge_requires_membership(self):
        g = TaskGraph()
        t = Task.make("t")
        g.add_task(t)
        with pytest.raises(ValueError):
            g.add_edge(t, Task.make("stranger"))

    def test_duplicate_edge_ignored(self):
        g, (a, b, *_rest) = diamond()
        before = g.n_edges
        assert g.add_edge(a, b) is False
        assert g.n_edges == before

    def test_topological_order_respects_edges(self):
        g, tasks = diamond()
        order = g.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        for t in tasks:
            for s in t.successors:
                assert pos[t] < pos[s]

    def test_cycle_detection(self):
        g = TaskGraph()
        a, b = Task.make("a"), Task.make("b")
        g.add_task(a)
        g.add_task(b)
        g.add_edge(a, b)
        # Force a cycle behind the API's back, directly in the id arrays.
        g.succ_ids[b.gid].append(a.gid)
        with pytest.raises(CycleError):
            g.topological_order()

    def test_edge_from_a_later_gid_to_an_earlier_one(self):
        """Only ``add_edge`` can point an edge down in gid order
        (submission never does).  Predecessors, roots and Kahn's order
        are derived from the successor lists and must follow it."""
        g = TaskGraph()
        a, b, c = (Task.make(x) for x in "abc")
        for t in (a, b, c):
            g.add_task(t)
        g.add_edge(c, a)
        g.add_edge(b, a)
        g.add_edge(c, b)
        assert g.succ_ids == [[], [0], [0, 1]]
        assert g.pred_lists() == [[1, 2], [2], []]
        assert a.predecessors == {b, c}
        assert b.predecessors == {c} and c.predecessors == set()
        assert g.roots() == [c]
        assert g.topo_ids() == [2, 1, 0]
        # ``depth`` is a lower bound for edges added out of order; the
        # analysis recomputes depths from the edges.
        assert g.depth == [1, 1, 0]
        assert g.width_profile() == [1, 1, 1]

    def test_validate_passes_on_good_graph(self):
        g, _ = diamond()
        g.validate()

    def test_grow_fills_creation_defaults(self):
        """Every gid array gains one slot per task, holding the creation
        defaults (only ``submit_time`` is set, and only when given)."""
        g = TaskGraph()
        g.add_task(Task.make("first"))
        assert g.grow([Task.make("a"), Task.make("b")]) == 1
        lengths = {len(getattr(g, name)) for name in TaskGraph._ARRAY_MANIFEST}
        assert lengths == {3}
        assert g.state[1:] == [TaskState.CREATED] * 2
        assert g.critical[1:] == [False, False]
        assert g.bottom_level[1:] == [0.0, 0.0]
        assert g.depth[1:] == [0, 0] and g.unfinished_preds[1:] == [0, 0]
        assert g.submit_time[1:] == g.ready_time[1:] == [None, None]
        assert g.start_time[1:] == g.end_time[1:] == [None, None]
        assert g.pred_lists()[1:] == [[], []] and g.succ_ids[1:] == [[], []]
        g.grow([Task.make("c")], submit_time=2.0)
        assert g.submit_time[3] == 2.0

    def test_truncate_detaches_only_the_dropped_tail(self):
        g = TaskGraph()
        kept, dropped = Task.make("kept"), Task.make("dropped")
        g.add_task(kept)
        g.add_task(dropped)
        # A duplicate handle in the tail maps below the cut: left alone.
        g.grow([kept])
        g.truncate(1)
        assert len(g) == 1
        assert {len(getattr(g, name)) for name in TaskGraph._ARRAY_MANIFEST} == {1}
        assert kept.graph is g and kept.gid == 0
        assert g.tasks == [kept]
        assert dropped.graph is None and dropped.gid == -1
        g.add_task(dropped)  # resubmittable after the rollback
        assert dropped.gid == 1


class TestAnalyses:
    def test_chain_critical_path_is_total_work(self):
        g, tasks = chain(5, cycles=1e9)
        path, length = g.critical_path()
        assert [t.label for t in path] == [t.label for t in tasks]
        assert length == pytest.approx(5.0)  # 1e9 cycles at 1 GHz reference

    def test_diamond_critical_path_length(self):
        g, _ = diamond()
        _, length = g.critical_path()
        assert length == pytest.approx(3e6 / 1e9)

    def test_bottom_levels_monotone_toward_roots(self):
        g, tasks = chain(4)
        g.compute_bottom_levels()
        levels = [t.bottom_level for t in tasks]
        assert levels == sorted(levels, reverse=True)

    def test_mark_critical_on_unbalanced_diamond(self):
        g = TaskGraph()
        a = Task.make("a", cpu_cycles=1e6)
        heavy = Task.make("heavy", cpu_cycles=9e6)
        light = Task.make("light", cpu_cycles=1e6)
        d = Task.make("d", cpu_cycles=1e6)
        for t in (a, heavy, light, d):
            g.add_task(t)
        g.add_edge(a, heavy)
        g.add_edge(a, light)
        g.add_edge(heavy, d)
        g.add_edge(light, d)
        n = g.mark_critical_tasks()
        assert n == 3
        assert a.critical and heavy.critical and d.critical
        assert not light.critical

    def test_balanced_diamond_all_critical(self):
        g, tasks = diamond()
        assert g.mark_critical_tasks() == 4

    def test_width_profile(self):
        g, _ = diamond()
        assert g.width_profile() == [1, 2, 1]

    def test_average_parallelism_bounds(self):
        g, _ = diamond()
        ap = g.average_parallelism()
        assert 1.0 < ap <= 2.0  # 4 units of work over a 3-unit critical path

    def test_total_work(self):
        g, _ = chain(3, cycles=1e9)
        assert g.total_work() == pytest.approx(3.0)

    def test_empty_graph_analyses(self):
        g = TaskGraph()
        assert g.topological_order() == []
        assert g.width_profile() == []
        assert g.compute_bottom_levels() == 0.0

    def test_to_networkx_roundtrip(self):
        g, (a, b, c, d) = diamond()
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == 4
        assert nxg.number_of_edges() == 4
        assert nxg.has_edge(a.gid, d.gid) is False
        assert nxg.has_edge(a.gid, b.gid)
        assert nxg.nodes[b.gid]["label"] == "b"
