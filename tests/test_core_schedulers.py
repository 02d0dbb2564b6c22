"""Unit tests for ready-queue scheduling policies.

Schedulers queue dense task ids against a bound :class:`TaskGraph` view,
so every test builds a small graph, binds it, and pushes/pops gids; the
id → Task resolution is checked through ``ready_tasks``.
"""

import pytest

from repro.core.graph import TaskGraph
from repro.core.schedulers import (
    BottomLevelScheduler,
    BreadthFirstScheduler,
    CriticalityAwareScheduler,
    FifoScheduler,
    LifoScheduler,
    StaticScheduler,
    WorkStealingScheduler,
)
from repro.core.task import Task


def make_view(*labels):
    """A graph of detached tasks plus their gids, as the scheduler view."""
    g = TaskGraph()
    gids = [g.add_task(Task.make(label)) for label in labels]
    return g, gids


def bound(scheduler, graph):
    scheduler.bind(graph)
    return scheduler


class TestGlobalQueues:
    def test_fifo_order(self):
        g, (a, b) = make_view("a", "b")
        s = bound(FifoScheduler(), g)
        s.push(a)
        s.push(b)
        assert s.pop(0) == a
        assert s.pop(0) == b
        assert s.pop(0) is None

    def test_lifo_order(self):
        g, (a, b) = make_view("a", "b")
        s = bound(LifoScheduler(), g)
        s.push(a)
        s.push(b)
        assert s.pop(0) == b

    def test_breadth_first_prefers_shallow(self):
        g, (deep, shallow) = make_view("deep", "shallow")
        g.depth[deep], g.depth[shallow] = 5, 1
        s = bound(BreadthFirstScheduler(), g)
        s.push(deep)
        s.push(shallow)
        assert s.pop(0) == shallow

    def test_bottom_level_prefers_long_chains(self):
        g, (short, long_) = make_view("short", "long")
        g.bottom_level[short], g.bottom_level[long_] = 1.0, 10.0
        s = bound(BottomLevelScheduler(), g)
        s.push(short)
        s.push(long_)
        assert s.pop(0) == long_

    def test_heap_scheduler_requires_bind(self):
        s = BreadthFirstScheduler()
        with pytest.raises(RuntimeError, match="bind"):
            s.push(0)

    def test_len_and_bool(self):
        g, (a,) = make_view("a")
        s = bound(FifoScheduler(), g)
        assert not s
        s.push(a)
        assert len(s) == 1 and s

    def test_ready_tasks_resolves_handles(self):
        g, (a, b) = make_view("a", "b")
        s = bound(FifoScheduler(), g)
        s.push(b)
        s.push(a)
        assert [t.label for t in s.ready_tasks()] == ["b", "a"]


class TestWorkStealing:
    def test_owner_pops_lifo(self):
        g, (a, b) = make_view("a", "b")
        s = bound(WorkStealingScheduler(2), g)
        s.push(a, hint_core=0)
        s.push(b, hint_core=0)
        assert s.pop(0) == b

    def test_steal_takes_oldest_from_fullest(self):
        g, (a, b) = make_view("a", "b")
        s = bound(WorkStealingScheduler(3), g)
        s.push(a, hint_core=0)
        s.push(b, hint_core=0)
        got = s.pop(2)  # empty deque -> steal
        assert got == a  # FIFO steal
        assert s.steals == 1

    def test_round_robin_distribution_without_hint(self):
        g, gids = make_view("t0", "t1", "t2", "t3")
        s = bound(WorkStealingScheduler(2), g)
        for gid in gids:
            s.push(gid)
        # two per deque
        assert len(s) == 4
        assert s.pop(0) is not None and s.pop(1) is not None

    def test_empty_pop_returns_none(self):
        s = WorkStealingScheduler(2)
        assert s.pop(0) is None

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            WorkStealingScheduler(0)


class TestCriticalityAware:
    def test_critical_queue_preferred(self):
        g, (normal, crit) = make_view("n", "c")
        g.critical[crit] = True
        s = bound(CriticalityAwareScheduler(), g)
        s.push(normal)
        s.push(crit)
        assert s.pop(0) == crit
        assert s.pop(0) == normal

    def test_ready_ids_sees_both_queues(self):
        g, (a, b) = make_view("a", "b")
        g.critical[b] = True
        s = bound(CriticalityAwareScheduler(), g)
        s.push(a)
        s.push(b)
        assert sorted(s.ready_ids()) == sorted([a, b])


class TestStatic:
    def test_round_robin_assignment_is_fixed(self):
        g, gids = make_view("t0", "t1", "t2", "t3")
        s = bound(StaticScheduler(2), g)
        for gid in gids:
            s.push(gid)
        assert s.pop(0) == gids[0]
        assert s.pop(1) == gids[1]
        assert s.pop(0) == gids[2]
        assert s.pop(1) == gids[3]

    def test_no_stealing_across_queues(self):
        g, (t0,) = make_view("t0")
        s = bound(StaticScheduler(2), g)
        s.push(t0)  # goes to core 0
        assert s.pop(1) is None
