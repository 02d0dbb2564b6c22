"""Array-native timestamps, the analytics module, interning, traces."""

import pickle

import numpy as np
import pytest

from repro.core import (
    FifoScheduler,
    Region,
    Runtime,
    Task,
    clear_region_intern,
    critical_path_occupancy,
    per_depth_latency,
    ready_queue_residency,
    timestamp_table,
)
from repro.apps.dag_workloads import make_workload
from repro.core.deps import DependenceTracker
from repro.core.graph import TaskGraph
from repro.sim.machine import Machine
from repro.sim.trace import TraceRecorder
from tracker_helpers import register


def _run(criticality=None, n_cores=4, scale=1):
    machine = Machine(n_cores, initial_level=2)
    rt = Runtime(
        machine,
        scheduler=FifoScheduler(),
        record_trace=False,
        criticality=criticality,
    )
    rt.submit_all(make_workload("cholesky", scale=scale, seed=1))
    res = rt.run()
    return rt, res


# ----------------------------------------------------------------------
# timestamp arrays
# ----------------------------------------------------------------------
class TestTimestampArrays:
    def test_arrays_filled_and_ordered(self):
        rt, _ = _run()
        g = rt.graph
        for gid in range(len(g)):
            assert g.submit_time[gid] is not None
            assert g.ready_time[gid] is not None
            assert g.start_time[gid] is not None
            assert g.end_time[gid] is not None
            assert (
                g.submit_time[gid]
                <= g.ready_time[gid]
                <= g.start_time[gid]
                < g.end_time[gid]
            )

    def test_task_properties_delegate_to_arrays(self):
        rt, _ = _run()
        g = rt.graph
        for task in g.tasks:
            assert task.submit_time == g.submit_time[task.gid]
            assert task.ready_time == g.ready_time[task.gid]
            assert task.start_time == g.start_time[task.gid]
            assert task.end_time == g.end_time[task.gid]


# ----------------------------------------------------------------------
# analytics pivots
# ----------------------------------------------------------------------
class TestAnalytics:
    def test_timestamp_table_shapes(self):
        rt, res = _run()
        table = timestamp_table(rt.graph)
        n = len(rt.graph)
        for col in ("gid", "depth", "critical", "submit", "ready",
                    "start", "end"):
            assert isinstance(table[col], np.ndarray)
            assert len(table[col]) == n
        # makespan is the max end time
        assert max(table["end"]) == pytest.approx(res.makespan)

    def test_per_depth_latency_covers_all_depths(self):
        rt, _ = _run()
        rows = per_depth_latency(rt.graph)
        depths = {r["depth"] for r in rows}
        assert depths == set(rt.graph.depth)
        assert sum(r["n"] for r in rows) == len(rt.graph)
        for r in rows:
            assert r["mean_exec"] > 0
            assert r["mean_wait"] >= 0

    def test_ready_queue_residency_summary(self):
        rt, _ = _run(n_cores=2, scale=2)  # narrow machine: real queueing
        summary = ready_queue_residency(rt.graph)
        assert summary.n == len(rt.graph)
        assert summary.max >= summary.p95 >= summary.p50 >= 0
        assert summary.max > 0  # 2 cores on a wide graph must queue

    def test_residency_none_when_nothing_ran(self):
        from repro.core.graph import TaskGraph

        assert ready_queue_residency(TaskGraph()) is None

    def test_critical_path_occupancy_bounds(self):
        from repro.core import CriticalPathOracle

        rt, _ = _run(criticality=CriticalPathOracle())
        occ = critical_path_occupancy(rt.graph)
        assert 0.0 < occ <= 1.0

    def test_occupancy_zero_without_critical_marks(self):
        rt, _ = _run()
        assert critical_path_occupancy(rt.graph) == 0.0

    def test_running_tasks_excluded_mid_run(self):
        """end_time is stamped at dispatch; analytics must gate on the
        FINISHED state, not on a non-None end time."""
        from repro.core.graph import TaskGraph
        from repro.core.task import TaskState

        g = TaskGraph()
        done = Task.make("done")
        running = Task.make("running")
        for t in (done, running):
            g.add_task(t)
        for gid, state, (s, e) in (
            (done.gid, TaskState.FINISHED, (0.0, 1.0)),
            (running.gid, TaskState.RUNNING, (0.5, 9.0)),  # future end
        ):
            g.state[gid] = state
            g.submit_time[gid] = 0.0
            g.ready_time[gid] = 0.0
            g.start_time[gid] = s
            g.end_time[gid] = e
            g.core[gid] = gid
            g.dvfs_level[gid] = 2
        g.critical[running.gid] = True
        table = timestamp_table(g)
        assert list(table["gid"]) == [done.gid]
        assert sum(r["n"] for r in per_depth_latency(g)) == 1
        assert ready_queue_residency(g).n == 1
        # the RUNNING critical task's not-yet-elapsed interval is ignored
        assert critical_path_occupancy(g) == 0.0
        rebuilt = TraceRecorder.from_graph(g, Machine(2, initial_level=2))
        assert [r.gid for r in rebuilt.records] == [done.gid]

    def test_analytics_survive_handle_release(self):
        """Streaming mode: analytics read arrays, not handles."""
        machine = Machine(4, initial_level=2)
        rt = Runtime(machine, record_trace=False, prune_every=8)
        rt.submit_all(make_workload("cholesky", scale=1, seed=1))
        rt.run()
        assert rt.graph.live_handles() < len(rt.graph)
        rows = per_depth_latency(rt.graph)
        assert sum(r["n"] for r in rows) == len(rt.graph)
        assert ready_queue_residency(rt.graph).n == len(rt.graph)


# ----------------------------------------------------------------------
# traces built from the graph arrays (digests: tests/test_trace_pins.py)
# ----------------------------------------------------------------------
class TestTraceFromGraph:
    def test_from_graph_skips_released_handles(self):
        machine = Machine(4, initial_level=2)
        rt = Runtime(machine, record_trace=False, prune_every=4)
        rt.submit_all(make_workload("cholesky", scale=1, seed=1))
        rt.run()
        rebuilt = TraceRecorder.from_graph(rt.graph, rt.machine)
        assert len(rebuilt) == rt.graph.live_handles()


# ----------------------------------------------------------------------
# region interning
# ----------------------------------------------------------------------
class TestRegionInterning:
    def test_interned_identity(self):
        a = Region.interned(("x", 0, 8))
        b = Region.interned(("x", 0, 8))
        c = Region.interned("x")
        assert a is b
        assert a is not c and c is Region.interned("x")

    def test_interned_accepts_region_and_str(self):
        r = Region("y", 1, 2)
        assert Region.interned(r) == r
        assert Region.interned("y").name == "y"

    def test_pickle_drops_tracker_cache(self):
        """A region a tracker has resolved pickles as its plain value:
        the copy is equal, hashes the same, and no tracker state reaches
        the pickle stream."""
        region = Region.interned(("pkl", 0, 4))
        tr = DependenceTracker(TaskGraph())
        register(tr, Task.make("w", out=[region]))
        data = pickle.dumps(region)
        clone = pickle.loads(data)
        assert clone == region
        assert hash(clone) == hash(region)
        assert b"DependenceTracker" not in data

    def test_cache_excluded_from_eq_hash(self):
        plain = Region("z", 0, 4)
        interned = Region.interned(("z", 0, 4))
        assert plain == interned and hash(plain) == hash(interned)

    def test_clear_region_intern(self):
        Region.interned(("tmp_clear", 0, 1))
        assert clear_region_intern() > 0
        assert clear_region_intern() == 0

    def test_two_trackers_share_interned_region_safely(self):
        """A canonical region touched by two trackers must resolve each
        tracker's own history."""
        region = Region.interned(("dual", 0, 4))
        edges = []
        for _ in range(2):
            tr = DependenceTracker(TaskGraph())
            w = Task.make("w", out=[region])
            r = Task.make("r", in_=[region])
            register(tr, w)
            edges.append({(p.label, s.label) for p, s in register(tr, r)})
        assert edges[0] == edges[1] == {("w", "r")}
