"""Property-based tests (hypothesis) on the dependence tracker, TDG and
runtime scheduling invariants.

These are the load-bearing correctness properties of the whole reproduction:
whatever random program we throw at the runtime, the derived TDG must be
acyclic and the simulated schedule must be a legal parallel execution.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core import (
    FifoScheduler,
    LifoScheduler,
    Runtime,
    Task,
    TaskState,
    WorkStealingScheduler,
)
from repro.core.deps import DependenceTracker
from repro.core.graph import TaskGraph
from repro.sim import Machine

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def access_spec(draw):
    name = draw(_names)
    start = draw(st.integers(0, 40))
    length = draw(st.integers(1, 30))
    return (name, start, start + length)


@st.composite
def random_program(draw, max_tasks=25):
    n = draw(st.integers(1, max_tasks))
    tasks = []
    for i in range(n):
        n_in = draw(st.integers(0, 2))
        n_out = draw(st.integers(0, 2))
        n_inout = draw(st.integers(0, 1))
        t = Task.make(
            f"t{i}",
            cpu_cycles=draw(st.floats(1e4, 1e7)),
            in_=[draw(access_spec()) for _ in range(n_in)],
            out=[draw(access_spec()) for _ in range(n_out)],
            inout=[draw(access_spec()) for _ in range(n_inout)],
        )
        tasks.append(t)
    return tasks


def build_graph(tasks):
    graph = TaskGraph()
    DependenceTracker(graph).register_batch(tasks, 0.0)
    return graph


# ---------------------------------------------------------------------------
# TDG structural properties
# ---------------------------------------------------------------------------


@given(random_program())
@settings(max_examples=60, deadline=None)
def test_derived_graph_is_acyclic(tasks):
    graph = build_graph(tasks)
    order = graph.topological_order()  # raises on a cycle
    assert len(order) == len(tasks)


@given(random_program())
@settings(max_examples=60, deadline=None)
def test_edges_only_point_forward_in_submission_order(tasks):
    """Dataflow edges derived at submission can only point from an earlier
    submission to a later one (the tracker never invents back-edges)."""
    graph = build_graph(tasks)
    pos = {t.task_id: i for i, t in enumerate(tasks)}
    for t in graph.tasks:
        for s in t.successors:
            assert pos[t.task_id] < pos[s.task_id]


@given(random_program())
@settings(max_examples=40, deadline=None)
def test_bottom_levels_dominate_successors(tasks):
    graph = build_graph(tasks)
    graph.compute_bottom_levels()
    for t in graph.tasks:
        for s in t.successors:
            assert t.bottom_level >= s.bottom_level


@given(random_program())
@settings(max_examples=40, deadline=None)
def test_critical_path_at_least_max_bottom_level(tasks):
    graph = build_graph(tasks)
    _, length = graph.critical_path()
    assert length >= max(t.bottom_level for t in graph.tasks) - 1e-9
    total = graph.total_work()
    assert length <= total + 1e-9


# ---------------------------------------------------------------------------
# schedule legality properties
# ---------------------------------------------------------------------------


@given(
    random_program(),
    st.integers(1, 6),
    st.sampled_from(["fifo", "lifo", "ws"]),
)
@settings(max_examples=50, deadline=None)
def test_simulated_schedule_is_legal(tasks, n_cores, sched_name):
    """For any program, scheduler and core count:
    - every task finishes,
    - no core overlaps two tasks,
    - no task starts before all its predecessors ended,
    - makespan is bounded by [critical path, total work] durations."""
    machine = Machine(n_cores, initial_level=2)
    scheduler = {
        "fifo": FifoScheduler(),
        "lifo": LifoScheduler(),
        "ws": WorkStealingScheduler(n_cores),
    }[sched_name]
    rt = Runtime(machine, scheduler=scheduler)
    for t in tasks:
        rt.submit(t)
    res = rt.run()

    assert all(t.state is TaskState.FINISHED for t in tasks)
    res.trace.validate_no_overlap()
    for t in tasks:
        for s in t.successors:
            assert s.start_time >= t.end_time - 1e-12

    freq = machine.cores[0].frequency_hz
    cp_seconds = rt.graph.critical_path(
        weight=lambda t: t.duration_at(freq)
    )[1]
    total_seconds = sum(t.duration_at(freq) for t in tasks)
    assert res.makespan >= cp_seconds - 1e-9
    assert res.makespan <= total_seconds + 1e-9


@given(random_program(), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_work_conservation(tasks, n_cores):
    """Total busy time across cores equals the sum of task durations."""
    machine = Machine(n_cores, initial_level=2)
    rt = Runtime(machine)
    for t in tasks:
        rt.submit(t)
    res = rt.run()
    freq = machine.cores[0].frequency_hz
    expected = sum(t.duration_at(freq) for t in tasks)
    busy = sum(r.duration for r in res.trace.records)
    assert math.isclose(busy, expected, rel_tol=1e-9)


@given(random_program())
@settings(max_examples=30, deadline=None)
def test_single_core_executes_serially_regardless_of_deps(tasks):
    machine = Machine(1, initial_level=2)
    rt = Runtime(machine)
    for t in tasks:
        rt.submit(t)
    res = rt.run()
    freq = machine.cores[0].frequency_hz
    total = sum(t.duration_at(freq) for t in tasks)
    assert math.isclose(res.makespan, total, rel_tol=1e-9)


@given(st.integers(1, 8), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_independent_tasks_reach_ideal_speedup_bound(n_cores, n_tasks):
    """With identical independent tasks, makespan = ceil(n/k) * duration."""
    machine = Machine(n_cores, initial_level=2)
    rt = Runtime(machine)
    for i in range(n_tasks):
        rt.submit(Task.make(f"t{i}", cpu_cycles=2e9))
    res = rt.run()
    per_task = 1.0  # 2e9 cycles at 2 GHz
    expected = math.ceil(n_tasks / n_cores) * per_task
    assert math.isclose(res.makespan, expected, rel_tol=1e-9)
