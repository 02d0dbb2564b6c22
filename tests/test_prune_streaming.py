"""Watermark pruning (streaming mode): equivalence, memory, gc.

Three pillars:

* **Prune-equivalence property suite** — randomized interleaved-window
  programs (submit → taskwait → submit more, so later windows derive
  edges from finished tasks) must produce bit-identical makespans,
  energy, stats *and depth arrays* across ``prune_every`` ∈
  {off, 1, 17, 4096} for all seven schedulers.  This pins the ghost-depth
  replay: pruning may only drop readiness-neutral bookkeeping, never
  shift an execution.
* **Memory boundedness** — the buffer ring bounds the tracker's
  histories, and pruning bounds its member entries and the graph's live
  handles per window; the tracker itself holds gids only, so no ``Task``
  is ever reachable from it, pruned or not.
* **GC regression** — retired tasks must actually be collectible once
  the caller's references lapse; in particular, kept last-writer entries
  must not pin Task objects.  A finished run is freed as soon as it is
  dropped, with no cleanup call: no region, interned or not, points back
  into a tracker.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.apps.dag_workloads import make_workload, stream_window
from repro.campaign.runner import SCHEDULERS
from repro.core.graph import TaskGraph
from repro.core.runtime import Runtime
from repro.core.schedulers import BreadthFirstScheduler
from repro.core.task import Region, Task, TaskState
from repro.resilience import plan_runtime_faults
from repro.sim.machine import Machine
from repro.sim.trace import TraceRecord

PRUNE_SETTINGS = (0, 1, 17, 4096)


# ----------------------------------------------------------------------
# randomized interleaved-window programs
# ----------------------------------------------------------------------
def random_program(seed: int, n_windows: int = 3, window: int = 24):
    """Deterministic windows of tasks over a mixed region namespace.

    Mixes ring buffers (reused every window — WAR/WAW against finished
    tasks), overlapping interval regions, whole-object accesses sharing a
    name with intervals (long-tier), fresh per-window scratch, and all
    five dependence kinds.  Returns a list of window-builder callables so
    each run constructs fresh Task objects.
    """

    def build_window(w: int, rng: np.random.Generator):
        tasks = []
        for j in range(window):
            kind_u = rng.random()
            deps = {}
            regions = []
            n_access = 1 + int(rng.integers(0, 3))
            for _ in range(n_access):
                shape = rng.random()
                if shape < 0.35:
                    regions.append(Region.interned(f"ring{rng.integers(0, 6)}"))
                elif shape < 0.7:
                    a = int(rng.integers(0, 40))
                    b = a + 1 + int(rng.integers(0, 8))
                    regions.append(Region.interned(("arr", a, b)))
                elif shape < 0.85:
                    regions.append(Region.interned("arr"))  # whole object
                else:
                    regions.append(
                        Region.interned((f"w{w}tmp", j, j + 1))
                    )
            if kind_u < 0.3:
                deps["in_"] = regions
            elif kind_u < 0.55:
                deps["out"] = regions
            elif kind_u < 0.8:
                deps["inout"] = regions
            elif kind_u < 0.9:
                deps["concurrent"] = regions
            else:
                deps["commutative"] = regions
            tasks.append(
                Task.make(
                    f"w{w}.t{j}",
                    cpu_cycles=float(rng.integers(1, 20)) * 1e5,
                    mem_seconds=float(rng.integers(0, 3)) * 1e-4,
                    **deps,
                )
            )
        return tasks

    def run(scheduler_name: str, prune_every: int):
        rng = np.random.default_rng(seed)
        windows = [build_window(w, rng) for w in range(n_windows)]
        machine = Machine(4, initial_level=2)
        rt = Runtime(
            machine,
            scheduler=SCHEDULERS[scheduler_name](4),
            record_trace=False,
            prune_every=prune_every,
        )
        for tasks in windows:
            rt.submit_all(tasks)
            rt.taskwait()
        machine.finalize()
        return {
            "makespan": machine.sim.now,
            "energy": machine.total_energy_j(),
            "stats": rt.stats.as_dict(),
            "depth": list(rt.graph.depth),
            "unfinished": list(rt.graph.unfinished_preds),
        }

    return run


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_prune_equivalence_all_schedulers(seed):
    run = random_program(seed)
    for scheduler in SCHEDULERS:
        baseline = run(scheduler, 0)
        assert baseline["makespan"] > 0
        for prune_every in PRUNE_SETTINGS[1:]:
            pruned = run(scheduler, prune_every)
            for key in ("makespan", "energy", "stats", "depth", "unfinished"):
                if key == "stats":
                    # Pruning adds its own counters; every shared counter
                    # must agree exactly.
                    base_stats = baseline["stats"]
                    got = {
                        k: v
                        for k, v in pruned["stats"].items()
                        if k in base_stats
                    }
                    assert got == base_stats, (scheduler, prune_every)
                else:
                    assert pruned[key] == baseline[key], (
                        scheduler, prune_every, key,
                    )


def test_prune_equivalence_streaming_workload():
    """The ring-buffer streaming family, prune on vs off, all schedulers."""
    for scheduler in ("fifo", "breadth_first", "work_stealing"):
        results = []
        for prune_every in (0, 32):
            machine = Machine(8, initial_level=2)
            rt = Runtime(
                machine,
                scheduler=SCHEDULERS[scheduler](8),
                record_trace=False,
                prune_every=prune_every,
            )
            for w in range(5):
                rt.submit_all(
                    stream_window(w, n_buffers=16, n_tasks=64, seed=7)
                )
                rt.taskwait()
            results.append((machine.sim.now, list(rt.graph.depth)))
        assert results[0] == results[1], scheduler


# ----------------------------------------------------------------------
# memory boundedness
# ----------------------------------------------------------------------
def _stream(prune_every, windows=4, n_tasks=64, n_buffers=16):
    """Stream ``windows`` windows with a taskwait after each; return the
    runtime and, per window, the live graph handles right after
    ``submit_all`` (the window's peak) and after its ``taskwait``."""
    rt = Runtime(
        Machine(4, initial_level=2),
        record_trace=False,
        prune_every=prune_every,
    )
    handles = []
    for w in range(windows):
        rt.submit_all(
            stream_window(w, n_buffers=n_buffers, n_tasks=n_tasks, seed=5)
        )
        submitted = rt.graph.live_handles()
        rt.taskwait()
        handles.append((submitted, rt.graph.live_handles()))
    return rt, handles


def test_watermark_releases_graph_handles():
    rt, handles = _stream(prune_every=16)
    total = 4 * 64
    assert len(rt.graph) == total
    # The buffer ring bounds the tracker's histories (never dropped, so
    # the final count is the peak)...
    assert rt.tracker.live_regions <= 16
    # ...and pruning bounds live handles to a window + watermark while a
    # window runs and to a watermark once it drains, in every window.
    assert max(peak for peak, _ in handles) <= 64 + 16
    assert max(drained for _, drained in handles) <= 16
    # Everything at/past the last watermark is released.
    assert rt.graph.live_handles() == 0
    assert rt.stats.get("prune_passes") == total // 16
    assert rt.stats.get("tasks_retired") == total


def test_watermark_off_by_default_keeps_handles():
    rt, handles = _stream(prune_every=0)
    # Without pruning the graph pins every task ever submitted.
    assert [drained for _, drained in handles] == [64, 128, 192, 256]
    assert rt.graph.live_handles() == 4 * 64
    assert rt.stats.get("prune_passes") == 0


def _n_trace_records():
    return sum(isinstance(o, TraceRecord) for o in gc.get_objects())


def test_streaming_with_default_arguments_holds_no_trace_record():
    """Default arguments trace the run, but no record exists before
    ``run()`` builds the trace from the handles the graph still holds:
    a pruned run's memory follows the live window, not the history."""
    gc.collect()
    before = _n_trace_records()
    rt = Runtime(Machine(4, initial_level=2), prune_every=16)
    for w in range(4):
        rt.submit_all(stream_window(w, n_buffers=16, n_tasks=64, seed=5))
        rt.taskwait()
        assert _n_trace_records() == before, f"window {w}"
    trace = rt.run().trace
    assert len(trace) == rt.graph.live_handles() == 0
    assert trace.skipped_released == 4 * 64


def test_prune_bounds_tracker_refs():
    pruned, _ = _stream(prune_every=16)
    unpruned, _ = _stream(prune_every=0)
    # Histories themselves stay (bounded by the ring), members shrink.
    assert pruned.tracker.live_regions == unpruned.tracker.live_regions
    assert pruned.tracker.live_members <= unpruned.tracker.live_members


def _tasks_reachable(root):
    """Task objects reachable from ``root`` without entering a TaskGraph
    or a class (whose module globals reach everything)."""
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        for obj in gc.get_referents(stack.pop()):
            if id(obj) in seen or isinstance(obj, (TaskGraph, type)):
                continue
            seen.add(id(obj))
            if isinstance(obj, Task):
                found.append(obj)
            else:
                stack.append(obj)
    return found


@pytest.mark.parametrize("prune_every", [0, 16])
def test_tracker_reaches_no_task(prune_every):
    """The tracker keeps gids only: neither a pruned nor an unpruned run
    leaves a Task reachable from it except through its graph."""
    rt, _ = _stream(prune_every=prune_every)
    assert rt.tracker.live_members > 0  # there is something to walk
    assert _tasks_reachable(rt.tracker) == []


def test_prune_rejects_per_edge_submission_model():
    """Pruning shrinks later registrations' edge counts, so per-edge
    pricing would silently diverge from the unpruned run — the
    constructor must refuse the combination."""
    from repro.sim.tdg_accel import SubmissionModel

    model = SubmissionModel(base_s=1e-6, per_dep_s=0.0, per_edge_s=1e-6)
    with pytest.raises(ValueError, match="per_edge_s"):
        Runtime(Machine(2), submission=model, prune_every=8)
    # Edge-price-free models remain allowed.
    Runtime(
        Machine(2),
        submission=SubmissionModel(base_s=1e-6, per_dep_s=0.0),
        prune_every=8,
    )


def test_released_handles_leave_the_neighbour_views():
    """``predecessors``/``successors`` list live handles only: a
    neighbour whose handle the watermark released is left out, not
    reported as ``None``."""
    rt = Runtime(Machine(1), record_trace=False, prune_every=1)
    a = rt.submit(Task.make("a", out=["x"]))
    b = rt.submit(Task.make("b", in_=["x"]))
    rt.machine.sim.run(max_events=2)  # a finished and was released
    assert rt.graph.tasks[a.gid] is None
    assert rt.graph.pred_lists()[b.gid] == [a.gid]
    assert b.predecessors == set()
    assert a.successors == {b}
    rt.taskwait()  # b finished and was released too
    assert rt.graph.tasks[b.gid] is None
    assert a.successors == set()
    assert b.predecessors == set()


def test_release_handles_rejects_unfinished():
    rt = Runtime(Machine(2), record_trace=False)
    task = rt.submit(Task.make("t", cpu_cycles=1e6))
    with pytest.raises(ValueError, match="unfinished"):
        rt.graph.release_handles([task.gid])


# ----------------------------------------------------------------------
# gc regression: retired tasks are collectible
# ----------------------------------------------------------------------
class _Canary:
    """Weakref-able stand-in: Task is slotted without __weakref__, so we
    hang one canary off each task (sole strong ref) — the canary dies
    exactly when its task does."""


def _run_and_collect_refs(prune_every):
    rt = Runtime(
        Machine(4, initial_level=2),
        record_trace=False,
        prune_every=prune_every,
    )
    def attach(task):
        task.result = _Canary()
        return weakref.ref(task.result)

    refs = []
    for w in range(3):
        tasks = stream_window(w, n_buffers=8, n_tasks=32, seed=9)
        # Comprehension scope: no stray frame-local keeps the last task.
        refs.extend([attach(t) for t in tasks])
        rt.submit_all(tasks)
        rt.taskwait()
        del tasks
    # Keep the runtime alive: the graph/tracker must not be what frees
    # the tasks — pruning must have dropped the strong refs already.
    gc.collect()
    dead = sum(1 for r in refs if r() is None)
    return rt, dead, len(refs)


def test_pruned_tasks_are_garbage_collected():
    rt, dead, total = _run_and_collect_refs(prune_every=8)
    assert dead == total, f"only {dead}/{total} retired tasks collectible"
    del rt


def test_unpruned_tasks_stay_pinned():
    rt, dead, total = _run_and_collect_refs(prune_every=0)
    assert dead == 0
    del rt


def _finished_run(family):
    """A finished run of a ``make_workload`` family; ``"faulted"`` is a
    ``cholesky`` run under a fault plan that kills a core and three
    tasks (the runtime then owns a fault injector)."""
    kwargs = {}
    if family == "faulted":
        family = "cholesky"
        kwargs = dict(
            faults=plan_runtime_faults(
                seed=0, n_faults=3, window=(0.0, 0.025), core_kill_p=0.5
            ),
            recovery="reexec-elsewhere",
        )
    rt = Runtime(Machine(4, initial_level=2), record_trace=False, **kwargs)
    rt.submit_all(make_workload(family, scale=1))
    rt.run()
    if kwargs:
        assert rt.stats.get("tasks_killed") == 3
        assert rt.stats.get("cores_lost") == 1
    return rt


@pytest.mark.parametrize(
    "family", ["layered", "cholesky", "lu", "fork_join", "pipeline", "faulted"]
)
def test_dropped_run_is_collected_without_cleanup(family):
    """A finished run over interned regions, dropped with no cleanup
    call, is freed by reference counting alone: with the cyclic collector
    off, its graph dies with the runtime, the collector then finds no
    garbage, and a task handle that outlives the run reads as detached."""
    gc.collect()
    gc.disable()
    try:
        rt = _finished_run(family)
        ref = weakref.ref(rt.graph)
        handle = rt.graph.tasks[-1]
        assert handle.graph is rt.graph
        assert handle.state is TaskState.FINISHED
        del rt
        assert ref() is None
        assert gc.collect() == 0
        assert handle.graph is None
        assert handle.state is TaskState.CREATED
    finally:
        gc.enable()


def test_plain_region_does_not_pin_a_finished_run():
    """A caller-held, non-interned region reused by a second run keeps
    neither run alive once that run is dropped."""
    region = Region("x", 0, 8)

    def run():
        rt = Runtime(Machine(2, initial_level=2), record_trace=False)
        w = rt.submit(Task.make("w", cpu_cycles=1e6, out=[region]))
        r = rt.submit(Task.make("r", cpu_cycles=1e6, in_=[region]))
        rt.run()
        assert rt.graph.pred_lists()[r.gid] == [w.gid]
        return weakref.ref(rt.graph)

    for _ in range(2):
        ref = run()
        gc.collect()
        assert ref() is None


def test_run_scenario_leaves_no_graph_behind():
    """Long-lived campaign workers run scenario after scenario: each
    scenario's graph is collectible once its record is returned."""
    from repro.campaign.matrix import Scenario
    from repro.campaign.runner import run_scenario

    def _live_graphs():
        gc.collect()
        return sum(1 for o in gc.get_objects() if isinstance(o, TaskGraph))

    before = _live_graphs()
    record = run_scenario(Scenario("cholesky", scheduler="fifo", scale=1))
    assert record["status"] == "ok"
    assert _live_graphs() == before


def test_prune_drops_last_writer_strong_ref_but_keeps_edge():
    """A kept last-writer entry is a bare gid, not the Task — yet a later
    reader still derives the RAW edge from it."""
    rt = Runtime(Machine(2, initial_level=2), record_trace=False,
                 prune_every=1)
    writer = rt.submit(
        Task.make("w", cpu_cycles=1e6, out=[Region.interned("shared_x")])
    )
    rt.taskwait()
    writer_gid = writer.gid
    writer.result = _Canary()
    ref = weakref.ref(writer.result)
    assert _tasks_reachable(rt.tracker) == []
    del writer
    gc.collect()
    assert ref() is None
    # A new reader still chains off the retired writer by gid.
    reader = rt.submit(
        Task.make("r", cpu_cycles=1e6, in_=[Region.interned("shared_x")])
    )
    assert writer_gid in rt.graph.pred_lists()[reader.gid]
    rt.taskwait()


# ----------------------------------------------------------------------
# runtime faults × pruning: killed tasks must survive the watermark
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "policy", ["reexec", "reexec-elsewhere", "task-checkpoint"]
)
def test_fault_recovery_prune_equivalence(policy):
    """Every recovery policy × prune_every ∈ {off, 1, 64} is bit-identical.

    The bug class this pins: a killed task's gid re-enters the ready set
    *after* completions have already streamed past the watermark — if
    pruning could retire a killed (non-FINISHED) task, its re-dispatch
    would crash or silently diverge.  ``prune_every=1`` is the most
    hostile setting: a prune pass runs after every single completion.
    """

    # Size the fault window off the fault-free streaming makespan so the
    # storm lands mid-run for every prune setting.
    probe, _ = _stream(prune_every=0, windows=3)
    horizon = probe.machine.sim.now
    plan = plan_runtime_faults(seed=5, n_faults=3, window=(0.0, horizon))

    def run(prune_every):
        rt = Runtime(
            Machine(4, initial_level=2),
            record_trace=False,
            prune_every=prune_every,
            faults=plan,
            recovery=policy,
        )
        for w in range(3):
            rt.submit_all(stream_window(w, n_buffers=16, n_tasks=64, seed=5))
            rt.taskwait()
        return {
            "makespan": rt.machine.sim.now,
            "stats": rt.stats.as_dict(),
            "depth": list(rt.graph.depth),
        }

    baseline = run(0)
    assert baseline["stats"].get("tasks_killed", 0) >= 1
    for prune_every in (1, 64):
        pruned = run(prune_every)
        assert pruned["makespan"] == baseline["makespan"], prune_every
        assert pruned["depth"] == baseline["depth"], prune_every
        shared = {
            k: v
            for k, v in pruned["stats"].items()
            if k in baseline["stats"]
        }
        assert shared == baseline["stats"], prune_every


def test_killed_task_survives_aggressive_pruning():
    """Direct pruned-then-killed probe: with ``prune_every=1`` the prune
    pass runs between the kill and the retry — the killed gid's handle
    must still be live for re-dispatch, and only FINISHED work retires."""
    from repro.core.task import Task
    from repro.resilience import RuntimeFault, RuntimeFaultPlan

    machine = Machine(1, initial_level=2)
    body = 1e9 / machine.cores[0].frequency_hz
    rt = Runtime(
        machine,
        record_trace=False,
        prune_every=1,
        # Short filler tasks finish (and trigger prunes) before the
        # fault kills the long task mid-flight.
        faults=RuntimeFaultPlan.single(RuntimeFault(body * 0.9)),
        recovery="reexec",
    )
    fillers = [Task.make(f"f{i}", cpu_cycles=1e8) for i in range(4)]
    rt.submit_all(fillers)
    victim = rt.submit(Task.make("victim", cpu_cycles=1e9))
    result = rt.run()
    assert result.tasks_reexecuted == 1
    assert rt.stats.get("tasks_retired") == 5  # fillers + retried victim
    assert victim.state.name == "FINISHED"


# ----------------------------------------------------------------------
# analyses between windows must not move later schedules
# ----------------------------------------------------------------------
def test_width_profile_between_windows_leaves_the_schedule_alone():
    """``TaskGraph.width_profile`` recomputes depths from the graph's
    edges, which after pruning lack those whose depth the ghost floor
    replays.  Writing that into ``graph.depth`` (what breadth-first
    scheduling orders by) shifted every later window: makespan 7.85 ms
    became 7.90 ms on this program."""

    def run(profile_between_windows):
        rt = Runtime(
            Machine(5),
            scheduler=BreadthFirstScheduler(),
            record_trace=False,
            prune_every=4,
        )
        for w in range(5):
            rt.submit_all(stream_window(w, n_buffers=16, n_tasks=96, seed=1))
            rt.taskwait()
            if profile_between_windows:
                assert sum(rt.graph.width_profile()) == len(rt.graph)
        g = rt.graph
        return rt.machine.sim.now, list(g.start_time), list(g.depth)

    assert run(True) == run(False)
