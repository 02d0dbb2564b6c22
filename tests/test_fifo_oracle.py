"""Runtime + FIFO dispatch against a brute-force list-scheduling reference.

The reference knows nothing of the runtime's machinery (no event queue,
deferred dispatch or release rule).  It replays FIFO list scheduling over
each run's edges, read from ``graph.pred_lists()`` (``test_tdg_oracle.py``
checks the tracker that builds them), at one fixed frequency, with no
RSU, faults or submission model, and with the documented tie rules:

* each submitted batch's first ready wave enters the queue in submission
  order;
* completions at one timestamp are handled in the order their tasks
  started;
* each completion releases its newly ready successors in ascending gid
  (submission order);
* each timestamp has one dispatch, over the idle cores in ascending id.

Every task's ``(core, start, end)`` and the makespan must equal the
runtime's bit for bit, and no core may sit idle while a task is ready.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import Runtime
from repro.core.schedulers import FifoScheduler
from repro.sim.machine import Machine
from test_tdg_oracle import _make_task, _program


def fifo_list_schedule(preds, durations, windows, n_cores):
    """``[(core, start, end)]`` per task and the makespan; each window
    ``(lo, hi)`` is submitted once the previous one has drained."""
    succs = [[] for _ in durations]
    for t, ps in enumerate(preds):
        for p in ps:
            succs[p].append(t)
    waiting = [len(ps) for ps in preds]
    placed = [None] * len(durations)
    free, running, queue, now, started = list(range(n_cores)), [], [], 0.0, 0
    for lo, hi in windows:
        queue += [t for t in range(lo, hi) if waiting[t] == 0]
        while queue or running:
            for core in sorted(free):
                if not queue:
                    break
                t = queue.pop(0)
                free.remove(core)
                placed[t] = (core, now, now + durations[t])
                running.append((now + durations[t], started, core, t))
                started += 1
            now = min(r[0] for r in running)
            done = sorted(r for r in running if r[0] == now)
            running = [r for r in running if r[0] != now]
            for _, _, core, t in done:
                free.append(core)
                for s in sorted(succs[t]):
                    waiting[s] -= 1
                    if waiting[s] == 0 and s < hi:
                        queue.append(s)
    return placed, now


@settings(max_examples=200, deadline=None)
@given(_program, st.integers(1, 4))
def test_runtime_matches_fifo_list_scheduling(program, n_cores):
    specs, n_windows = program
    tasks = [
        _make_task(f"t{i}", accesses, cycles)
        for i, (accesses, cycles) in enumerate(specs)
    ]
    machine = Machine(n_cores, initial_level=2)
    rt = Runtime(machine, scheduler=FifoScheduler(), record_trace=False)
    step = -(-len(tasks) // n_windows)
    windows, opened = [], []
    for lo in range(0, len(tasks), step):
        hi = min(lo + step, len(tasks))
        windows.append((lo, hi))
        opened += [machine.sim.now] * (hi - lo)
        rt.submit_all(tasks[lo:hi])
        rt.taskwait()
    graph = rt.graph
    preds = graph.pred_lists()
    hz = machine.cores[0].frequency_hz
    durations = [t.cpu_cycles / hz + t.mem_seconds for t in tasks]
    placed, makespan = fifo_list_schedule(preds, durations, windows, n_cores)
    got = [
        (graph.core[t], graph.start_time[t], graph.end_time[t])
        for t in range(len(tasks))
    ]
    assert got == placed
    assert machine.sim.now == makespan
    # Work conservation: at every event instant, a task that is ready and
    # not yet started means every core is busy.
    ready = [
        max([opened[t]] + [got[p][2] for p in preds[t]])
        for t in range(len(tasks))
    ]
    for tau in sorted({0.0} | {end for _, _, end in got}):
        busy = sum(1 for _, start, end in got if start <= tau < end)
        waiting = [t for t in range(len(tasks)) if ready[t] <= tau < got[t][1]]
        assert not waiting or busy == n_cores, (tau, waiting, busy)
