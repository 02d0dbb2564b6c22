"""Batched-dispatch equivalence: deferred wake-ups vs zero-delay events.

The runtime coalesces every same-timestamp completion into one deferred
``_dispatch`` call through :meth:`~repro.sim.events.Simulator.defer`,
instead of paying a zero-delay trampoline event per wake-up.  The
trampoline lives on here only as the reference, a :class:`Runtime`
subclass.  These tests pin that the two paths produce bit-for-bit
identical simulations — makespans, energy, stats — across all seven
schedulers, the RSU modes, and the zero-duration-task corner where
dispatch re-arms within a single timestamp.
"""

from unittest import mock

import pytest

from repro.campaign import runner as crunner
from repro.campaign.matrix import Scenario
from repro.core.runtime import Runtime
from repro.core.task import Task
from repro.sim.events import Simulator
from repro.sim.machine import Machine

ALL_SCHEDULERS = sorted(crunner.SCHEDULERS)
ALL_RSU_MODES = sorted(crunner.RSU_MODES)


class TrampolineRuntime(Runtime):
    """Reference dispatch: one zero-delay event per wake-up."""

    def _schedule_dispatch(self):
        if not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            self.machine.sim.schedule(0.0, self._dispatch)


def _build_runtime(scenario, machine, batch):
    """The campaign runner's runtime, as a trampoline one if not batched."""
    cls = Runtime if batch else TrampolineRuntime
    with mock.patch.object(crunner, "Runtime", cls):
        return crunner._build_runtime(scenario, machine)


def run_scenario_both_ways(scenario):
    """Execute one campaign scenario under each dispatch path."""
    out = []
    for batch in (True, False):
        tasks = crunner._build_workload(scenario)
        machine = crunner._build_machine(scenario)
        rt = _build_runtime(scenario, machine, batch)
        rt.submit_all(tasks)
        if scenario.scheduler == "bottom_level" and rt.criticality is None:
            rt.graph.compute_bottom_levels()
        res = rt.run()
        out.append(
            (res.makespan, res.energy_j, res.stats.as_dict(),
             machine.sim.events_processed)
        )
    return out


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_makespan_bits_identical(self, scheduler):
        batched, unbatched = run_scenario_both_ways(
            Scenario("layered", scheduler=scheduler, n_cores=8)
        )
        assert batched[:3] == unbatched[:3]

    @pytest.mark.parametrize("family", ["cholesky", "fork_join", "pipeline"])
    def test_families_identical_under_fifo(self, family):
        batched, unbatched = run_scenario_both_ways(
            Scenario(family, scheduler="fifo", n_cores=8)
        )
        assert batched[:3] == unbatched[:3]

    def test_batching_eliminates_trampoline_heap_traffic(self):
        scenario = Scenario("layered", scheduler="fifo", n_cores=8)
        pushes = {}
        for batch in (True, False):
            tasks = crunner._build_workload(scenario)
            machine = crunner._build_machine(scenario)
            rt = _build_runtime(scenario, machine, batch)
            queue = machine.sim.queue
            original_push = queue.push
            count = 0

            def counting_push(*args, _orig=original_push, **kwargs):
                nonlocal count
                count += 1
                return _orig(*args, **kwargs)

            queue.push = counting_push
            rt.submit_all(tasks)
            rt.run()
            pushes[batch] = count
        # The unbatched path pays one zero-delay trampoline event per
        # dispatch wake-up; the deferred path pushes completions only.
        assert pushes[True] < pushes[False]


class TestRsuModeEquivalence:
    @pytest.mark.parametrize("rsu", ALL_RSU_MODES)
    def test_rsu_modes_identical(self, rsu):
        batched, unbatched = run_scenario_both_ways(
            Scenario("chain", scheduler="cats", rsu=rsu, n_cores=8)
        )
        assert batched[:3] == unbatched[:3]


class TestZeroDurationCorner:
    """Zero-cost tasks complete at the timestamp they start: the dispatch
    must re-arm within one timestamp, under both mechanisms identically."""

    def _run(self, batch):
        machine = Machine(2, initial_level=2)
        runtime_cls = Runtime if batch else TrampolineRuntime
        rt = runtime_cls(machine, record_trace=False)
        prev = None
        for i in range(6):
            deps = {"in_": [f"x{i - 1}"]} if i else {}
            rt.submit(
                Task.make(f"z{i}", cpu_cycles=0.0, out=[f"x{i}"], **deps)
            )
        rt.submit(Task.make("tail", cpu_cycles=1e6, in_=["x5"]))
        res = rt.run()
        return res.makespan, res.energy_j, machine.sim.events_processed

    def test_zero_duration_chain_identical(self):
        batched = self._run(True)
        unbatched = self._run(False)
        assert batched[:2] == unbatched[:2]
        assert batched[0] > 0  # the tail task still takes real time


class TestDeferPrimitive:
    def test_deferred_runs_after_current_timestamp_events(self):
        sim = Simulator()
        order = []
        sim.schedule(0.0, lambda: order.append("e1"))
        sim.defer(lambda: order.append("d"))
        sim.schedule(0.0, lambda: order.append("e2"))
        sim.schedule(1.0, lambda: order.append("later"))
        sim.run()
        assert order == ["e1", "e2", "d", "later"]

    def test_deferred_fires_before_clock_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.defer(lambda: seen.append(sim.now)))
        sim.schedule(2.0, lambda: seen.append(("event", sim.now)))
        sim.run()
        assert seen == [1.0, ("event", 2.0)]

    def test_deferred_flushes_on_empty_queue(self):
        sim = Simulator()
        fired = []
        sim.defer(lambda: fired.append(True))
        sim.run(max_events=1)
        assert fired == [True]
        assert sim.events_processed == 1
        sim.run(max_events=1)
        assert sim.events_processed == 1

    def test_deferred_may_schedule_same_timestamp_work(self):
        sim = Simulator()
        order = []

        def dispatch():
            order.append("dispatch")
            sim.schedule(0.0, lambda: order.append("completion"))
            sim.defer(lambda: order.append("redispatch"))

        sim.schedule(0.5, lambda: sim.defer(dispatch))
        sim.run()
        assert order == ["dispatch", "completion", "redispatch"]

    def test_run_until_flushes_due_deferred(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.defer(lambda: fired.append(sim.now)))
        sim.schedule(5.0, lambda: fired.append("far"))
        sim.run(until=2.0)
        assert fired == [1.0]
        assert sim.now == 2.0
