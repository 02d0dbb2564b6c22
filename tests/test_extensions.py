"""Tests for the agenda extensions: hardware TDG construction support and
runtime-guided prefetching (E8 in README's figure table)."""

import pytest

from repro.core import Runtime, RuntimePrefetcher, Task
from repro.sim import (
    HardwareSubmission,
    Machine,
    SoftwareSubmission,
    SubmissionModel,
    granularity_sweep,
)


class TestSubmissionModels:
    def test_register_cost_formula(self):
        m = SubmissionModel(base_s=1e-6, per_dep_s=1e-7)
        assert m.register_seconds(0) == pytest.approx(1e-6)
        assert m.register_seconds(4) == pytest.approx(1.4e-6)

    def test_hardware_orders_of_magnitude_cheaper(self):
        sw, hw = SoftwareSubmission(), HardwareSubmission()
        assert sw.register_seconds(2) > 10 * hw.register_seconds(2)

    def test_submission_gates_readiness(self):
        machine = Machine(4, initial_level=2)
        rt = Runtime(machine, submission=SubmissionModel(0.5, 0.0))
        for i in range(4):
            rt.submit(Task.make(f"t{i}", cpu_cycles=2e9))  # 1 s each @2GHz
        res = rt.run()
        # Task 3 only registered at t=2.0; runs 1 s after that.
        assert res.makespan == pytest.approx(3.0)

    def test_no_submission_model_keeps_old_behaviour(self):
        machine = Machine(4, initial_level=2)
        rt = Runtime(machine)
        for i in range(4):
            rt.submit(Task.make(f"t{i}", cpu_cycles=2e9))
        assert rt.run().makespan == pytest.approx(1.0)

    def test_submission_seconds_accounted(self):
        machine = Machine(2, initial_level=2)
        rt = Runtime(machine, submission=SoftwareSubmission())
        rt.submit(Task.make("t", cpu_cycles=1e6, out=["x"]))
        rt.run()
        assert rt.stats.get("submission_seconds") > 0

    def test_fine_grain_cliff_software_vs_hardware(self):
        sweep = granularity_sweep(
            total_work_cycles=5e7, grains=(64, 8192), n_cores=16
        )
        sw, hw = sweep["software"], sweep["hardware"]
        # Both fine at coarse grain; software collapses at fine grain.
        assert sw[64] > 0.9 and hw[64] > 0.9
        assert hw[8192] > 0.8
        assert sw[8192] < 0.4
        assert hw[8192] > 2 * sw[8192]

    def test_indexed_software_curve_sits_between(self):
        """The interval-indexed software model (priced per real tracker
        match) closes part of the gap to hardware task management at
        every grain — but not all of it: the master thread still
        serialises registration, so the fine-grain cliff remains."""
        sweep = granularity_sweep(
            total_work_cycles=5e7, grains=(64, 1024, 8192), n_cores=16
        )
        sw, ix, hw = (
            sweep["software"], sweep["software-indexed"], sweep["hardware"]
        )
        for g in (64, 1024, 8192):
            assert sw[g] <= ix[g] + 1e-9
            assert ix[g] <= hw[g] + 1e-9
        assert ix[1024] > sw[1024] + 0.05  # visible mid-grain win
        assert ix[8192] < 0.5  # cliff not eliminated

    def test_per_edge_pricing_from_graph_counters(self):
        """``per_edge_s`` charges the graph's *actual* new-edge count per
        registration: a 3-predecessor join pays 3 edge insertions, an
        independent task pays none."""
        from repro.sim.tdg_accel import SubmissionModel

        model = SubmissionModel(
            base_s=1e-6, per_dep_s=0.0, per_edge_s=1e-3
        )
        machine = Machine(2, initial_level=2)
        rt = Runtime(machine, submission=model, record_trace=False)
        for name in "abc":
            rt.submit(Task.make(name, cpu_cycles=1e6, out=[name]))
        base = rt.stats.get("submission_seconds")
        assert base == pytest.approx(3e-6)  # no edges yet
        rt.submit(Task.make("join", cpu_cycles=1e6, in_=["a", "b", "c"]))
        joined = rt.stats.get("submission_seconds")
        assert joined - base == pytest.approx(1e-6 + 3e-3)
        rt.run()


class TestRuntimePrefetcher:
    def test_hidden_fraction_saturates(self):
        pf = RuntimePrefetcher(lead_seconds=1.0, max_hidden_fraction=0.8)
        assert pf.hidden_fraction(0.0) == 0.0
        assert pf.hidden_fraction(0.5) == pytest.approx(0.4)
        assert pf.hidden_fraction(10.0) == pytest.approx(0.8)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            RuntimePrefetcher(lead_seconds=0.0)
        with pytest.raises(ValueError):
            RuntimePrefetcher(max_hidden_fraction=1.5)

    def _run(self, prefetcher, n_tasks=40, mem=5e-3):
        machine = Machine(2, initial_level=2)
        rt = Runtime(machine, prefetcher=prefetcher, record_trace=False)
        for i in range(n_tasks):
            rt.submit(Task.make(f"t{i}", cpu_cycles=1e6, mem_seconds=mem))
        return rt.run().makespan

    def test_prefetch_hides_memory_time_for_queued_tasks(self):
        base = self._run(None)
        pf = self._run(RuntimePrefetcher(lead_seconds=1e-3))
        assert pf < 0.5 * base

    def test_first_tasks_gain_nothing(self):
        """Tasks dispatched immediately have zero queue lead."""
        machine = Machine(4, initial_level=2)
        rt = Runtime(machine, prefetcher=RuntimePrefetcher(), record_trace=False)
        for i in range(4):  # one per core: nobody queues
            rt.submit(Task.make(f"t{i}", cpu_cycles=0.0, mem_seconds=1e-2))
        assert rt.run().makespan == pytest.approx(1e-2)

    def test_compute_bound_tasks_unaffected(self):
        machine = Machine(2, initial_level=2)
        rt = Runtime(machine, prefetcher=RuntimePrefetcher(), record_trace=False)
        for i in range(10):
            rt.submit(Task.make(f"t{i}", cpu_cycles=2e9, mem_seconds=0.0))
        assert rt.run().makespan == pytest.approx(5.0)

    def test_hidden_seconds_accounted(self):
        machine = Machine(1, initial_level=2)
        rt = Runtime(machine, prefetcher=RuntimePrefetcher(lead_seconds=1e-6))
        rt.submit(Task.make("a", cpu_cycles=1e9, mem_seconds=1e-3))
        rt.submit(Task.make("b", cpu_cycles=1e9, mem_seconds=1e-3))
        rt.run()
        assert rt.stats.get("prefetch_hidden_seconds") > 0
