"""Runtime-level fault injection: plans, recovery policies, kill paths.

Acceptance contract of the runtime fault axis:

* **Plan determinism** — same seed ⇒ identical plans; draw order (times,
  then kinds, then victims) is frozen, so flipping ``core_kill_p`` alone
  never reshuffles fault times.
* **Zero-fault bit-identity** — an empty plan is never armed
  (``rt._fault_ctl is None``): makespan/energy/stats are *bit-identical*
  to a fault-free run, whatever recovery policy is configured.
* **Replay determinism** — same (plan, policy, workload, scheduler) ⇒
  identical firings, makespans and stats, run after run.
* **Kill-path semantics** — task-kill requeues with bounded retries,
  core-kill fail-stops with graceful degradation, the last core dying
  raises :class:`AllCoresDeadError`, and reexec-elsewhere bans the kill
  site without livelocking a single-core survivor.
"""

import pytest

from repro.apps.dag_workloads import make_workload, random_layered
from repro.campaign.runner import SCHEDULERS
from repro.core.runtime import AllCoresDeadError, DeadlockError, Runtime
from repro.core.task import Task
from repro.resilience import (
    RECOVERY_POLICIES,
    ReexecElsewherePolicy,
    ReexecLimitError,
    ReexecPolicy,
    RuntimeFault,
    RuntimeFaultPlan,
    TaskCheckpointPolicy,
    plan_runtime_faults,
    resolve_recovery,
)
from repro.sim.machine import Machine

POLICY_NAMES = ("reexec", "reexec-elsewhere", "task-checkpoint")


def run_layered(
    n_cores=4,
    scheduler="fifo",
    faults=None,
    recovery=None,
    prune_every=0,
    seed=3,
):
    """One layered-DAG run; returns (RunResult, Runtime, Machine)."""
    tasks = make_workload("layered", scale=1, seed=seed)
    machine = Machine(n_cores, initial_level=2)
    rt = Runtime(
        machine,
        scheduler=SCHEDULERS[scheduler](n_cores),
        record_trace=False,
        prune_every=prune_every,
        faults=faults,
        recovery=recovery,
    )
    rt.submit_all(tasks)
    if scheduler == "bottom_level":
        rt.graph.compute_bottom_levels()
    return rt.run(), rt, machine


def fingerprint(result):
    stats = result.stats.as_dict()
    return (result.makespan, result.energy_j, result.n_tasks, stats)


# The fault-free reference per (cores, scheduler); windows for the fault
# plans are sized off its makespan so faults actually land mid-run.
def baseline_makespan(n_cores=4, scheduler="fifo"):
    result, _, _ = run_layered(n_cores=n_cores, scheduler=scheduler)
    return result.makespan


# ----------------------------------------------------------------------
# plan generation
# ----------------------------------------------------------------------
class TestPlan:
    def test_same_seed_same_plan(self):
        a = plan_runtime_faults(seed=7, n_faults=5, core_kill_p=0.4)
        b = plan_runtime_faults(seed=7, n_faults=5, core_kill_p=0.4)
        assert a == b
        assert len(a) == 5

    def test_different_seeds_distinct_times(self):
        times = {
            plan_runtime_faults(seed=k, n_faults=3).times() for k in range(4)
        }
        assert len(times) == 4

    def test_times_sorted_and_inside_window(self):
        plan = plan_runtime_faults(seed=1, n_faults=8, window=(2.0, 9.0))
        times = plan.times()
        assert times == tuple(sorted(times))
        assert all(2.0 <= t < 9.0 for t in times)

    def test_core_kill_p_edges(self):
        tasks = plan_runtime_faults(seed=2, n_faults=6, core_kill_p=0.0)
        cores = plan_runtime_faults(seed=2, n_faults=6, core_kill_p=1.0)
        assert {ev.kind for ev in tasks} == {"task"}
        assert {ev.kind for ev in cores} == {"core"}

    def test_core_kill_p_does_not_reshuffle_times_or_victims(self):
        """The frozen draw order: kind draws are consumed even at p=0,
        so flipping the knob changes *kinds only*."""
        a = plan_runtime_faults(seed=5, n_faults=6, core_kill_p=0.0)
        b = plan_runtime_faults(seed=5, n_faults=6, core_kill_p=1.0)
        assert a.times() == b.times()
        assert [ev.victim_u for ev in a] == [ev.victim_u for ev in b]

    def test_rate_mode_and_spaced_distribution(self):
        poisson = plan_runtime_faults(seed=3, rate=0.5, window=(0.0, 20.0))
        assert all(0.0 <= t < 20.0 for t in poisson.times())
        spaced = plan_runtime_faults(
            seed=3, n_faults=4, window=(0.0, 8.0), distribution="spaced"
        )
        assert spaced.times() == (1.0, 3.0, 5.0, 7.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="core_kill_p"):
            plan_runtime_faults(n_faults=1, core_kill_p=1.5)
        with pytest.raises(ValueError):
            plan_runtime_faults(n_faults=2, rate=0.1)  # exactly one
        with pytest.raises(ValueError, match="kind"):
            RuntimeFault(time_s=1.0, kind="cache")
        with pytest.raises(ValueError, match="non-negative"):
            RuntimeFault(time_s=-1.0)
        with pytest.raises(ValueError, match="victim_u"):
            RuntimeFault(time_s=1.0, victim_u=1.0)

    def test_plan_sorts_events(self):
        plan = RuntimeFaultPlan(
            (RuntimeFault(3.0), RuntimeFault(1.0), RuntimeFault(2.0))
        )
        assert plan.times() == (1.0, 2.0, 3.0)
        assert len(RuntimeFaultPlan.single(RuntimeFault(0.5))) == 1


# ----------------------------------------------------------------------
# recovery policies
# ----------------------------------------------------------------------
class TestPolicies:
    def test_registry_and_resolution(self):
        assert set(RECOVERY_POLICIES) == set(POLICY_NAMES)
        assert isinstance(resolve_recovery(None), ReexecPolicy)
        assert isinstance(
            resolve_recovery("reexec-elsewhere"), ReexecElsewherePolicy
        )
        policy = resolve_recovery("reexec", penalty=1.5, max_retries=2)
        assert policy.penalty == 1.5 and policy.max_retries == 2

    def test_instance_passthrough(self):
        policy = TaskCheckpointPolicy(protect_frac=0.1)
        assert resolve_recovery(policy) is policy
        with pytest.raises(ValueError, match="kwargs"):
            resolve_recovery(policy, penalty=2.0)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="task-checkpoint"):
            resolve_recovery("restart-the-universe")

    def test_validation(self):
        with pytest.raises(ValueError, match="penalty"):
            ReexecPolicy(penalty=0.5)
        with pytest.raises(ValueError, match="max_retries"):
            ReexecPolicy(max_retries=0)
        with pytest.raises(ValueError, match="restart_fraction"):
            TaskCheckpointPolicy(restart_fraction=1.5)
        with pytest.raises(ValueError, match="protect_frac"):
            TaskCheckpointPolicy(protect_frac=-0.1)

    def test_checkpoint_accounting(self):
        policy = TaskCheckpointPolicy(
            protect_frac=0.05, restart_fraction=0.5
        )
        assert policy.protect_cost(10.0) == pytest.approx(0.5)
        assert policy.saved_after_kill(4.0, 10.0) == pytest.approx(2.0)
        assert ReexecPolicy().protect_cost(10.0) == 0.0
        assert ReexecPolicy().saved_after_kill(4.0, 10.0) == 0.0


# ----------------------------------------------------------------------
# zero-fault bit-identity
# ----------------------------------------------------------------------
class TestZeroFault:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_empty_plan_is_bit_identical_to_fault_free(self, policy):
        """An empty plan must never arm — even ``task-checkpoint``'s
        always-on protection premium must not appear."""
        plain, rt_plain, _ = run_layered()
        empty = plan_runtime_faults(seed=0, n_faults=0)
        armed, rt_armed, _ = run_layered(faults=empty, recovery=policy)
        assert rt_plain._fault_ctl is None
        assert rt_armed._fault_ctl is None
        assert fingerprint(armed) == fingerprint(plain)
        assert armed.faults_fired == 0
        assert armed.cores_lost == 0

    def test_recovery_name_validated_even_without_plan(self):
        with pytest.raises(ValueError, match="unknown recovery policy"):
            Runtime(Machine(2), recovery="definitely-not-a-policy")


# ----------------------------------------------------------------------
# task-kill
# ----------------------------------------------------------------------
class TestTaskKill:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_storm_fires_and_replays_bit_identically(self, policy):
        window = (0.0, baseline_makespan() * 0.8)
        plan = plan_runtime_faults(seed=11, n_faults=3, window=window)

        def go():
            return run_layered(faults=plan, recovery=policy)[0]

        first, again = go(), go()
        assert fingerprint(first) == fingerprint(again)
        assert first.faults_fired == 3
        stats = first.stats.as_dict()
        # Every firing either killed a running task or struck dead air.
        assert (
            stats.get("tasks_killed", 0)
            + stats.get("runtime_faults_noop", 0)
            == 3
        )
        assert first.tasks_reexecuted == stats.get("tasks_killed", 0)

    def test_kill_costs_recovery_time(self):
        base = baseline_makespan()
        plan = plan_runtime_faults(
            seed=11, n_faults=3, window=(0.0, base * 0.8)
        )
        result, _, _ = run_layered(faults=plan, recovery="reexec")
        assert result.tasks_reexecuted > 0
        assert result.recovery_s > 0.0
        assert result.makespan > base

    def test_checkpoint_salvages_work(self):
        """Same storm: the checkpoint policy's salvage credit must show
        up as strictly less recovery time than restart-from-scratch."""
        base = baseline_makespan()
        plan = plan_runtime_faults(
            seed=11, n_faults=3, window=(0.0, base * 0.8)
        )
        scratch, _, _ = run_layered(faults=plan, recovery="reexec")
        ckpt, _, _ = run_layered(
            faults=plan,
            recovery=TaskCheckpointPolicy(restart_fraction=0.9),
        )
        assert scratch.tasks_reexecuted > 0
        assert ckpt.tasks_reexecuted == scratch.tasks_reexecuted
        assert 0.0 < ckpt.recovery_s < scratch.recovery_s
        assert ckpt.stats.get("protection_s") > 0.0

    def test_penalty_multiplier_stretches_retries(self):
        base = baseline_makespan()
        plan = plan_runtime_faults(
            seed=11, n_faults=3, window=(0.0, base * 0.8)
        )
        free, _, _ = run_layered(faults=plan, recovery="reexec")
        taxed, _, _ = run_layered(
            faults=plan, recovery=ReexecPolicy(penalty=2.0)
        )
        assert taxed.tasks_reexecuted == free.tasks_reexecuted
        assert taxed.makespan > free.makespan

    def test_fault_beyond_makespan_never_fires(self):
        """Disarm-before-drain: a fault planned past the finish time must
        not stretch the clock during the trailing event drain."""
        base = baseline_makespan()
        plan = RuntimeFaultPlan.single(RuntimeFault(base * 100.0))
        result, _, machine = run_layered(faults=plan, recovery="reexec")
        assert result.makespan == base
        assert result.faults_fired == 0
        assert len(machine.sim.queue) == 0

    def test_fault_before_armed_window_is_skipped(self):
        """A plan entry already in the past at arm time is counted as
        skipped, not fired — clipped plans stay visible in stats."""
        tasks = make_workload("layered", scale=1, seed=3)
        machine = Machine(4, initial_level=2)
        rt = Runtime(
            machine,
            record_trace=False,
            faults=RuntimeFaultPlan.single(RuntimeFault(1.0)),
            recovery="reexec",
        )
        # Advance the clock past the planned fault before any taskwait.
        machine.sim.schedule_at(5.0, lambda: None)
        machine.sim.run()
        rt.submit_all(tasks)
        rt.taskwait()
        assert rt.stats.get("runtime_faults_skipped") == 1
        assert rt.stats.get("runtime_faults_fired") == 0

    @pytest.mark.parametrize(
        "scheduler", ["fifo", "lifo", "breadth_first", "work_stealing", "cats"]
    )
    def test_replay_determinism_across_schedulers(self, scheduler):
        window = (0.0, baseline_makespan(scheduler=scheduler) * 0.8)
        plan = plan_runtime_faults(seed=4, n_faults=2, window=window)

        def go():
            return run_layered(
                scheduler=scheduler, faults=plan, recovery="reexec"
            )[0]

        assert fingerprint(go()) == fingerprint(go())


# ----------------------------------------------------------------------
# retry bound
# ----------------------------------------------------------------------
class TestRetryBound:
    def test_reexec_limit_fails_loudly(self):
        """One long task on one core, hammered past max_retries."""
        machine = Machine(1, initial_level=2)
        body = 1e9 / machine.cores[0].frequency_hz
        plan = RuntimeFaultPlan(
            tuple(RuntimeFault(body * 0.1 * (i + 1)) for i in range(3))
        )
        rt = Runtime(
            machine,
            record_trace=False,
            faults=plan,
            recovery=ReexecPolicy(max_retries=2),
        )
        rt.submit(Task.make("longhaul", cpu_cycles=1e9))
        with pytest.raises(ReexecLimitError, match="max_retries=2"):
            rt.taskwait()

    def test_within_bound_completes(self):
        machine = Machine(1, initial_level=2)
        body = 1e9 / machine.cores[0].frequency_hz
        plan = RuntimeFaultPlan(
            tuple(RuntimeFault(body * 0.1 * (i + 1)) for i in range(3))
        )
        rt = Runtime(
            machine,
            record_trace=False,
            faults=plan,
            recovery=ReexecPolicy(max_retries=3),
        )
        rt.submit(Task.make("longhaul", cpu_cycles=1e9))
        result = rt.run()
        assert result.tasks_reexecuted == 3
        assert result.n_tasks == 1


# ----------------------------------------------------------------------
# reexec-elsewhere placement
# ----------------------------------------------------------------------
class TestReexecElsewhere:
    def test_retry_lands_on_a_different_core(self):
        machine = Machine(2, initial_level=2)
        body = 1e9 / machine.cores[0].frequency_hz
        rt = Runtime(
            machine,
            record_trace=False,
            faults=RuntimeFaultPlan.single(RuntimeFault(body * 0.5)),
            recovery="reexec-elsewhere",
        )
        task = rt.submit(Task.make("solo", cpu_cycles=1e9))
        result = rt.run()
        assert result.tasks_reexecuted == 1
        # fifo starts the lone task on core 0; the ban reroutes the retry.
        assert rt.graph.core[task.gid] == 1

    def test_single_core_waives_the_ban(self):
        """With one core there is nowhere else — progress beats placement
        and the run must complete instead of livelocking."""
        machine = Machine(1, initial_level=2)
        body = 1e9 / machine.cores[0].frequency_hz
        rt = Runtime(
            machine,
            record_trace=False,
            faults=RuntimeFaultPlan.single(RuntimeFault(body * 0.5)),
            recovery="reexec-elsewhere",
        )
        task = rt.submit(Task.make("solo", cpu_cycles=1e9))
        result = rt.run()
        assert result.tasks_reexecuted == 1
        assert rt.graph.core[task.gid] == 0

    def test_storm_replays_bit_identically(self):
        window = (0.0, baseline_makespan() * 0.8)
        plan = plan_runtime_faults(seed=11, n_faults=3, window=window)

        def go():
            return run_layered(faults=plan, recovery="reexec-elsewhere")[0]

        assert fingerprint(go()) == fingerprint(go())


# ----------------------------------------------------------------------
# core-kill
# ----------------------------------------------------------------------
class TestCoreKill:
    def _core_kill_plan(self, at_time):
        return RuntimeFaultPlan.single(RuntimeFault(at_time, kind="core"))

    def test_fail_stop_excludes_core_forever(self):
        base = baseline_makespan()
        plan = self._core_kill_plan(base * 0.3)
        result, rt, machine = run_layered(faults=plan, recovery="reexec")
        assert result.cores_lost == 1
        assert machine.n_live_cores == 3
        dead = [c for c in machine.cores if not c.alive]
        assert len(dead) == 1
        assert result.makespan > base  # degraded onto 3 cores
        assert result.n_tasks == len(rt.graph)

    def test_dead_core_runs_nothing_afterwards(self):
        base = baseline_makespan(n_cores=2)
        tasks = make_workload("layered", scale=1, seed=3)
        machine = Machine(2, initial_level=2)
        rt = Runtime(
            machine,
            record_trace=True,
            faults=self._core_kill_plan(base * 0.3),
            recovery="reexec",
        )
        rt.submit_all(tasks)
        result = rt.run()
        dead = next(c for c in machine.cores if not c.alive)
        late = [
            r for r in result.trace.records if r.start >= base * 0.3
        ]
        assert late, "tasks must keep finishing after the fault"
        assert all(r.core_id != dead.core_id for r in late)

    def test_inflight_task_is_killed_then_rerouted(self):
        machine = Machine(2, initial_level=2)
        body = 1e9 / machine.cores[0].frequency_hz
        rt = Runtime(
            machine,
            record_trace=False,
            faults=self._core_kill_plan(body * 0.5),
            recovery="reexec",
        )
        task = rt.submit(Task.make("solo", cpu_cycles=1e9))
        result = rt.run()
        assert result.cores_lost == 1
        assert result.tasks_reexecuted == 1
        assert rt.graph.core[task.gid] == 1  # core 0 died under it

    def test_last_core_dying_raises_all_cores_dead(self):
        machine = Machine(1, initial_level=2)
        body = 1e9 / machine.cores[0].frequency_hz
        rt = Runtime(
            machine,
            record_trace=False,
            faults=self._core_kill_plan(body * 0.5),
            recovery="reexec",
        )
        rt.submit(Task.make("doomed", cpu_cycles=1e9))
        with pytest.raises(AllCoresDeadError, match="fail-stopped"):
            rt.taskwait()

    def test_all_cores_dead_is_a_deadlock_subclass(self):
        # Campaign crash isolation and existing DeadlockError handling
        # both catch the new failure without special-casing.
        assert issubclass(AllCoresDeadError, DeadlockError)

    def test_dead_cores_stop_drawing_energy(self):
        """A core killed early must cost less energy than one that idles
        to the end of a long run."""
        machine = Machine(2, initial_level=2)
        body = 1e9 / machine.cores[0].frequency_hz
        rt = Runtime(
            machine,
            record_trace=False,
            faults=RuntimeFaultPlan(
                (RuntimeFault(body * 0.05, kind="core", victim_u=0.9),)
            ),
            recovery="reexec",
        )
        rt.submit_all(
            [Task.make(f"t{i}", cpu_cycles=2e8) for i in range(8)]
        )
        rt.run()
        dead = next(c for c in machine.cores if not c.alive)
        live = next(c for c in machine.cores if c.alive)
        assert dead.energy.joules < live.energy.joules


# ----------------------------------------------------------------------
# streaming windows
# ----------------------------------------------------------------------
class TestStreaming:
    def test_plan_spans_taskwait_windows(self):
        """Un-fired plan entries survive a disarm and re-arm in the next
        streaming window; replays stay bit-identical."""

        def go():
            machine = Machine(4, initial_level=2)
            first = random_layered(
                4, 6, cpu_cycles=4e6, seed=1, mem_ratio=0.0
            )
            rt0 = Runtime(machine, record_trace=False)
            # Probe run to learn the window-1 makespan for this shape.
            rt0.submit_all(
                random_layered(4, 6, cpu_cycles=4e6, seed=1, mem_ratio=0.0)
            )
            rt0.taskwait()
            m1 = machine.sim.now
            machine = Machine(4, initial_level=2)
            plan = RuntimeFaultPlan(
                (RuntimeFault(m1 * 0.5), RuntimeFault(m1 * 1.5))
            )
            rt = Runtime(
                machine, record_trace=False, faults=plan, recovery="reexec"
            )
            rt.submit_all(first)
            rt.taskwait()
            fired_w1 = rt.stats.get("runtime_faults_fired")
            rt.submit_all(
                random_layered(4, 6, cpu_cycles=4e6, seed=2, mem_ratio=0.0)
            )
            rt.taskwait()
            return (
                fired_w1,
                rt.stats.get("runtime_faults_fired"),
                machine.sim.now,
                rt.stats.as_dict(),
            )

        first, again = go(), go()
        assert first == again
        fired_w1, fired_total, _, _ = first
        assert fired_w1 == 1
        assert fired_total == 2
