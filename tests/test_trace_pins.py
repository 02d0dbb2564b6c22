"""Execution traces pinned bit for bit, and checked against the cost model.

Two checks run over 47 configurations:

* **Digest.** Each run's ``RunResult.trace`` is hashed record by record in
  emitted order — gid, label, core, ``repr`` of start, end and frequency,
  criticality — together with ``repr(trace.utilisation(16))``, so record
  order and the float sum in ``utilisation`` are pinned too.  A record
  names its task by gid, not by the process-wide ``task_id``, which
  depends on how many tasks earlier tests built.  The digests were
  recorded with a trace kept per completion; a trace built from the
  graph arrays must reproduce them.
* **Stall oracle.** A task's interval is its DVFS stall plus
  ``cpu_cycles / f + mem_seconds`` at the frequency its record carries,
  so over each run without a prefetcher or faults,
  ``sum(duration - cpu_cycles / (f * 1e9) - mem_seconds)`` must equal the
  runtime's ``dvfs_stall_seconds`` (0 without an RSU).  A record that
  carries any frequency other than the one the task ran at fails this.

Configurations: the seven schedulers on the five DAG families (scale 1,
six cores); the Section 3.1 chain on 8 and 32 cores under the RSU and
the software DVFS path; a layered DAG with bottom-level criticality, the
RSU, hardware submission and the prefetcher; cholesky under software
submission; and cholesky under each recovery policy, with a task-kill
plan and with a mixed task/core-kill plan.
"""

import hashlib

import pytest

from repro.apps.dag_workloads import WORKLOADS, make_workload
from repro.apps.kernels import critical_chain_with_fillers
from repro.apps.rsu_experiment import make_section31_machine
from repro.campaign.runner import SCHEDULERS
from repro.core import (
    AnnotatedCriticality,
    BottomLevelHeuristic,
    CriticalityAwareScheduler,
    FifoScheduler,
    Runtime,
)
from repro.core.prefetch import RuntimePrefetcher
from repro.resilience.runtime_faults import (
    RECOVERY_POLICIES,
    plan_runtime_faults,
)
from repro.sim import Machine, RsuDvfsController, RsuPolicy, RuntimeSupportUnit
from repro.sim.dvfs import SoftwareDvfsController
from repro.sim.tdg_accel import HardwareSubmission, SoftwareSubmission

N_CORES = 6

#: Fault plans for the recovery configurations: (seed, core-kill share).
#: Seed 4 at share 0.5 draws both a task kill and a core kill.
FAULT_PLANS = {"task_kill": (4, 0.0), "mixed_kill": (4, 0.5)}


def _dag(family, scheduler):
    rt = Runtime(
        Machine(N_CORES, initial_level=2),
        scheduler=SCHEDULERS[scheduler](N_CORES),
    )
    rt.submit_all(make_workload(family, scale=1))
    if scheduler == "bottom_level":
        rt.graph.compute_bottom_levels()
    return rt


def _chain(n_cores, controller_cls):
    machine = make_section31_machine(n_cores, budget_factor=1.0)
    rsu = RuntimeSupportUnit(
        machine, controller_cls(machine), RsuPolicy(efficient_level=1)
    )
    rt = Runtime(
        machine,
        scheduler=CriticalityAwareScheduler(),
        criticality=AnnotatedCriticality({"critical": True}),
        rsu=rsu,
    )
    rt.submit_all(critical_chain_with_fillers(8, 2000, 4e9, 1e9, 0.3, 0))
    return rt


def _layered_hardware():
    machine = make_section31_machine(N_CORES, budget_factor=1.0)
    rsu = RuntimeSupportUnit(
        machine, RsuDvfsController(machine), RsuPolicy(efficient_level=1)
    )
    rt = Runtime(
        machine,
        scheduler=CriticalityAwareScheduler(),
        criticality=BottomLevelHeuristic(),
        rsu=rsu,
        submission=HardwareSubmission(),
        prefetcher=RuntimePrefetcher(),
    )
    rt.submit_all(make_workload("layered", scale=1))
    return rt


def _cholesky_software_submission():
    rt = Runtime(
        Machine(N_CORES, initial_level=2),
        scheduler=FifoScheduler(),
        submission=SoftwareSubmission(),
    )
    rt.submit_all(make_workload("cholesky", scale=1))
    return rt


def _cholesky_faults(policy, plan_name):
    seed, core_kill_p = FAULT_PLANS[plan_name]
    # The fault window is most of the fault-free FIFO makespan.
    window = (0.0, 0.8 * _dag("cholesky", "fifo").run().makespan)
    plan = plan_runtime_faults(
        seed=seed, n_faults=3, window=window, core_kill_p=core_kill_p
    )
    rt = Runtime(
        Machine(N_CORES, initial_level=2),
        scheduler=FifoScheduler(),
        faults=plan,
        recovery=policy,
    )
    rt.submit_all(make_workload("cholesky", scale=1))
    return rt


#: name -> (builder, stall oracle applies)
CONFIGS = {}
for _family in WORKLOADS:
    for _scheduler in SCHEDULERS:
        CONFIGS[f"{_family}/{_scheduler}"] = (
            lambda f=_family, s=_scheduler: _dag(f, s), True
        )
for _n in (8, 32):
    for _name, _ctl in (("rsu", RsuDvfsController),
                        ("software", SoftwareDvfsController)):
        CONFIGS[f"chain/{_n}/{_name}"] = (
            lambda n=_n, c=_ctl: _chain(n, c), True
        )
CONFIGS["layered/heuristic+rsu+hw_submission+prefetch"] = (
    _layered_hardware, False
)
CONFIGS["cholesky/sw_submission"] = (_cholesky_software_submission, True)
for _policy in RECOVERY_POLICIES:
    for _plan in FAULT_PLANS:
        CONFIGS[f"cholesky/{_policy}/{_plan}"] = (
            lambda p=_policy, k=_plan: _cholesky_faults(p, k), False
        )


def trace_digest(result):
    h = hashlib.sha256()
    for r in result.trace.records:
        h.update(repr((
            r.gid, r.task_label, r.core_id, repr(r.start),
            repr(r.end), repr(r.frequency_ghz), r.critical,
        )).encode())
    h.update(repr(result.trace.utilisation(16)).encode())
    return h.hexdigest()[:16]


#: sha256 prefixes of each configuration's trace (see the module doc).
DIGESTS = {
    "chain/32/rsu": "2e90a8168748fe70",
    "chain/32/software": "e915ee030c5f24b1",
    "chain/8/rsu": "0a7be49f9b88d711",
    "chain/8/software": "d8614038ca5252be",
    "cholesky/bottom_level": "90480832f93a46c4",
    "cholesky/breadth_first": "a7ff45db9e930aef",
    "cholesky/cats": "a7ff45db9e930aef",
    "cholesky/fifo": "a7ff45db9e930aef",
    "cholesky/lifo": "5f46306f6ab7f2c9",
    "cholesky/reexec-elsewhere/mixed_kill": "ac0a4968f3c85f06",
    "cholesky/reexec-elsewhere/task_kill": "704aca967bc31c96",
    "cholesky/reexec/mixed_kill": "8aad9ec634767d99",
    "cholesky/reexec/task_kill": "dff6c9d420c624b7",
    "cholesky/static": "4b5bb583b0b89dd9",
    "cholesky/sw_submission": "0e903f5c3d870716",
    "cholesky/task-checkpoint/mixed_kill": "9bb7659432cbb83a",
    "cholesky/task-checkpoint/task_kill": "ed28ddbf5823f46b",
    "cholesky/work_stealing": "1813db3b32e481b9",
    "fork_join/bottom_level": "524328e1da9aec35",
    "fork_join/breadth_first": "ebe7939c53c981a7",
    "fork_join/cats": "ebe7939c53c981a7",
    "fork_join/fifo": "ebe7939c53c981a7",
    "fork_join/lifo": "4875633080611c00",
    "fork_join/static": "01d745583aaa7883",
    "fork_join/work_stealing": "2c37c69386fd4404",
    "layered/bottom_level": "aee590f112bc1dd4",
    "layered/breadth_first": "e82e0e9a71798cfc",
    "layered/cats": "e82e0e9a71798cfc",
    "layered/fifo": "e82e0e9a71798cfc",
    "layered/heuristic+rsu+hw_submission+prefetch": "73844b2b25d2b9df",
    "layered/lifo": "ae3adf4732a81e51",
    "layered/static": "8eae15e0bc897a60",
    "layered/work_stealing": "520bb790ba803011",
    "lu/bottom_level": "e668648aa354eff9",
    "lu/breadth_first": "583f25846c35b1eb",
    "lu/cats": "583f25846c35b1eb",
    "lu/fifo": "583f25846c35b1eb",
    "lu/lifo": "e466100dbf2040a2",
    "lu/static": "a8f0d5ecce234440",
    "lu/work_stealing": "433504bd3a8ae36e",
    "pipeline/bottom_level": "e0c39ae9509ec3cb",
    "pipeline/breadth_first": "e0c39ae9509ec3cb",
    "pipeline/cats": "e0c39ae9509ec3cb",
    "pipeline/fifo": "e0c39ae9509ec3cb",
    "pipeline/lifo": "696e62b2d0ded1f6",
    "pipeline/static": "39e92e353907348b",
    "pipeline/work_stealing": "74f6ec1125e13158",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_matches_its_pinned_digest(name):
    rt = CONFIGS[name][0]()
    result = rt.run()
    assert len(result.trace) == result.n_tasks
    assert trace_digest(result) == DIGESTS[name]


@pytest.mark.parametrize(
    "name", sorted(n for n, (_, oracle) in CONFIGS.items() if oracle)
)
def test_trace_durations_match_the_cost_model(name):
    rt = CONFIGS[name][0]()
    result = rt.run()
    tasks = rt.graph.tasks
    stall = 0.0
    for r in result.trace.records:
        task = tasks[r.gid]
        stall += (
            r.duration
            - task.cpu_cycles / (r.frequency_ghz * 1e9)
            - task.mem_seconds
        )
    assert stall == pytest.approx(
        result.stats.get("dvfs_stall_seconds"), rel=0, abs=1e-9
    )


@pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
def test_fault_plans_fire_the_kinds_they_name(plan_name):
    rt = CONFIGS[f"cholesky/reexec/{plan_name}"][0]()
    result = rt.run()
    assert result.tasks_reexecuted > 0
    assert (result.cores_lost > 0) == (plan_name == "mixed_kill")
