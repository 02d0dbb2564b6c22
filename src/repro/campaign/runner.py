"""Campaign execution: one scenario → one record, many scenarios → a sweep.

The runner has two halves:

* :func:`run_scenario` — a pure function from a :class:`~.matrix.Scenario`
  to a result record.  It builds the machine, scheduler, criticality
  policy and RSU the scenario names, submits the workload, runs the
  simulation and dumps metrics + the full StatSet.  Failures of any kind
  are captured as ``status: "error"`` records — one broken scenario never
  kills a campaign (crash isolation).
* :func:`run_campaign` — executes a :class:`~.matrix.Matrix`, either
  serially in-process (``workers<=1``, the debugging path: exceptions in
  the harness itself surface normally, records appear in matrix order) or
  on a ``multiprocessing`` pool of forked workers.  The pool lives for
  the process: the first ``workers > 1`` batch forks ``min(workers,
  len(batch))`` workers, and later calls (and their timeout-retry rounds)
  reuse them while that size fits, so a worker imports each family's
  modules once per process, not once per call.  Workers therefore see
  module state as it was when the pool was forked.  With a
  :class:`~.store.ResultStore` attached, scenarios whose records already
  exist are skipped (resume), and every fresh record is appended as soon
  as it arrives, so a killed campaign loses at most the in-flight
  scenarios.

Determinism: a scenario's record depends only on the scenario axes and
the code revision — never on worker count, shard layout, or sibling
scenarios.  Workloads are built inside the executing process from the
scenario's own seed; nothing simulated crosses a process boundary.
"""

from __future__ import annotations

import atexit
import multiprocessing.pool
import os
import signal
import socket
import subprocess
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience.runtime_faults import RuntimeFaultPlan, RuntimeRecoveryPolicy

from ..apps.dag_workloads import WORKLOADS, make_workload
from ..apps.kernels import critical_chain_with_fillers
from ..apps.parsec import PARSEC_APPS, build_ompss, build_pthreads
from ..apps.rsu_experiment import make_section31_machine
from ..core.criticality import (
    AnnotatedCriticality,
    BottomLevelHeuristic,
    CriticalPathOracle,
)
from ..core.runtime import Runtime
from ..core.task import Task
from ..obs.metrics import SPAN_SIMULATE, MetricsRegistry, get_active, scoped
from ..obs.timing import now as _now, unix_now as _unix_now
from ..core.schedulers import (
    BottomLevelScheduler,
    BreadthFirstScheduler,
    CriticalityAwareScheduler,
    FifoScheduler,
    LifoScheduler,
    StaticScheduler,
    WorkStealingScheduler,
)
from ..sim.dvfs import RsuDvfsController, SoftwareDvfsController
from ..sim.machine import Machine
from ..sim.rsu import RsuPolicy, RuntimeSupportUnit
from .matrix import Matrix, Scenario
from .store import SCHEMA_VERSION, ResultStore

__all__ = [
    "SCHEDULERS",
    "RSU_MODES",
    "ScenarioTimeout",
    "run_scenario",
    "run_campaign",
    "RunSummary",
]


# ----------------------------------------------------------------------
# axis registries
# ----------------------------------------------------------------------
#: The seven ready-queue policies, by campaign axis name.
SCHEDULERS: Dict[str, Callable[[int], object]] = {
    "fifo": lambda n: FifoScheduler(),
    "lifo": lambda n: LifoScheduler(),
    "breadth_first": lambda n: BreadthFirstScheduler(),
    "bottom_level": lambda n: BottomLevelScheduler(),
    "work_stealing": lambda n: WorkStealingScheduler(n),
    "cats": lambda n: CriticalityAwareScheduler(),
    "static": lambda n: StaticScheduler(n),
}

#: RSU/criticality modes: criticality policy factory + DVFS mechanism.
RSU_MODES: Dict[str, Tuple[Callable[[], object], type]] = {
    "annotated": (lambda: AnnotatedCriticality({"critical": True}), RsuDvfsController),
    "annotated-software": (
        lambda: AnnotatedCriticality({"critical": True}),
        SoftwareDvfsController,
    ),
    "oracle": (lambda: CriticalPathOracle(), RsuDvfsController),
    "heuristic": (lambda: BottomLevelHeuristic(), RsuDvfsController),
}

def _run_nas_scenario(scenario: Scenario) -> Tuple[dict, dict]:
    """Execute a Fig-1 hybrid-memory scenario (``nas:<BENCH>`` family).

    The first out-of-engine figure behind the campaign store: instead of
    the task runtime, the scenario drives the :mod:`repro.memory`
    hierarchy through the NAS access-mix models.  ``exec_time_s`` maps
    onto the ``makespan`` metric (and energy onto ``energy_j``) so the
    standard ``compare`` gate and report pivots apply unchanged;
    NoC traffic and memory cycles ride along as extra metrics, and the
    hierarchy's counter summary lands in ``stats``.
    """
    from ..apps.nas import run_nas

    bench = scenario.family.split(":", 1)[1]
    mode = str(scenario.param("mode", "hybrid"))
    accesses = int(scenario.param("accesses_per_core", 1200))
    result = run_nas(
        bench,
        mode,
        n_cores=scenario.n_cores,
        accesses_per_core=accesses,
        seed=scenario.seed,
    )
    metrics = {
        "makespan": result.exec_time_s,
        "energy_j": result.energy_j,
        "edp": result.exec_time_s * result.energy_j,
        "n_tasks": scenario.n_cores * accesses,
        "noc_flit_hops": result.noc_flit_hops,
        "mem_cycles": result.mem_cycles,
    }
    stats = {k: float(v) for k, v in result.summary.items()}
    return metrics, stats


def _run_fig4_scenario(scenario: Scenario) -> Tuple[dict, dict]:
    """Execute a Fig-4 resilience scenario (``fig4:<scheme>`` family).

    The second out-of-engine figure behind the campaign store: the
    scenario drives the :mod:`repro.resilience` CG solver under a seeded
    :class:`~repro.resilience.faults.FaultPlan` instead of the task
    runtime.  Convergence time maps onto the ``makespan`` metric and the
    iteration count onto ``n_tasks`` (so the standard ``compare`` gate —
    exact on ``n_tasks``, toleranced on ``makespan`` — applies
    unchanged); recovery/protection overheads, the fired fault count and
    the convergence flag ride along as extra metrics.  A non-finite
    iterate is a hard error (crash-isolated into an error record): a
    recovery scheme that lets NaNs survive must be visible, not averaged
    away.
    """
    import numpy as np

    from ..resilience.fig4 import Fig4Setup, fig4_run

    scheme = scenario.family.split(":", 1)[1]
    grid = int(scenario.param("grid", 48))
    setup = Fig4Setup(
        nx=grid,
        ny=grid,
        seed=scenario.seed,
        tol=float(scenario.param("tol", 1e-8)),
        fault_time_s=float(scenario.param("fault_time", 15.0)),
        block_start=int(scenario.param("block_start", 0)),
        block_len=int(scenario.param("block_len", 128)),
        checkpoint_interval=int(scenario.param("ckpt_interval", 120)),
        n_faults=int(scenario.param("n_faults", 1)),
        fault_rate=(
            float(scenario.param("fault_rate"))
            if scenario.param("fault_rate") is not None
            else None
        ),
        fault_window_s=float(scenario.param("fault_window", 0.0)),
        fault_distribution=str(scenario.param("fault_distribution", "uniform")),
        fault_seed=int(scenario.param("fault_seed", 0)),
        afeir_cores=scenario.n_cores,
    )
    result = fig4_run(setup, scheme)
    if not np.isfinite(result.x).all():
        raise RuntimeError(
            f"scheme {scheme!r} left non-finite entries in the iterate "
            f"after {result.n_faults} fault(s)"
        )
    metrics = {
        "makespan": result.convergence_time(),
        "n_tasks": result.iterations,
        "recovery_s": result.recovery_s,
        "protection_s": result.protection_s,
        "fault_count": result.n_faults,
        "converged": int(result.converged),
        "final_residual": result.records[-1].residual,
    }
    stats = {
        "cg_iterations": float(result.iterations),
        "cg_records": float(len(result.records)),
        "faults_injected": float(result.n_faults),
        "converged_runs": float(int(result.converged)),
    }
    return metrics, stats


def _build_workload(scenario: Scenario) -> List[Task]:
    """Materialise the scenario's task list from its family + knobs.

    Scenario params prefixed ``wl_`` are workload-shape knobs forwarded
    to the DAG-family factory (``wl_cost_mult`` -> ``cost_mult`` ...);
    unprefixed params stay machine/RSU-side.
    """
    family = scenario.family
    if family.startswith("faulty:"):
        # Runtime-fault scenarios execute an ordinary DAG family (named
        # by the ``base_family`` param) with a fault plan armed; the
        # workload itself is identical to the fault-free row.
        family = str(scenario.param("base_family", "layered"))
        if family not in WORKLOADS:
            raise ValueError(
                f"faulty base_family {family!r} must be a DAG family "
                f"{sorted(WORKLOADS)}"
            )
    if family in WORKLOADS:
        knobs = {
            k[3:]: v for k, v in scenario.params if k.startswith("wl_")
        }
        return make_workload(
            family, scale=scenario.scale, seed=scenario.seed, **knobs
        )
    if family.startswith("debug:"):
        return _build_debug_workload(scenario, family)
    if family == "chain":
        # The defaults are the Section 3.1 workload, calibrated so that
        # CATS + RSU boosting on the 32-core machine lands in the paper's
        # 6.6% performance / 20.0% EDP bands against the static baseline.
        fillers_per_core = scenario.param("fillers_per_core")
        n_fillers = (
            int(fillers_per_core) * scenario.n_cores
            if fillers_per_core is not None
            else int(scenario.param("n_fillers", 2000)) * scenario.scale
        )
        return critical_chain_with_fillers(
            chain_len=int(scenario.param("chain_len", 8)),
            n_fillers=n_fillers,
            chain_cycles=float(scenario.param("chain_cycles", 4e9)),
            filler_cycles=float(scenario.param("filler_cycles", 1e9)),
            jitter=float(scenario.param("jitter", 0.3)),
            seed=scenario.seed,
        )
    if family.startswith("parsec:"):
        try:
            _, app, variant = family.split(":")
        except ValueError:
            raise ValueError(
                f"parsec family must be 'parsec:<app>:<variant>', got {family!r}"
            ) from None
        model = PARSEC_APPS.get(app)
        if model is None:
            raise ValueError(
                f"unknown PARSEC app {app!r}; choose from {sorted(PARSEC_APPS)}"
            )
        if variant == "pthreads":
            return build_pthreads(model, scenario.n_cores)
        if variant == "ompss":
            return build_ompss(model, scenario.n_cores)
        raise ValueError(f"unknown PARSEC variant {variant!r}")
    raise ValueError(
        f"unknown workload family {scenario.family!r}; choose a DAG family "
        f"{sorted(WORKLOADS)}, 'chain', 'parsec:<app>:<variant>', or "
        "'faulty:<policy>'"
    )


def _build_debug_workload(scenario: Scenario, family: str) -> List[Task]:
    """Deliberately-misbehaving families for harness robustness tests.

    Never part of any preset; they exist so the per-scenario timeout
    machinery is covered by real pool executions instead of mocks.

    * ``debug:hang`` — spins forever; only a scenario timeout ends it.
    * ``debug:hang_once`` — spins on the first attempt (marked by
      creating the ``sentinel`` file), returns a one-task workload on
      the retry — the bounded-retry recovery path.
    """
    if family == "debug:hang":
        while True:  # pragma: no cover - exited only via SIGALRM
            pass
    if family == "debug:hang_once":
        sentinel = scenario.param("sentinel")
        if sentinel is not None and not os.path.exists(str(sentinel)):
            with open(str(sentinel), "w", encoding="utf-8"):
                pass
            while True:  # pragma: no cover - exited only via SIGALRM
                pass
        return [Task.make("debug", cpu_cycles=1e6)]
    raise ValueError(f"unknown debug family {family!r}")


def _build_machine(scenario: Scenario) -> Machine:
    """The simulated chip for this scenario.

    RSU-enabled scenarios run on the Section 3.1 machine
    (narrow-voltage table + ``budget_factor`` × cores × nominal busy
    power budget); PARSEC scenarios use the stock machine; plain DAG
    scenarios pin the nominal mid level.
    """
    n = scenario.n_cores
    if scenario.rsu != "off":
        return make_section31_machine(
            n, float(scenario.param("budget_factor", 1.0))
        )
    if scenario.family == "chain":
        # Static baseline of the fig2 comparison: same table, no budget.
        return make_section31_machine(n, None)
    if scenario.family.startswith("parsec:"):
        return Machine(n)
    return Machine(n, initial_level=2)


def _build_fault_plan(
    scenario: Scenario,
) -> Tuple["RuntimeFaultPlan", "RuntimeRecoveryPolicy"]:
    """(plan, policy) for a ``faulty:<policy>`` scenario.

    Fault-axis params mirror the fig4 family's knobs: ``fault_count``
    *or* ``fault_rate`` (count wins a default of 0 — a ``faulty:*`` row
    without fault knobs is the zero-fault control, bit-identical to its
    base family), ``fault_window`` (seconds, from t=0),
    ``fault_distribution``, ``fault_seed``, ``core_kill_p``; policy
    knobs (``penalty``, ``max_retries``, ``protect_frac``,
    ``restart_fraction``) are forwarded to the policy constructor.
    """
    from ..resilience.runtime_faults import plan_runtime_faults, resolve_recovery

    policy_name = scenario.family.split(":", 1)[1]
    policy_kwargs: Dict[str, object] = {}
    for key in ("penalty", "max_retries", "protect_frac", "restart_fraction"):
        value = scenario.param(key)
        if value is not None:
            policy_kwargs[key] = (
                int(value) if key == "max_retries" else float(value)
            )
    policy = resolve_recovery(policy_name, **policy_kwargs)
    rate = scenario.param("fault_rate")
    n_faults = (
        None if rate is not None else int(scenario.param("fault_count", 0))
    )
    plan = plan_runtime_faults(
        seed=int(scenario.param("fault_seed", 0)),
        n_faults=n_faults,
        rate=float(rate) if rate is not None else None,
        window=(0.0, float(scenario.param("fault_window", 60.0))),
        distribution=str(scenario.param("fault_distribution", "uniform")),
        core_kill_p=float(scenario.param("core_kill_p", 0.0)),
    )
    return plan, policy


def _build_runtime(scenario: Scenario, machine: Machine) -> Runtime:
    try:
        scheduler = SCHEDULERS[scenario.scheduler](scenario.n_cores)
    except KeyError:
        raise ValueError(
            f"unknown scheduler {scenario.scheduler!r}; "
            f"choose from {sorted(SCHEDULERS)}"
        ) from None
    faults: Optional["RuntimeFaultPlan"] = None
    recovery: Optional["RuntimeRecoveryPolicy"] = None
    if scenario.family.startswith("faulty:"):
        faults, recovery = _build_fault_plan(scenario)
    criticality = None
    rsu = None
    if scenario.rsu != "off":
        try:
            policy_factory, controller_cls = RSU_MODES[scenario.rsu]
        except KeyError:
            raise ValueError(
                f"unknown rsu mode {scenario.rsu!r}; "
                f"choose 'off' or one of {sorted(RSU_MODES)}"
            ) from None
        criticality = policy_factory()
        rsu = RuntimeSupportUnit(
            machine,
            controller_cls(machine),
            RsuPolicy(
                efficient_level=int(scenario.param("efficient_level", 1)),
                respect_budget=bool(scenario.param("respect_budget", True)),
            ),
        )
    return Runtime(
        machine,
        scheduler=scheduler,
        criticality=criticality,
        rsu=rsu,
        record_trace=False,
        faults=faults,
        recovery=recovery,
    )


# ----------------------------------------------------------------------
# single-scenario execution
# ----------------------------------------------------------------------
class ScenarioTimeout(RuntimeError):
    """A scenario exceeded its per-scenario wall-clock budget."""


_git_rev_cache: Optional[str] = None


def _git_rev() -> str:
    global _git_rev_cache
    if _git_rev_cache is None:
        try:
            _git_rev_cache = (
                subprocess.run(
                    ["git", "rev-parse", "--short", "HEAD"],
                    cwd=os.path.dirname(os.path.abspath(__file__)),
                    capture_output=True,
                    text=True,
                    timeout=5,
                ).stdout.strip()
                or "unknown"
            )
        except Exception:
            _git_rev_cache = "unknown"
    return _git_rev_cache


def run_scenario(scenario: Scenario, campaign: str = "", obs: bool = False) -> dict:
    """Execute one scenario and return its result record (never raises).

    With ``obs=True`` a fresh :class:`~repro.obs.metrics.MetricsRegistry`
    is installed for the scenario's duration (phase spans, counters,
    gauges) and its schema-versioned summary lands under the record's
    ``"obs"`` key.  The key is excluded from record-identity hashing like
    ``timing``, and the instrumentation is purely observational —
    canonical record content is bit-identical with ``obs`` on or off
    (pinned by ``tests/test_obs.py`` and the ``compare --tolerance 0``
    acceptance gate).
    """
    record = {
        "id": scenario.scenario_id,
        "scenario": scenario.axes(),
        "status": "ok",
        "metrics": None,
        "stats": None,
        "error": None,
        "meta": {
            "schema": SCHEMA_VERSION,
            "campaign": campaign,
            "git_rev": _git_rev(),
        },
        "timing": None,
        "obs": None,
    }
    t0 = _now()
    sim_s = 0.0
    tdg_s = 0.0
    registry: Optional[MetricsRegistry] = None
    with ExitStack() as stack:
        if obs:
            # Installed process-wide (not just passed to the Runtime) so
            # graph analyses and any other get_active() sites report into
            # the same per-scenario registry; restored on exit either way.
            registry = stack.enter_context(scoped())
        try:
            if scenario.family.startswith(("nas:", "fig4:")):
                # Out-of-engine figures: memory-hierarchy (fig1) or CG
                # resilience (fig4) simulation, no task runtime (and hence
                # no TDG slice in the timing block).
                family_runner = (
                    _run_nas_scenario
                    if scenario.family.startswith("nas:")
                    else _run_fig4_scenario
                )
                t_sim = _now()
                with get_active().span(SPAN_SIMULATE):
                    metrics, stats = family_runner(scenario)
                sim_s = _now() - t_sim
                record["metrics"] = metrics
                record["stats"] = stats
                record["timing"] = None  # filled below like every record
            else:
                tasks = _build_workload(scenario)
                machine = _build_machine(scenario)
                rt = _build_runtime(scenario, machine)
                # Simulation wall time starts at submission: graph
                # *generation* cost must not pollute the tracked tasks/s
                # trajectory (the ROADMAP notes TDG construction dominates
                # at large scales).  ``tdg_s`` is the host-side
                # TDG-construction slice of that window — dependence
                # registration + edge insertion — tracked separately so
                # tracker regressions are visible even when the event kernel
                # dominates.  (With ``obs`` the same slice is also visible as
                # the ``tdg_build`` phase span.)
                t_sim = _now()
                rt.submit_all(tasks)
                tdg_s = _now() - t_sim
                if scenario.scheduler == "bottom_level" and rt.criticality is None:
                    # HLF needs bottom levels even without a criticality policy.
                    rt.graph.compute_bottom_levels()
                result = rt.run()
                sim_s = _now() - t_sim
                record["metrics"] = {
                    "makespan": result.makespan,
                    "energy_j": result.energy_j,
                    "edp": result.edp,
                    "n_tasks": result.n_tasks,
                }
                if scenario.family.startswith("faulty:"):
                    # The fault axis rides along as extra metrics so
                    # sweeps can pivot/gate on resilience outcomes; the
                    # standard keys above stay untouched, which is what
                    # lets zero-fault rows compare exactly against their
                    # fault-free base family.
                    record["metrics"].update(
                        faults_fired=result.faults_fired,
                        tasks_reexecuted=result.tasks_reexecuted,
                        cores_lost=result.cores_lost,
                        recovery_s=result.recovery_s,
                    )
                record["stats"] = result.stats.as_dict()
        except Exception as exc:  # crash isolation: error rows, not crashes
            record["status"] = "error"
            record["error"] = {
                "type": type(exc).__name__,
                "message": str(exc),
            }
            if isinstance(exc, ScenarioTimeout):
                # The marker run_campaign's bounded-retry logic keys on.
                record["error"]["reason"] = "timeout"
            record["metrics"] = None
            record["stats"] = None
    if registry is not None:
        record["obs"] = registry.summary()
    wall = _now() - t0
    n_tasks = (record["metrics"] or {}).get("n_tasks", 0)
    record["timing"] = {
        "wall_s": wall,
        "build_s": wall - sim_s,
        "tdg_s": tdg_s,
        "sim_s": sim_s,
        "tasks_per_sec": (n_tasks / sim_s) if sim_s > 0 and n_tasks else 0.0,
        "host": socket.gethostname(),
        "pid": os.getpid(),
        "unix_ts": _unix_now(),
    }
    return record


def _run_with_timeout(
    scenario: Scenario,
    campaign: str,
    obs: bool,
    timeout_s: Optional[float],
) -> dict:
    """:func:`run_scenario` under a wall-clock deadline (SIGALRM).

    The alarm interrupts the scenario *in-process* — a hung workload
    builder or a runaway simulation becomes a ``status: "error"`` record
    with ``reason: "timeout"`` instead of wedging its pool worker (and
    with it the whole campaign) forever.  On platforms without SIGALRM
    the deadline is a no-op; campaigns still run, just unprotected.
    """
    if not timeout_s or timeout_s <= 0 or not hasattr(signal, "SIGALRM"):
        return run_scenario(scenario, campaign, obs=obs)

    def _on_alarm(signum: int, frame: object) -> None:
        raise ScenarioTimeout(
            f"scenario exceeded the per-scenario timeout of {timeout_s}s"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        # A timeout raised inside run_scenario's own try block is
        # absorbed there into a tagged error record; this except only
        # catches the narrow windows before/after it.
        return run_scenario(scenario, campaign, obs=obs)
    except ScenarioTimeout as exc:
        return {
            "id": scenario.scenario_id,
            "scenario": scenario.axes(),
            "status": "error",
            "metrics": None,
            "stats": None,
            "error": {
                "type": "ScenarioTimeout",
                "message": str(exc),
                "reason": "timeout",
            },
            "meta": {
                "schema": SCHEMA_VERSION,
                "campaign": campaign,
                "git_rev": _git_rev(),
            },
            "timing": None,
            "obs": None,
        }
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _pool_entry(payload: Tuple[Scenario, str, bool, Optional[float]]) -> dict:
    scenario, campaign, obs, timeout_s = payload
    return _run_with_timeout(scenario, campaign, obs, timeout_s)


#: The process's worker pool, and the ``(pid, size)`` it was forked with.
_pool: Optional[multiprocessing.pool.Pool] = None
_pool_owner: Tuple[int, int] = (0, 0)


def _worker_pool(workers: int, n_tasks: int) -> multiprocessing.pool.Pool:
    """This process's pool for ``n_tasks`` scenarios on ``workers`` workers.

    The kept pool serves while its size lies between ``min(workers,
    n_tasks)`` and ``workers``; otherwise it is shut down (terminated
    and joined, so no fork runs while its handler threads live) and a
    pool of ``min(workers, n_tasks)`` forked workers replaces it.
    """
    global _pool, _pool_owner
    size = min(workers, n_tasks)
    pid, kept = _pool_owner
    if _pool is not None and pid == os.getpid() and size <= kept <= workers:
        return _pool
    _close_pool()
    _git_rev()  # resolved here, so the workers inherit it
    _pool = multiprocessing.pool.Pool(processes=size)
    _pool_owner = (os.getpid(), size)
    return _pool


def _close_pool() -> None:
    """Terminate, join and forget this process's pool.

    A pool inherited through ``fork`` is only forgotten: its workers
    belong to the parent.
    """
    global _pool
    pool, _pool = _pool, None
    if pool is not None and _pool_owner[0] == os.getpid():
        pool.terminate()
        pool.join()


# multiprocessing's own exit hook stops the workers but leaves the pool
# marked running, and ``Pool.__del__`` then warns at interpreter teardown
# (or fails, once the modules it needs are torn down).
atexit.register(_close_pool)


# ----------------------------------------------------------------------
# campaign execution
# ----------------------------------------------------------------------
@dataclass
class RunSummary:
    """What a campaign execution did."""

    campaign: str
    n_total: int
    n_skipped: int
    n_ok: int = 0
    n_errors: int = 0
    #: First-attempt timeouts that triggered the bounded retry (the
    #: retry's own outcome lands in n_ok/n_errors like any record).
    n_timeouts: int = 0
    records: List[dict] = field(default_factory=list)

    @property
    def n_run(self) -> int:
        return self.n_ok + self.n_errors

    def describe(self) -> str:
        text = (
            f"campaign {self.campaign!r}: {self.n_total} scenarios, "
            f"{self.n_skipped} cached, {self.n_ok} ok, {self.n_errors} errors"
        )
        if self.n_timeouts:
            text += f", {self.n_timeouts} timeouts retried"
        return text


def run_campaign(
    matrix: Matrix,
    store: Optional[ResultStore] = None,
    workers: int = 1,
    resume: bool = True,
    retry_errors: bool = True,
    shard: Tuple[int, int] = (0, 1),
    progress: Optional[Callable[[dict], None]] = None,
    obs: bool = False,
    timeout_s: Optional[float] = None,
) -> RunSummary:
    """Execute every scenario of ``matrix`` (or of one shard of it).

    Parameters
    ----------
    store:
        Optional result store.  With ``resume`` (the default), scenarios
        whose ok-records already exist are skipped and their cached
        records are returned in :attr:`RunSummary.records`; fresh records
        are appended as they complete.  Cached *error* records are
        re-executed by default (``retry_errors``) — a fixed bug plus a
        rerun must converge to a clean store, not skip the broken rows.
    workers:
        ``<=1`` runs serially in-process (deterministic record order,
        exceptions in the harness surface normally — the debugging path).
        ``>1`` fans every scenario out over at most ``workers`` forked
        processes; completion order is nondeterministic but record
        *content* is not.  The pool lives for the process: the first such
        batch forks ``min(workers, len(batch))`` workers, and a later
        call or a timeout-retry round reuses them while their number lies
        between ``min(workers, len(batch))`` and ``workers`` (otherwise a
        pool of that minimum replaces them).  Its workers therefore see
        module state as it was when the pool was forked, not as it is at
        this call.  If this call stops before every record arrives (an
        exception from ``progress`` or the store, ``KeyboardInterrupt``)
        the pool is terminated, so the next call forks a fresh one.  A
        killed campaign still loses at most its in-flight scenarios:
        workers ship each record as it finishes, and it is appended on
        arrival.
    shard:
        ``(index, count)`` — run only this round-robin shard of the
        matrix, for spreading one campaign across machines.  All shards
        may share one store per machine and be merged by concatenation.
    progress:
        Optional callback invoked with each fresh record as it lands.
    obs:
        Collect per-scenario observability metrics (phase spans, runtime
        counters) into each record's ``"obs"`` key.  Purely additive:
        canonical record content is unchanged, so obs-on and obs-off
        stores compare clean at ``--tolerance 0``.  Note resume: cached
        records are returned as stored — a resumed campaign only adds
        ``"obs"`` blocks to the scenarios it actually (re)runs.
    timeout_s:
        Optional per-scenario wall-clock budget.  A scenario that blows
        it is interrupted (SIGALRM, in its own worker) and retried
        exactly once; a second timeout — or any other error on the
        retry — lands in the store as the scenario's final record with
        ``error.reason == "timeout"``.  ``None`` (default) never
        interrupts, matching previous behaviour.
    """
    index, count = shard
    # Always route through Matrix.shard so malformed specs ((0, 0),
    # (3, 1), negatives) raise instead of silently running everything.
    work = matrix.shard(index, count)
    summary = RunSummary(campaign=matrix.name, n_total=len(work), n_skipped=0)

    todo: List[Scenario] = []
    for scenario in work:
        cached = store.get(scenario.scenario_id) if (store is not None and resume) else None
        if cached is not None and (
            cached["status"] == "ok" or not retry_errors
        ):
            summary.n_skipped += 1
            summary.records.append(cached)
        else:
            todo.append(scenario)

    def _absorb(record: dict) -> None:
        if store is not None:
            store.append(record)
        summary.records.append(record)
        if record["status"] == "ok":
            summary.n_ok += 1
        else:
            summary.n_errors += 1
        if progress is not None:
            progress(record)

    def _execute(batch: List[Scenario]) -> Iterator[dict]:
        if workers <= 1:
            for scenario in batch:
                yield _run_with_timeout(scenario, matrix.name, obs, timeout_s)
        elif batch:  # a fully cached campaign forks nothing
            payloads = [(s, matrix.name, obs, timeout_s) for s in batch]
            # Unordered: records land (and persist) as soon as a worker
            # finishes; canonical comparisons sort by scenario id anyway.
            yield from _worker_pool(workers, len(batch)).imap_unordered(
                _pool_entry, payloads, chunksize=1
            )

    batch = todo
    try:
        for attempt in range(2):
            retries: List[Scenario] = []
            by_id = {s.scenario_id: s for s in batch}
            for record in _execute(batch):
                error = record.get("error") or {}
                if attempt == 0 and error.get("reason") == "timeout":
                    # Bounded retry: a first-attempt timeout gets exactly
                    # one more chance (a transiently-loaded host must not
                    # poison the store); only the retry's outcome is
                    # recorded.
                    summary.n_timeouts += 1
                    retries.append(by_id[record["id"]])
                else:
                    _absorb(record)
            if not retries:
                break
            batch = retries
    except BaseException:
        if workers > 1:
            # Stopped before every record arrived (an exception from
            # progress or the store, ^C, a failed pool): the rest of the
            # batch is still queued, and the next call must not queue
            # behind it.
            _close_pool()
        raise
    return summary
