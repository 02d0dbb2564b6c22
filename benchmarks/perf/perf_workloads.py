"""The four benchmark workloads: inputs from a seed, timed steps, checks.

Every workload is a closed loop: :meth:`step` runs the next unit(s) only
after the previous step returned, and times its own program work (build,
submit, simulate, campaign I/O).  Output checks — digests against the
checked-in goldens and model invariants — run after the timed region.

A *step* is one loop iteration; it may hold several timed *units*, each
contributing one host-µs-per-item sample and one checked output:

=================  =====================  ==========  =========  =========
workload           step                   unit        item       cycle
=================  =====================  ==========  =========  =========
``dag_build_run``  one graph              the graph   task       150 units
``stream_window``  one window             the window  task       150 units
``campaign_sweep`` one seed pass (388)    a scenario  scenario   12 passes
``nas_memory``     one access batch       the batch   access     192 units
=================  =====================  ==========  =========  =========

Units are numbered by an *ordinal* within the workload's input cycle; a
run that outlasts the cycle starts it again with the same inputs, and the
golden digests are indexed by ordinal.  Steps report wall time; the
harness converts it to reference speed (:mod:`perf_ref`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence, Tuple

import numpy as np

import perf_ref
from repro.apps import dag_workloads, nas
from repro.campaign import Matrix, ResultStore, build_preset, compare_stores
from repro.campaign import runner
from repro.core.runtime import Runtime
from repro.core.schedulers import FifoScheduler
from repro.core.task import TaskState
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.machine import Machine

#: A unit whose timed region exceeds this many host seconds is a timeout.
UNIT_TIMEOUT_S = 30.0

OUTCOME_KINDS = ("ok", "expected_error", "wrong_output", "unexpected_error", "timeout")
#: Outcome kinds that count as failed operations.
FAILED_KINDS = ("wrong_output", "unexpected_error", "timeout")

_clock = time.perf_counter


def digest(payload: Any) -> str:
    """16-hex sha256 of a canonical JSON rendering (floats keep every digit)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _fastest_hz(machine: Machine) -> float:
    return machine.dvfs[machine.dvfs.max_level].frequency_hz


def _schedule_bound_violations(
    span_s: float, tasks: Sequence[Any], n_cores: int, hz: float
) -> List[str]:
    """``span >= total work / cores`` and ``span >= longest task``."""
    durations = [t.cpu_cycles / hz + t.mem_seconds for t in tasks]
    out = []
    lower = max(sum(durations) / n_cores, max(durations))
    if span_s < lower * (1.0 - 1e-9):
        out.append(f"span {span_s!r} below the schedule lower bound {lower!r}")
    return out


@dataclass
class Outcome:
    ordinal: int
    kind: str
    digest: str = ""
    detail: str = ""


@dataclass
class Step:
    """What one loop iteration did."""

    wall_s: float = 0.0
    items: int = 0
    #: Host µs per item, one sample per unit: ``(ordinal, µs)``.
    samples: List[Tuple[int, float]] = field(default_factory=list)
    outcomes: List[Outcome] = field(default_factory=list)
    #: Modelled per-layer totals (simulated, not host time).
    model: Dict[str, float] = field(default_factory=dict)
    #: Host seconds the program spent per unit as seen from inside it
    #: (campaign records' ``wall_s``); feeds the runner overhead ratio.
    inner_s: float = 0.0
    #: Reference-loop time sampled during the step (:class:`perf_ref.Sampler`);
    #: None: the harness times the loop around the step instead.
    loop_s: Optional[float] = None


class Workload:
    """Common state: seed, goldens, the span hook and outcome judging."""

    name = ""
    item = ""
    #: Units in one input cycle, and the steps that run them.
    cycle = 0
    steps = 0
    caches = ""

    def __init__(self, seed: int, golden: Optional[Sequence[str]]) -> None:
        self.seed = seed
        self.golden = golden
        #: ``span(name, unit)`` context factory; tracing installs its own.
        self.span: Callable[..., ContextManager[Any]] = lambda name, unit=None: nullcontext()
        #: ordinal -> digest of every unit checked so far.
        self.digests: Dict[int, str] = {}

    def judge(self, ordinal: int, payload: Any, violations: Sequence[str], wall_s: float) -> Outcome:
        d = digest(payload)
        self.digests[ordinal] = d
        if wall_s > UNIT_TIMEOUT_S:
            return Outcome(ordinal, "timeout", d, f"unit took {wall_s:.1f} s")
        if violations:
            return Outcome(ordinal, "wrong_output", d, "; ".join(violations))
        if self.golden is not None and self.golden[ordinal % len(self.golden)] != d:
            return Outcome(
                ordinal, "wrong_output", d,
                f"digest {d} != golden {self.golden[ordinal % len(self.golden)]}",
            )
        return Outcome(ordinal, "ok", d)

    def warm_up(self) -> List[Outcome]:
        return self.step(0).outcomes

    def step(self, i: int) -> Step:
        raise NotImplementedError

    def probe_cpus(self) -> Optional[List[int]]:
        """CPUs a step runs on at once (None: just the calling thread's)."""
        return None

    def close(self) -> None:
        """Release what a partially run cycle still holds."""


# ----------------------------------------------------------------------
# dag_build_run
# ----------------------------------------------------------------------
class DagBuildRun(Workload):
    """30 rounds x the five DAG families at scale 8, each graph built and
    run on a fresh 16-core machine with FIFO.  Every graph starts with a
    fresh tracker, so the vectorised dependence kernel, graph analysis,
    event kernel and workload build do the work; no RSU, no memory model,
    no campaign runner."""

    name = "dag_build_run"
    item = "task"
    FAMILIES = ("layered", "cholesky", "lu", "fork_join", "pipeline")
    ROUNDS = 30
    SCALE = 8
    N_CORES = 16
    cycle = steps = ROUNDS * len(FAMILIES)
    caches = "none modelled (runtime-only simulation)"

    def __init__(self, seed: int, golden: Optional[Sequence[str]]) -> None:
        super().__init__(seed, golden)
        rng = np.random.default_rng([seed, 1])
        # Round-major, so any prefix of the cycle mixes the families evenly.
        self.specs = [
            (family, int(rng.integers(2**31)), float(rng.uniform(0.5, 2.0)))
            for _ in range(self.ROUNDS)
            for family in self.FAMILIES
        ]

    def step(self, i: int) -> Step:
        ordinal = i % self.cycle
        family, wl_seed, cost_mult = self.specs[ordinal]
        with self.span("unit", ordinal):
            t0 = _clock()
            tasks = dag_workloads.make_workload(
                family, scale=self.SCALE, seed=wl_seed, cost_mult=cost_mult
            )
            machine = Machine(self.N_CORES, initial_level=2)
            rt = Runtime(machine, scheduler=FifoScheduler(), record_trace=False)
            rt.submit_all(tasks)
            res = rt.run()
            wall = _clock() - t0
        rt.tracker.invalidate_region_caches()
        violations = []
        if res.n_tasks != len(tasks):
            violations.append(f"n_tasks {res.n_tasks} != submitted {len(tasks)}")
        if any(s is not TaskState.FINISHED for s in rt.graph.state):
            violations.append("a submitted task did not finish")
        violations += _schedule_bound_violations(
            res.makespan, tasks, self.N_CORES, _fastest_hz(machine)
        )
        payload = {
            "makespan": res.makespan,
            "energy_j": res.energy_j,
            "edp": res.edp,
            "n_tasks": res.n_tasks,
            "stats": res.stats.as_dict(),
        }
        return Step(
            wall_s=wall,
            items=len(tasks),
            samples=[(ordinal, wall / len(tasks) * 1e6)],
            outcomes=[self.judge(ordinal, payload, violations, wall)],
        )


# ----------------------------------------------------------------------
# stream_window
# ----------------------------------------------------------------------
class StreamWindow(Workload):
    """One ``Runtime(prune_every=256)`` per episode runs 150 rolling
    windows of 1536 tasks over a 64-buffer ring, with a taskwait after
    each.  The warm tracker sends every window after the first down the
    scalar dependence path, and watermark pruning runs."""

    name = "stream_window"
    item = "task"
    WINDOW_TASKS = 1536
    BUFFERS = 64
    PRUNE_EVERY = 256
    N_CORES = 16
    cycle = steps = 150
    caches = "none modelled (runtime-only simulation)"

    def __init__(self, seed: int, golden: Optional[Sequence[str]]) -> None:
        super().__init__(seed, golden)
        self.rt: Optional[Runtime] = None

    def _new_runtime(self) -> Runtime:
        machine = Machine(self.N_CORES, initial_level=2)
        return Runtime(
            machine,
            scheduler=FifoScheduler(),
            record_trace=False,
            prune_every=self.PRUNE_EVERY,
        )

    def warm_up(self) -> List[Outcome]:
        # Window 0 on a throwaway runtime; the timed loop starts afresh.
        outcomes = self.step(0).outcomes
        self.close()
        return outcomes

    def step(self, i: int) -> Step:
        w = i % self.cycle
        last = w == self.cycle - 1
        with self.span("unit", w):
            t0 = _clock()
            if w == 0:
                self.close()
                self.rt = self._new_runtime()
            rt = self.rt
            if rt is None:
                raise RuntimeError("windows run in order from window 0")
            now0 = rt.machine.sim.now
            tasks = dag_workloads.stream_window(
                w, n_buffers=self.BUFFERS, n_tasks=self.WINDOW_TASKS, seed=self.seed
            )
            rt.submit_all(tasks)
            rt.taskwait()
            res = rt.run() if last else None
            wall = _clock() - t0
        now = rt.machine.sim.now
        stats = rt.stats.as_dict()
        violations = []
        if stats.get("tasks_finished") != stats.get("tasks_submitted"):
            violations.append("a submitted task did not finish")
        violations += _schedule_bound_violations(
            now - now0, tasks, self.N_CORES, _fastest_hz(rt.machine)
        )
        payload: Dict[str, Any] = {"now": now, "stats": stats}
        if res is not None:
            payload["result"] = {
                "makespan": res.makespan,
                "energy_j": res.energy_j,
                "edp": res.edp,
                "n_tasks": res.n_tasks,
            }
            self.close()
        return Step(
            wall_s=wall,
            items=len(tasks),
            samples=[(w, wall / len(tasks) * 1e6)],
            outcomes=[self.judge(w, payload, violations, wall)],
        )

    def close(self) -> None:
        if self.rt is not None:
            # Fold the runtime's counters into an active obs registry (a
            # no-op otherwise) and let its tracker graph be collected.
            self.rt.collect_obs()
            self.rt.tracker.invalidate_region_caches()
            self.rt = None


# ----------------------------------------------------------------------
# campaign_sweep
# ----------------------------------------------------------------------
CAMPAIGN_PRESETS = (
    "rsu_comparison",
    "runtime_faults_sweep",
    "fig2_rsu",
    "fig4_smoke",
    "fig5_parsec",
)
#: The only rows allowed to fail: a guaranteed core kill under the static
#: scheduler strands work no other core may take.
EXPECTED_ERROR_TYPES = ("DeadlockError", "AllCoresDeadError")


def _expected_error(scenario: Dict[str, Any]) -> bool:
    return (
        scenario["scheduler"] == "static"
        and scenario["params"].get("core_kill_p") == 1.0
    )


def _record_violations(rec: Dict[str, Any]) -> List[str]:
    """Model invariants on one ok campaign record."""
    sc, met, stats = rec["scenario"], rec["metrics"], rec["stats"]
    out = []
    if not (math.isfinite(met["makespan"]) and met["makespan"] > 0):
        out.append(f"makespan {met['makespan']!r}")
    if met["n_tasks"] < 1:
        out.append(f"n_tasks {met['n_tasks']!r}")
    if not sc["family"].startswith("fig4:"):
        if stats.get("tasks_finished") != met["n_tasks"]:
            out.append("a submitted task did not finish")
        if met["edp"] != met["energy_j"] * met["makespan"]:
            out.append("edp != energy * makespan")
    if sc["family"].startswith("faulty:"):
        if met["tasks_reexecuted"] > met["faults_fired"]:
            out.append("more re-executions than fired faults")
        if met["cores_lost"] >= sc["n_cores"]:
            out.append("an ok row lost every core")
        if met["recovery_s"] < 0:
            out.append("negative recovery time")
    return out


class CampaignSweep(Workload):
    """``run_campaign`` into a fresh on-disk store over seed passes of
    five presets (388 scenarios).  Pass k of seed s shifts every
    scenario's ``seed`` — and ``fault_seed`` on ``faulty:*`` rows — by
    ``12 (s - 1) + k``, so seed 1's pass 0 is the presets verbatim and
    reproduces ``benchmarks/baselines/fig4_smoke.jsonl`` exactly."""

    name = "campaign_sweep"
    item = "scenario"
    PASSES = 12
    caches = "none modelled (runtime and CG simulations)"

    def __init__(
        self,
        seed: int,
        golden: Optional[Sequence[str]],
        work_dir: str,
        workers: int,
        baseline: str,
    ) -> None:
        super().__init__(seed, golden)
        self.work_dir = work_dir
        self.workers = workers
        self.baseline = baseline
        #: (index in the full pass, scenario) — tests may run a subset.
        self.base = list(
            enumerate(s for p in CAMPAIGN_PRESETS for s in build_preset(p))
        )
        self.n_full = len(self.base)
        self.cycle = self.PASSES * self.n_full
        self.steps = self.PASSES

    def probe_cpus(self) -> Optional[List[int]]:
        if self.workers <= 1:
            return None
        return sorted(os.sched_getaffinity(0))[: self.workers]

    def offset(self, k: int) -> int:
        return self.PASSES * ((self.seed - 1) % 2**20) + k

    def _pass(self, k: int) -> List[Any]:
        off = self.offset(k)
        out = []
        for idx, s in self.base:
            if off:
                s = replace(s, seed=s.seed + off)
                if s.family.startswith("faulty:"):
                    s = s.with_params(fault_seed=int(s.param("fault_seed", 0)) + off)
            out.append((idx, s))
        return out

    def _judge_record(self, ordinal: int, rec: Dict[str, Any]) -> Outcome:
        payload = {
            "id": rec["id"],
            "status": rec["status"],
            "metrics": rec["metrics"],
            "stats": rec["stats"],
            "error": (rec["error"] or {}).get("type"),
        }
        wall = (rec.get("timing") or {}).get("wall_s", 0.0)
        if rec["status"] != "ok":
            error = rec["error"] or {}
            d = digest(payload)
            if error.get("reason") == "timeout":
                self.digests[ordinal] = d
                return Outcome(ordinal, "timeout", d, error.get("message", ""))
            if not (
                _expected_error(rec["scenario"])
                and error.get("type") in EXPECTED_ERROR_TYPES
            ):
                self.digests[ordinal] = d
                return Outcome(
                    ordinal, "unexpected_error", d,
                    f"{error.get('type')}: {error.get('message')}",
                )
            outcome = self.judge(ordinal, payload, [], wall)
            if outcome.kind == "ok":
                outcome.kind = "expected_error"
            return outcome
        return self.judge(ordinal, payload, _record_violations(rec), wall)

    def warm_up(self) -> List[Outcome]:
        idx, scenario = self._pass(0)[0]
        return [self._judge_record(idx, runner.run_scenario(scenario, "campaign_sweep"))]

    def step(self, i: int) -> Step:
        k = i % self.PASSES
        shifted = self._pass(k)
        ordinal_of = {s.scenario_id: k * self.n_full + idx for idx, s in shifted}
        matrix = Matrix(f"{self.name}.p{k}", tuple(s for _, s in shifted))
        os.makedirs(self.work_dir, exist_ok=True)
        path = os.path.join(self.work_dir, f"{self.name}-{os.getpid()}.jsonl")
        if os.path.exists(path):
            os.remove(path)
        store = ResultStore(path)
        cpus = self.probe_cpus()
        sampler = perf_ref.Sampler(cpus) if cpus else None

        def started(record: Dict[str, Any]) -> None:
            # The first record means the pool has forked its workers, so a
            # sampling thread can no longer be copied into one.
            if sampler is not None:
                sampler.start()

        try:
            with self.span("unit", i):
                t0 = _clock()
                summary = runner.run_campaign(
                    matrix, store=store, workers=self.workers,
                    timeout_s=UNIT_TIMEOUT_S, progress=started,
                )
                wall = _clock() - t0
            records = sorted(summary.records, key=lambda r: ordinal_of[r["id"]])
            outcomes = [self._judge_record(ordinal_of[r["id"]], r) for r in records]
            if self.offset(k) == 0:
                cmp = compare_stores(ResultStore(self.baseline), store, tolerance=0.0)
                if not cmp.ok or cmp.improvements or not cmp.n_compared:
                    for r, o in zip(records, outcomes):
                        if r["scenario"]["family"].startswith("fig4:"):
                            o.kind = "wrong_output"
                            o.detail = "differs from the fig4_smoke baseline"
        finally:
            if sampler is not None:
                sampler.stop()
            if os.path.exists(path):
                os.remove(path)
        inner = sum((r.get("timing") or {}).get("wall_s", 0.0) for r in records)
        return Step(
            wall_s=wall,
            items=len(records),
            samples=[
                (ordinal_of[r["id"]], (r.get("timing") or {}).get("wall_s", 0.0) * 1e6)
                for r in records
            ],
            outcomes=outcomes,
            model={"expected_errors": sum(o.kind == "expected_error" for o in outcomes)},
            inner_s=inner,
            loop_s=sampler.loop_s if sampler is not None else None,
        )


# ----------------------------------------------------------------------
# nas_memory
# ----------------------------------------------------------------------
def _cache_violations(stats: Dict[str, float]) -> List[str]:
    """Hits + misses = accesses at each cache level of the hierarchy."""
    cache_path = (
        stats.get("accesses", 0.0)
        - stats.get("spm_hits", 0.0)
        - stats.get("unknown_spm_served", 0.0)
    )
    l1 = stats.get("l1_hits", 0.0) + stats.get("l1_misses", 0.0)
    l2 = stats.get("l2_hits", 0.0) + stats.get("l2_misses", 0.0)
    out = []
    if l1 != cache_path:
        out.append(f"L1 hits+misses {l1!r} != cache-path accesses {cache_path!r}")
    if l2 != stats.get("l1_misses", 0.0):
        out.append(f"L2 hits+misses {l2!r} != L1 misses {stats.get('l1_misses', 0.0)!r}")
    return out


class NasMemory(Workload):
    """The six NAS models x {cache, hybrid} at 64 cores, 1000 accesses per
    core, built from ``run_nas``'s public parts (``generate_trace`` ->
    ``MemoryHierarchy.run_batch`` -> ``finish``).  This is the Fig 1
    engine; it touches no runtime code, so it is the control workload.

    One step is one 4096-access batch; the first batch of an episode also
    builds the hierarchy and the trace, the last one also runs ``finish``.
    """

    name = "nas_memory"
    item = "access"
    N_CORES = 64
    ACCESSES_PER_CORE = 1000
    MODES = ("cache", "hybrid")
    BATCHES = math.ceil(ACCESSES_PER_CORE / 64)
    MODELLED = ("l1_hits", "l1_misses", "l2_hits", "l2_misses")
    caches = (
        "modelled caches start empty at every model x mode episode "
        "(a fresh MemoryHierarchy); its 16 batches share state"
    )

    def __init__(self, seed: int, golden: Optional[Sequence[str]]) -> None:
        super().__init__(seed, golden)
        self.episodes = [
            (model, m, mode)
            for m, model in enumerate(sorted(nas.NAS_BENCHMARKS))
            for mode in self.MODES
        ]
        self.cycle = self.steps = len(self.episodes) * self.BATCHES
        self.hier: Optional[MemoryHierarchy] = None
        self.batches: List[Any] = []
        self.seen: Dict[str, float] = {}

    def _setup(self, e: int) -> None:
        model, m, mode = self.episodes[e]
        wl = nas.NAS_BENCHMARKS[model]
        n, a = self.N_CORES, self.ACCESSES_PER_CORE
        hier = MemoryHierarchy(n, mode=mode)
        for base, nbytes in nas.strided_regions(wl, n, a):
            hier.register_filter_region(base, nbytes)
        if mode == "hybrid" and wl.pinned_streams:
            chunk = nas.core_chunk_bytes(wl, a, hier.params)
            for s in range(wl.pinned_streams):
                for c in range(n):
                    hier.pin_region(c, nas.stream_base(s) + c * chunk, chunk)
        with self.span("apps.nas.generate_trace"):
            self.batches = list(
                nas.generate_trace(wl, n, a, seed=self.seed * len(nas.NAS_BENCHMARKS) + m)
            )
        self.hier = hier
        self.seen = {}

    def warm_up(self) -> List[Outcome]:
        outcomes = self.step(0).outcomes
        self.close()
        return outcomes

    def step(self, i: int) -> Step:
        ordinal = i % self.cycle
        e, b = divmod(ordinal, self.BATCHES)
        last = b == self.BATCHES - 1
        with self.span("unit", ordinal):
            t0 = _clock()
            if b == 0:
                self._setup(e)
            hier = self.hier
            if hier is None:
                raise RuntimeError("batches run in order from batch 0")
            batch = self.batches[b]
            tb = _clock()
            hier.run_batch(batch)
            batch_wall = _clock() - tb
            snap = {
                "stats": hier.stats.as_dict(),
                "mem_cycles": sum(hier.mem_cycles),
                "energy_j": hier.energy_j,
                "flit_hops": hier.noc_flit_hops(),
            }
            if last:
                hier.finish()
            wall = _clock() - t0
        stats = snap["stats"]
        violations = _cache_violations(stats)
        if last:
            snap["summary"] = hier.summary()
            for level, caches in (("l1", hier.l1), ("l2", hier.l2)):
                own = sum(c.stats.get("hits") + c.stats.get("misses") for c in caches)
                seen = stats.get(f"{level}_hits", 0.0) + stats.get(f"{level}_misses", 0.0)
                if own != seen:
                    violations.append(f"{level} caches count {own!r} != {seen!r}")
        now = {k: stats.get(k, 0.0) for k in self.MODELLED}
        now["flit_hops"] = snap["flit_hops"]
        model = {k: v - self.seen.get(k, 0.0) for k, v in now.items()}
        self.seen = now
        if last:
            self.close()
        return Step(
            wall_s=wall,
            items=len(batch),
            samples=[(ordinal, batch_wall / len(batch) * 1e6)],
            outcomes=[self.judge(ordinal, snap, violations, batch_wall)],
            model=model,
        )

    def close(self) -> None:
        self.hier = None
        self.batches = []


WORKLOADS = ("dag_build_run", "stream_window", "campaign_sweep", "nas_memory")


def make(
    name: str,
    seed: int,
    golden: Optional[Sequence[str]],
    work_dir: str,
    workers: int,
    baseline: str,
) -> Workload:
    """Build a workload's input spec from its seed."""
    if name == "dag_build_run":
        return DagBuildRun(seed, golden)
    if name == "stream_window":
        return StreamWindow(seed, golden)
    if name == "campaign_sweep":
        return CampaignSweep(seed, golden, work_dir, workers, baseline)
    if name == "nas_memory":
        return NasMemory(seed, golden)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
