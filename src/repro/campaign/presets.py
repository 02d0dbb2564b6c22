"""Named scenario matrices — one preset per paper figure or sweep.

Presets are factories so that a campaign never shares mutable state with
another; ``build_preset(name)`` returns a fresh :class:`~.matrix.Matrix`.
``python -m repro.campaign list-presets`` prints this registry.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from .matrix import Matrix, Scenario

__all__ = ["PRESETS", "build_preset", "preset_names"]

#: All seven scheduler policies, in a fixed comparison order.
ALL_SCHEDULERS: Tuple[str, ...] = (
    "fifo",
    "lifo",
    "breadth_first",
    "bottom_level",
    "work_stealing",
    "cats",
    "static",
)

#: The five synthetic DAG families of repro.apps.dag_workloads.
DAG_FAMILIES: Tuple[str, ...] = (
    "layered",
    "cholesky",
    "lu",
    "fork_join",
    "pipeline",
)


def _smoke() -> Matrix:
    """Tiny CI matrix: every scheduler × three DAG families, scale 1."""
    return Matrix.product(
        "smoke",
        families=("layered", "cholesky", "fork_join"),
        schedulers=ALL_SCHEDULERS,
        core_counts=(8,),
        scales=(1,),
        seeds=(1,),
    )


def _scheduler_matrix() -> Matrix:
    """The full comparison the ROADMAP asks for: seven schedulers meet
    five DAG families, at two graph scales, on a 16-core machine."""
    return Matrix.product(
        "scheduler_matrix",
        families=DAG_FAMILIES,
        schedulers=ALL_SCHEDULERS,
        core_counts=(16,),
        scales=(1, 2),
        seeds=(1,),
    )


#: Skewed, costlier per-family parameterisations for the RSU comparison:
#: heavier tasks (``wl_cost_mult``), lower memory ratios (DVFS-sensitive)
#: and harsher imbalance (``wl_jitter`` / ``wl_stage_skew``), so that
#: scheduler choice and RSU boosting actually separate the makespans —
#: at the stock smoke-scale settings most schedulers tie.
RSU_COMPARISON_KNOBS: Dict[str, Dict[str, float]] = {
    "layered": {"wl_cost_mult": 4.0, "wl_jitter": 1.2, "wl_mem_ratio": 0.05},
    "cholesky": {"wl_cost_mult": 8.0, "wl_mem_ratio": 0.1},
    "lu": {"wl_cost_mult": 8.0, "wl_mem_ratio": 0.1},
    "fork_join": {"wl_cost_mult": 4.0, "wl_jitter": 1.5, "wl_mem_ratio": 0.05},
    "pipeline": {"wl_cost_mult": 4.0, "wl_stage_skew": 2.0, "wl_mem_ratio": 0.05},
}


def _rsu_comparison() -> Matrix:
    """RSU criticality boosting meets scheduling policy, jointly: every
    scheduler × static frequency vs oracle-marked vs online-heuristic
    criticality, on skewed/costlier DAG-family parameterisations whose
    per-scenario makespans genuinely diverge, so the comparison separates
    the schedulers instead of tying them.

    8 cores at graph scale 2 keeps the machine narrower than the ready
    sets, so queue order matters: 14 of the 15 family × RSU rows show
    several distinct makespans across the seven schedulers (the one tie,
    ``pipeline`` at static frequency, is structural — its parallelism
    never exceeds its 4 stages, so any work-conserving order is optimal).
    """
    scenarios: List[Scenario] = []
    for family in DAG_FAMILIES:
        params = tuple(sorted(RSU_COMPARISON_KNOBS[family].items()))
        for scheduler in ALL_SCHEDULERS:
            for rsu in ("off", "oracle", "heuristic"):
                scenarios.append(
                    Scenario(
                        family,
                        scheduler=scheduler,
                        rsu=rsu,
                        n_cores=8,
                        scale=2,
                        seed=1,
                        params=params,
                    )
                )
    return Matrix("rsu_comparison", tuple(scenarios))


def _fig2_rsu() -> Matrix:
    """Section 3.1 headline: static scheduling vs criticality-aware DVFS
    on the chain+fillers workload, 32 cores."""
    return Matrix(
        "fig2_rsu",
        (
            Scenario("chain", scheduler="fifo", rsu="off", n_cores=32),
            Scenario("chain", scheduler="cats", rsu="annotated", n_cores=32),
        ),
    )


def _fig2_overhead(
    core_counts: Sequence[int] = (4, 8, 16, 32, 64)
) -> Matrix:
    """Figure 2 motivation: software-DVFS vs RSU reconfiguration stalls
    as the core count grows (12 fillers per core, short tasks)."""
    params = (
        ("chain_len", 4),
        ("fillers_per_core", 12),
        ("filler_cycles", 2e8),
    )
    scenarios: List[Scenario] = []
    for mode in ("annotated-software", "annotated"):
        for n in core_counts:
            scenarios.append(
                Scenario(
                    "chain",
                    scheduler="cats",
                    rsu=mode,
                    n_cores=n,
                    params=params,
                )
            )
    return Matrix("fig2_overhead", tuple(scenarios))


def _fig5_parsec(
    apps: Sequence[str] = ("bodytrack", "facesim"),
    threads: Sequence[int] = (1, 2, 4, 8, 12, 16),
) -> Matrix:
    """Figure 5: OmpSs vs Pthreads scalability for bodytrack/facesim.

    ``apps`` may name any model of ``repro.apps.parsec.PARSEC_APPS``;
    the fold needs 1 among ``threads`` (its speedup base)."""
    scenarios: List[Scenario] = []
    for app in apps:
        for variant in ("pthreads", "ompss"):
            for n in threads:
                scenarios.append(
                    Scenario(
                        f"parsec:{app}:{variant}",
                        scheduler="work_stealing",
                        n_cores=n,
                    )
                )
    return Matrix("fig5_parsec", tuple(scenarios))


#: NAS benchmarks of the Figure 1 hybrid-memory experiment.
NAS_BENCHES: Tuple[str, ...] = ("CG", "EP", "FT", "IS", "MG", "SP")


def _fig1_hybrid(
    n_cores: int = 64, accesses_per_core: int = 1200
) -> Matrix:
    """Figure 1: the six NAS access-mix models on a cache-only vs hybrid
    SPM+cache hierarchy — the first out-of-engine figure behind the
    campaign store (:func:`~.figures.fig1_speedups` folds its bars)."""
    scenarios: List[Scenario] = []
    for bench in NAS_BENCHES:
        for mode in ("cache", "hybrid"):
            scenarios.append(
                Scenario(
                    f"nas:{bench}",
                    scheduler="fifo",  # unused: no task runtime involved
                    n_cores=n_cores,
                    seed=0,
                    params=(
                        ("mode", mode),
                        ("accesses_per_core", accesses_per_core),
                    ),
                )
            )
    return Matrix("fig1_hybrid", tuple(scenarios))


#: Fig-4 recovery mechanisms, in the figure's legend order.  ``ideal``
#: runs fault-free, so fault-axis knobs are stripped from its scenarios
#: (one reference row per (grid, seed) instead of one per fault combo).
FIG4_SCHEME_AXIS: Tuple[str, ...] = (
    "ideal",
    "checkpoint",
    "lossy_restart",
    "feir",
    "afeir",
)

#: Fault-axis keys that an ideal (fault-free) scenario must not carry.
_FIG4_FAULT_KEYS = frozenset(
    (
        "fault_time",
        "fault_window",
        "fault_rate",
        "fault_distribution",
        "fault_seed",
        "n_faults",
        "block_start",
        "block_len",
        "ckpt_interval",
    )
)


def _fig4_scenarios(
    schemes: Sequence[str],
    seeds: Sequence[int],
    fault_axis: Sequence[Dict[str, Any]],
    n_cores: int = 2,
    **base: Any,
) -> List[Scenario]:
    """Cross schemes × seeds × fault combos into ``fig4:<scheme>`` rows.

    ``base`` params (grid, tol, ...) apply to every scenario; each
    ``fault_axis`` entry is one fault configuration (n_faults,
    fault_time, ckpt_interval, ...).  Ideal rows drop the fault keys —
    their records are the per-(grid, seed) reference curves, and the
    content-hash dedup in :class:`~.matrix.Matrix` collapses what would
    otherwise be one identical ideal run per fault combo.
    """
    scenarios: List[Scenario] = []
    for seed in seeds:
        for combo in fault_axis:
            for scheme in schemes:
                params = dict(base)
                params.update(combo)
                if scheme == "ideal":
                    params = {
                        k: v
                        for k, v in params.items()
                        if k not in _FIG4_FAULT_KEYS
                    }
                elif scheme != "checkpoint":
                    # The interval axis only exists for the checkpoint
                    # scheme; leaving it on the others would mint
                    # distinct ids for identical simulations.
                    params.pop("ckpt_interval", None)
                scenarios.append(
                    Scenario(
                        f"fig4:{scheme}",
                        scheduler="fifo",  # unused: no task runtime involved
                        n_cores=n_cores,  # AFEIR recovery-overlap cores
                        seed=seed,
                        params=tuple(sorted(params.items())),
                    )
                )
    return scenarios


def _fig4_resilience() -> Matrix:
    """Figure 4 behind the store: scheme × checkpoint interval × fault
    count × fault time × matrix size × seed.  The single-fault rows at
    ``fault_window=0`` reproduce the paper's hand-placed DUE exactly;
    the multi-fault rows draw seeded plans over a 15 s window."""
    scenarios: List[Scenario] = []
    for grid, block_len, fault_times in (
        (32, 64, (5.0, 12.0)),
        (48, 128, (10.0, 25.0)),
    ):
        fault_axis: List[Dict[str, Any]] = []
        for fault_time in fault_times:
            for n_faults, window in ((1, 0.0), (3, 15.0)):
                for interval in (120, 250):
                    fault_axis.append(
                        {
                            "fault_time": fault_time,
                            "n_faults": n_faults,
                            "fault_window": window,
                            "ckpt_interval": interval,
                            "block_len": block_len,
                            "block_start": grid * grid // 2,
                        }
                    )
        scenarios.extend(
            _fig4_scenarios(
                FIG4_SCHEME_AXIS, seeds=(0,), fault_axis=fault_axis,
                grid=grid,
            )
        )
    return Matrix("fig4_resilience", tuple(scenarios))


def _resilience_sweep() -> Matrix:
    """Wide fault-injection sweep: fault count *and* Poisson fault rate
    × time distribution × seeds, all four protected schemes + the ideal
    reference per (grid, seed)."""
    fault_axis: List[Dict[str, Any]] = []
    for n_faults in (1, 2, 4):
        for distribution in ("uniform", "spaced"):
            fault_axis.append(
                {
                    "fault_time": 6.0,
                    "fault_window": 24.0,
                    "n_faults": n_faults,
                    "fault_distribution": distribution,
                    "ckpt_interval": 120,
                    "block_len": 64,
                }
            )
    for rate in (0.05, 0.15):
        fault_axis.append(
            {
                "fault_time": 6.0,
                "fault_window": 24.0,
                "fault_rate": rate,
                "ckpt_interval": 120,
                "block_len": 64,
            }
        )
    return Matrix(
        "resilience_sweep",
        tuple(
            _fig4_scenarios(
                FIG4_SCHEME_AXIS,
                seeds=(0, 1, 2),
                fault_axis=fault_axis,
                grid=32,
            )
        ),
    )


def _fig4_smoke() -> Matrix:
    """Tiny CI matrix: all five mechanisms through a 2-DUE plan on a
    24x24 proxy — fast enough for every commit, wide enough that a
    recovery regression (NaN leak, broken rollback) turns a record red."""
    fault_axis = (
        {
            "fault_time": 3.0,
            "fault_window": 6.0,
            "n_faults": 2,
            "ckpt_interval": 60,
            "block_len": 48,
        },
    )
    return Matrix(
        "fig4_smoke",
        tuple(
            _fig4_scenarios(
                FIG4_SCHEME_AXIS, seeds=(0,), fault_axis=fault_axis, grid=24,
            )
        ),
    )


#: Runtime recovery policies, in fixed comparison order.
RUNTIME_RECOVERY_AXIS: Tuple[str, ...] = (
    "reexec",
    "reexec-elsewhere",
    "task-checkpoint",
)

#: Fault configurations of the runtime sweep.  The window (seconds of
#: *simulated* time from t=0) is calibrated to the scale-1 makespans of
#: the base families (~0.003–0.023 s at 8 cores), so count rows land
#: their faults inside most runs; rate rows draw a Poisson process at
#: ~4 expected arrivals over the window.  The empty row is the
#: zero-fault control — bit-identical to the fault-free base family.
_RUNTIME_FAULT_AXIS: Tuple[Dict[str, Any], ...] = (
    {},
    {"fault_count": 3, "fault_window": 0.01},
    {"fault_rate": 400.0, "fault_window": 0.01},
    {"fault_count": 1, "fault_window": 0.01, "core_kill_p": 1.0},
)


def _runtime_faults_sweep() -> Matrix:
    """The runtime-fault axis behind the store: recovery policy × all
    seven schedulers × three DAG families × fault configuration (zero /
    task-kill count / Poisson rate / core-kill), 8 cores at scale 1.

    Every record is bit-identical across worker counts, shards and
    resume like any other family; rows where a kill strands work a
    scheduler cannot re-route (e.g. core-kill under ``static``) produce
    *deterministic* error records rather than silent hangs.
    """
    scenarios: List[Scenario] = []
    for policy in RUNTIME_RECOVERY_AXIS:
        for family in ("layered", "cholesky", "fork_join"):
            for scheduler in ALL_SCHEDULERS:
                for combo in _RUNTIME_FAULT_AXIS:
                    params = dict(combo)
                    params["base_family"] = family
                    scenarios.append(
                        Scenario(
                            f"faulty:{policy}",
                            scheduler=scheduler,
                            n_cores=8,
                            scale=1,
                            seed=1,
                            params=tuple(sorted(params.items())),
                        )
                    )
    return Matrix("runtime_faults_sweep", tuple(scenarios))


#: name -> (description, factory)
PRESETS: Dict[str, Tuple[str, Callable[[], Matrix]]] = {
    "smoke": (
        "CI smoke: 7 schedulers x 3 DAG families, 8 cores, scale 1",
        _smoke,
    ),
    "scheduler_matrix": (
        "7 schedulers x 5 DAG families x scales (1,2), 16 cores",
        _scheduler_matrix,
    ),
    "rsu_comparison": (
        "7 schedulers x RSU off/oracle/heuristic x 5 skewed DAG families",
        _rsu_comparison,
    ),
    "fig1_hybrid": (
        "Fig 1: NAS benchmarks, cache-only vs hybrid SPM memory, 64 cores",
        _fig1_hybrid,
    ),
    "fig2_rsu": (
        "Sec 3.1: static vs criticality-aware DVFS, 32 cores",
        _fig2_rsu,
    ),
    "fig2_overhead": (
        "Fig 2 motivation: software vs RSU DVFS stalls, 4..64 cores",
        _fig2_overhead,
    ),
    "fig4_resilience": (
        "Fig 4: CG recovery schemes x ckpt interval x fault axis x grid",
        _fig4_resilience,
    ),
    "fig4_smoke": (
        "CI smoke: 5 recovery mechanisms, 2-DUE plan, 24x24 proxy",
        _fig4_smoke,
    ),
    "resilience_sweep": (
        "wide fault axis: count/rate x distribution x 4 schemes x 3 seeds",
        _resilience_sweep,
    ),
    "runtime_faults_sweep": (
        "runtime faults: 3 recovery policies x 7 schedulers x 3 DAG "
        "families x fault axis (zero/count/rate/core-kill)",
        _runtime_faults_sweep,
    ),
    "fig5_parsec": (
        "Fig 5: PARSEC pthreads vs OmpSs speedup, 1..16 threads",
        _fig5_parsec,
    ),
}


def preset_names() -> List[str]:
    return list(PRESETS)


def build_preset(name: str, **kwargs: Any) -> Matrix:
    """Instantiate a preset matrix by name (kwargs go to the factory)."""
    try:
        _, factory = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {preset_names()}"
        ) from None
    return factory(**kwargs)
