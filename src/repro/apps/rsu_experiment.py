"""Section 3.1 experiments: task criticality + RSU-driven DVFS.

Two results are reproduced here:

1. **Criticality-aware DVFS vs static scheduling** (the 6.6% performance /
   20.0% EDP improvements on a simulated 32-core processor).  The workload
   is the canonical criticality shape — a long dependence chain (the
   critical path) amid a sea of short independent tasks.  The static
   baseline runs every core at the nominal operating point; the
   criticality-aware configuration lets the RSU boost cores running
   critical tasks and sink non-critical ones to an efficient point, under
   the same chip power budget.

2. **Software-DVFS vs RSU reconfiguration overhead** (Figure 2's
   motivation: *"the cost of reconfiguring the hardware with a
   software-only solution rises with the number of cores due to locks
   contention and reconfiguration overhead"*).  The same workload is run
   at increasing core counts with the policy fixed and only the
   *mechanism* changed; the overhead is the cumulative stall time cores
   spend waiting for their frequency change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.criticality import AnnotatedCriticality
from ..core.runtime import Runtime
from ..core.schedulers import CriticalityAwareScheduler, FifoScheduler
from ..core.task import Task
from ..sim.dvfs import DvfsController, RsuDvfsController, SoftwareDvfsController
from ..sim.machine import Machine
from ..sim.power import DvfsTable
from ..sim.rsu import RsuPolicy, RuntimeSupportUnit
from .kernels import critical_chain_with_fillers

__all__ = [
    "CriticalityWorkload",
    "Fig2Result",
    "SECTION31_DVFS_TABLE",
    "make_section31_machine",
    "run_static",
    "run_criticality_aware",
    "fig2_experiment",
    "reconfiguration_overhead_sweep",
]


@dataclass(frozen=True)
class CriticalityWorkload:
    """The chain+fillers workload of the Section 3.1 evaluation.

    Calibrated so that CATS scheduling + RSU boosting on the 32-core
    machine reproduces the paper's 6.6% performance / 20.0% EDP bands
    against the static baseline (with the scheduler axis actually
    active; the pre-fix calibration of 620 fillers dated from when a
    falsy-scheduler bug silently ran FIFO everywhere)."""

    chain_len: int = 8
    n_fillers: int = 2000
    chain_cycles: float = 4e9
    filler_cycles: float = 1e9
    jitter: float = 0.3
    seed: int = 0


#: V/f table of the simulated 32-core part: the usable voltage range of a
#: server-class 2015 part is narrower than the architectural minimum, which
#: bounds how much energy down-clocking non-critical tasks can save.
#: Exported: the campaign engine builds its RSU-enabled machines from this
#: exact table so campaign records reproduce the figure numbers bit for bit.
SECTION31_DVFS_TABLE = DvfsTable.linear(
    5, f_min_ghz=1.0, f_max_ghz=3.0, v_min=0.85, v_max=1.2
)
_TABLE = SECTION31_DVFS_TABLE


def make_section31_machine(
    n_cores: int, budget_factor: Optional[float]
) -> Machine:
    """The Section 3.1 chip: narrow-voltage table, nominal 2.0 GHz, and —
    when ``budget_factor`` is given — a chip power budget of
    ``budget_factor × n_cores × nominal busy power``."""
    m = Machine(n_cores, dvfs=_TABLE, initial_level=2)  # nominal 2.0 GHz
    if budget_factor is not None:
        nominal = m.dvfs[2]
        m.power_budget_w = (
            budget_factor * n_cores * m.power_model.busy_power(nominal)
        )
    return m


def _tasks(wl: CriticalityWorkload) -> List[Task]:
    return critical_chain_with_fillers(
        wl.chain_len,
        wl.n_fillers,
        wl.chain_cycles,
        wl.filler_cycles,
        wl.jitter,
        wl.seed,
    )


def run_static(wl: CriticalityWorkload, n_cores: int = 32):
    """Baseline: static scheduling, every core at the nominal point."""
    machine = make_section31_machine(n_cores, budget_factor=None)
    rt = Runtime(machine, scheduler=FifoScheduler(), record_trace=False)
    rt.submit_all(_tasks(wl))
    return rt.run()


def run_criticality_aware(
    wl: CriticalityWorkload,
    n_cores: int = 32,
    controller_cls=RsuDvfsController,
    efficient_level: int = 1,
    budget_factor: float = 1.0,
):
    """CATS scheduling + RSU frequency allocation under the power budget."""
    machine = make_section31_machine(n_cores, budget_factor)
    controller = controller_cls(machine)
    rsu = RuntimeSupportUnit(
        machine,
        controller,
        RsuPolicy(efficient_level=efficient_level, respect_budget=True),
    )
    rt = Runtime(
        machine,
        scheduler=CriticalityAwareScheduler(),
        # Section 3.1: "task criticality can be simply annotated by the
        # programmer"; the chain generator labels its tasks "critical".
        criticality=AnnotatedCriticality({"critical": True}),
        rsu=rsu,
        record_trace=False,
    )
    rt.submit_all(_tasks(wl))
    return rt.run()


@dataclass(frozen=True)
class Fig2Result:
    """Summary of the static vs criticality-aware comparison."""

    static_makespan: float
    aware_makespan: float
    static_edp: float
    aware_edp: float

    @property
    def performance_improvement(self) -> float:
        """Fractional speedup (paper: 0.066)."""
        return self.static_makespan / self.aware_makespan - 1.0

    @property
    def edp_improvement(self) -> float:
        """Fractional EDP reduction (paper: 0.200)."""
        return 1.0 - self.aware_edp / self.static_edp


def fig2_experiment(
    wl: Optional[CriticalityWorkload] = None, n_cores: int = 32
) -> Fig2Result:
    wl = wl if wl is not None else CriticalityWorkload()
    static = run_static(wl, n_cores)
    aware = run_criticality_aware(wl, n_cores)
    return Fig2Result(
        static_makespan=static.makespan,
        aware_makespan=aware.makespan,
        static_edp=static.edp,
        aware_edp=aware.edp,
    )


def reconfiguration_overhead_sweep(
    core_counts: Sequence[int] = (4, 8, 16, 32, 64),
    tasks_per_core: int = 12,
) -> Dict[str, Dict[int, float]]:
    """Cumulative DVFS stall seconds: software path vs RSU, per core count.

    Every task triggers one frequency request (criticality-aware runtimes
    reconfigure at task granularity), so the software path's global lock
    sees contention proportional to the core count.
    """
    out: Dict[str, Dict[int, float]] = {"software": {}, "rsu": {}}
    for name, ctl in (("software", SoftwareDvfsController),
                      ("rsu", RsuDvfsController)):
        for n in core_counts:
            wl = CriticalityWorkload(
                chain_len=4, n_fillers=n * tasks_per_core, filler_cycles=2e8
            )
            res = run_criticality_aware(wl, n, controller_cls=ctl)
            out[name][n] = res.stats.get("dvfs_stall_seconds")
    return out
