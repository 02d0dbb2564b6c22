"""PARSEC application models: Pthreads vs OmpSs scalability (Figure 5).

Section 5 ports 10 of 13 PARSEC applications to OmpSs and compares
scalability against the native Pthreads versions on a 16-core machine;
Figure 5 shows ``bodytrack`` and ``facesim``, which improve to scaling
factors of ~12x and ~10x at 16 cores.

We model each application's published phase structure as a task graph and
execute both programming-model variants on the simulated machine:

* **Pthreads variant** — the original structure: the main thread performs
  the serial stages (frame I/O, particle resampling / global mesh update)
  inline, parallel phases are split into exactly ``n_threads`` chunks and
  closed by a barrier, so per-chunk load imbalance is lost time and the
  serial stages never overlap anything.
* **OmpSs variant** — the port described in the paper: serial I/O-heavy
  stages become asynchronous tasks that dataflow lets run ahead
  (*"executing asynchronously I/O intensive sequential stages and
  overlapping them with computation intensive parallel regions"*),
  parallel phases are decomposed into more, finer tasks (better balance),
  and barriers disappear in favour of region dependences.

The costs below are calibrated to the published PARSEC phase breakdowns
(serial fractions of a few percent; bodytrack's per-frame I/O is what
limits its native scaling; facesim has heavier serial mesh phases).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..core.runtime import Runtime
from ..core.schedulers import WorkStealingScheduler
from ..core.task import Task
from ..sim.machine import Machine

__all__ = [
    "ParsecAppModel",
    "PARSEC_APPS",
    "build_pthreads",
    "build_ompss",
    "run_app",
    "fig5_scalability",
]


@dataclass(frozen=True)
class ParsecAppModel:
    """Phase-structure description of one PARSEC application.

    All costs are in seconds of single-core work per frame.
    """

    name: str
    frames: int = 10
    io_seconds: float = 0.05  # serial input stage per frame
    work_seconds: float = 1.0  # parallelisable work per frame
    serial_seconds: float = 0.02  # unavoidable serial stage per frame
    phases: int = 1  # parallel phases (barriers) per frame
    imbalance: float = 0.2  # peak-to-mean chunk imbalance, Pthreads
    ompss_chunks_per_core: int = 4  # decomposition factor of the port
    seed: int = 0


PARSEC_APPS: Dict[str, ParsecAppModel] = {
    # bodytrack: per-frame image I/O + particle-filter phases; the OmpSs
    # port overlaps the I/O stage with tracking computation.
    "bodytrack": ParsecAppModel(
        name="bodytrack", frames=10, io_seconds=0.055, work_seconds=1.0,
        serial_seconds=0.010, phases=2, imbalance=0.30,
    ),
    # facesim: one big frame loop, several parallel mesh phases separated
    # by serial global updates; heavier serial share than bodytrack.
    "facesim": ParsecAppModel(
        name="facesim", frames=8, io_seconds=0.05, work_seconds=1.2,
        serial_seconds=0.032, phases=3, imbalance=0.5,
    ),
    # two further pipeline-parallel applications from the ported set, for
    # the examples and the extended sweep (not in Figure 5 itself).
    "ferret": ParsecAppModel(
        name="ferret", frames=24, io_seconds=0.03, work_seconds=0.4,
        serial_seconds=0.01, phases=4, imbalance=0.35,
    ),
    "streamcluster": ParsecAppModel(
        name="streamcluster", frames=12, io_seconds=0.01, work_seconds=0.8,
        serial_seconds=0.03, phases=2, imbalance=0.15,
    ),
}


def _chunk_costs(
    total: float, n_chunks: int, imbalance: float, rng: np.random.Generator
) -> np.ndarray:
    """Split ``total`` seconds into jittered chunk costs (mean preserved)."""
    jitter = 1.0 + imbalance * (rng.random(n_chunks) - 0.5) * 2.0
    jitter = np.clip(jitter, 0.1, None)
    costs = total * jitter / jitter.sum()
    return costs


def build_pthreads(model: ParsecAppModel, n_threads: int) -> List[Task]:
    """The native-structure task graph, in submission order.

    The main thread's serial operations (I/O, serial stages) all carry an
    ``inout`` dependence on the ``main`` region, which serialises them in
    program order exactly as a single master thread would execute them;
    barrier semantics come from whole-region reads of each phase's output.
    """
    rng = np.random.default_rng(model.seed)
    tasks: List[Task] = []
    for f in range(model.frames):
        tasks.append(
            Task.make(
                f"{model.name}.io.{f}",
                cpu_cycles=0.0,
                mem_seconds=model.io_seconds,
                inout=["main"],
                out=[f"frame{f}"],
            )
        )
        for ph in range(model.phases):
            costs = _chunk_costs(
                model.work_seconds / model.phases, n_threads,
                model.imbalance, rng,
            )
            for c, cost in enumerate(costs):
                tasks.append(
                    Task.make(
                        f"{model.name}.f{f}.p{ph}.chunk{c}",
                        cpu_cycles=0.0,
                        mem_seconds=float(cost),
                        in_=[f"frame{f}" if ph == 0 else f"phase{f}.{ph - 1}"],
                        out=[(f"phase{f}.{ph}", c, c + 1)],
                    )
                )
            # Barrier + serial stage: the main thread reads the whole
            # phase output before anything else proceeds.
            tasks.append(
                Task.make(
                    f"{model.name}.serial.{f}.{ph}",
                    cpu_cycles=0.0,
                    mem_seconds=model.serial_seconds / model.phases,
                    in_=[f"phase{f}.{ph}"],
                    inout=["main"],
                    out=[f"phase{f}.{ph}.done"],
                )
            )
    return tasks


def build_ompss(model: ParsecAppModel, n_cores: int) -> List[Task]:
    """The OmpSs-port task graph, in submission order.

    I/O tasks only depend on the I/O stream (they run ahead of the
    computation), parallel phases are decomposed into
    ``ompss_chunks_per_core * n_cores`` finer tasks, and the per-frame
    serial stage depends on its frame's data only — so frame f+1's chunks
    can start while frame f's serial stage still runs.
    """
    rng = np.random.default_rng(model.seed)
    tasks: List[Task] = []
    for f in range(model.frames):
        tasks.append(
            Task.make(
                f"{model.name}.io.{f}",
                cpu_cycles=0.0,
                mem_seconds=model.io_seconds,
                inout=["io_stream"],
                out=[f"frame{f}"],
            )
        )
        n_chunks = max(1, model.ompss_chunks_per_core * n_cores)
        for ph in range(model.phases):
            costs = _chunk_costs(
                model.work_seconds / model.phases, n_chunks,
                model.imbalance, rng,
            )
            deps = [f"frame{f}" if ph == 0 else f"phase{f}.{ph - 1}"]
            if ph == 0 and f > 0:
                deps.append(f"state{f - 1}")  # frame-to-frame algorithmic dep
            for c, cost in enumerate(costs):
                tasks.append(
                    Task.make(
                        f"{model.name}.f{f}.p{ph}.chunk{c}",
                        cpu_cycles=0.0,
                        mem_seconds=float(cost),
                        in_=deps,
                        out=[(f"phase{f}.{ph}", c, c + 1)],
                    )
                )
        tasks.append(
            Task.make(
                f"{model.name}.serial.{f}",
                cpu_cycles=0.0,
                mem_seconds=model.serial_seconds,
                in_=[f"phase{f}.{model.phases - 1}"],
                out=[f"state{f}"],
            )
        )
    return tasks


def run_app(app: str, variant: str, n_cores: int) -> float:
    """Execute one configuration; returns the makespan in seconds."""
    model = PARSEC_APPS[app]
    machine = Machine(n_cores)
    rt = Runtime(
        machine,
        scheduler=WorkStealingScheduler(n_cores),
        record_trace=False,
    )
    if variant == "pthreads":
        tasks = build_pthreads(model, n_cores)
    elif variant == "ompss":
        tasks = build_ompss(model, n_cores)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    rt.submit_all(tasks)
    return rt.run().makespan


def fig5_scalability(
    app: str,
    threads: Sequence[int] = (1, 2, 4, 8, 12, 16),
) -> Dict[str, Dict[int, float]]:
    """Figure 5 curves: speedup vs thread count for both variants.

    Speedup is against each variant's own single-thread execution, as in
    the paper's scalability plots.
    """
    out: Dict[str, Dict[int, float]] = {}
    for variant in ("pthreads", "ompss"):
        base = run_app(app, variant, 1)
        out[variant] = {n: base / run_app(app, variant, n) for n in threads}
    return out
