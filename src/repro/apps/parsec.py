"""PARSEC application models: Pthreads vs OmpSs scalability (Figure 5).

Section 5 ports 10 of 13 PARSEC applications to OmpSs and compares
scalability against the native Pthreads versions on a 16-core machine;
Figure 5 shows ``bodytrack`` and ``facesim``, which improve to scaling
factors of ~12x and ~10x at 16 cores.

We model each application's published phase structure as a task graph, in
both programming-model variants:

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
The ``fig5_parsec`` campaign preset runs both variants (family
``parsec:<app>:<variant>``, work-stealing scheduler), and
:func:`repro.campaign.figures.fig5_curves` folds their speedup curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..core.task import Dependence, DepKind, Region, Task

__all__ = [
    "ParsecAppModel",
    "PARSEC_APPS",
    "build_pthreads",
    "build_ompss",
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

    def __post_init__(self) -> None:
        # With no phase, the Pthreads build keeps only the I/O tasks and
        # the OmpSs build reads a phase output no task writes.
        if self.phases < 1:
            raise ValueError(f"phases must be >= 1, got {self.phases}")


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
    An access that several tasks declare is one ``Dependence`` they share
    (as in :mod:`repro.apps.dag_workloads`), and each task lists its
    accesses in the kind order IN, OUT, INOUT.
    """
    rng = np.random.default_rng(model.seed)
    main = Dependence(DepKind.INOUT, Region("main"))
    tasks: List[Task] = []
    for f in range(model.frames):
        frame = Region(f"frame{f}")
        tasks.append(Task(
            f"{model.name}.io.{f}", 0.0, model.io_seconds,
            [Dependence(DepKind.OUT, frame), main],
        ))
        read = Dependence(DepKind.IN, frame)
        for ph in range(model.phases):
            costs = _chunk_costs(
                model.work_seconds / model.phases, n_threads,
                model.imbalance, rng,
            )
            phase = f"phase{f}.{ph}"
            for c, cost in enumerate(costs.tolist()):
                tasks.append(Task(
                    f"{model.name}.f{f}.p{ph}.chunk{c}", 0.0, cost,
                    [read, Dependence(DepKind.OUT, Region(phase, c, c + 1))],
                ))
            # Barrier + serial stage: the main thread reads the whole
            # phase output before anything else proceeds.
            read = Dependence(DepKind.IN, Region(phase))
            tasks.append(Task(
                f"{model.name}.serial.{f}.{ph}", 0.0,
                model.serial_seconds / model.phases,
                [read, Dependence(DepKind.OUT, Region(f"{phase}.done")), main],
            ))
    return tasks


def build_ompss(model: ParsecAppModel, n_cores: int) -> List[Task]:
    """The OmpSs-port task graph, in submission order.

    I/O tasks only depend on the I/O stream (they run ahead of the
    computation), parallel phases are decomposed into
    ``ompss_chunks_per_core * n_cores`` finer tasks, and the per-frame
    serial stage depends on its frame's data only — so frame f+1's chunks
    can start while frame f's serial stage still runs.  Accesses are
    shared and ordered as in :func:`build_pthreads`.
    """
    rng = np.random.default_rng(model.seed)
    stream = Dependence(DepKind.INOUT, Region("io_stream"))
    n_chunks = max(1, model.ompss_chunks_per_core * n_cores)
    tasks: List[Task] = []
    prev_state: List[Dependence] = []
    for f in range(model.frames):
        frame = Region(f"frame{f}")
        tasks.append(Task(
            f"{model.name}.io.{f}", 0.0, model.io_seconds,
            [Dependence(DepKind.OUT, frame), stream],
        ))
        # Phase 0 also reads the previous frame's state (the
        # frame-to-frame algorithmic dependence).
        reads = [Dependence(DepKind.IN, frame), *prev_state]
        for ph in range(model.phases):
            costs = _chunk_costs(
                model.work_seconds / model.phases, n_chunks,
                model.imbalance, rng,
            )
            phase = f"phase{f}.{ph}"
            for c, cost in enumerate(costs.tolist()):
                tasks.append(Task(
                    f"{model.name}.f{f}.p{ph}.chunk{c}", 0.0, cost,
                    [*reads, Dependence(DepKind.OUT, Region(phase, c, c + 1))],
                ))
            reads = [Dependence(DepKind.IN, Region(phase))]
        state = Region(f"state{f}")
        tasks.append(Task(
            f"{model.name}.serial.{f}", 0.0, model.serial_seconds,
            [Dependence(DepKind.IN, Region(f"phase{f}.{model.phases - 1}")),
             Dependence(DepKind.OUT, state)],
        ))
        prev_state = [Dependence(DepKind.IN, state)]
    return tasks
