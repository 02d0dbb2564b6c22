"""Hardware support for TDG construction (the task-superscalar agenda).

The paper: *"the runtime drives the design of new architecture components
to support activities like the construction of the TDG [9]"* — reference
[9] being Etsion et al.'s *Task Superscalar* out-of-order task pipeline
(the line of work that became the Picos hardware task manager).

The bottleneck it attacks: dependence registration is serial work on the
master thread.  Every submitted task costs a base overhead plus a per-
dependence cost (hashing the region, walking the access history).  At
coarse task granularity this is noise; as tasks shrink, the master thread
cannot feed the machine and cores starve — which caps how fine-grained
task parallelism can get, and fine granularity is exactly what large
manycores need.

:class:`SoftwareSubmission` models the Nanos-style software path
(microseconds per task); :class:`HardwareSubmission` the task-superscalar
unit (tens of nanoseconds, pipelined).  :func:`granularity_sweep` runs
the same total work at decreasing task grain under both and reports the
efficiency cliff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

__all__ = [
    "SubmissionModel",
    "SoftwareSubmission",
    "IndexedSoftwareSubmission",
    "HardwareSubmission",
    "granularity_sweep",
]


@dataclass(frozen=True)
class SubmissionModel:
    """Cost of registering one task's dependences on the master thread.

    ``register_seconds = base_s + per_dep_s * n_deps
    [+ per_match_s * k] [+ per_edge_s * e]``.

    The optional ``per_match_s`` term mirrors the software tracker's real
    work profile: with an interval-indexed access history, registration
    costs O(log n) per declared dependence plus O(k) in the k earlier
    accesses it overlaps — exactly the matches a hardware task-superscalar
    unit resolves in its dependence-matching pipeline.  The optional
    ``per_edge_s`` term prices TDG *edge insertion* separately: the new
    edges a registration actually produced (the rise in the graph's
    edge count), which is the adjacency-update traffic a hardware task
    manager's dependence table absorbs.  The runtime feeds the tracker's
    measured match count and the graph's measured edge count per
    registration; the defaults of 0.0 keep the classic flat-cost model
    bit-for-bit unchanged.
    """

    base_s: float
    per_dep_s: float
    name: str = "submission"
    per_match_s: float = 0.0
    per_edge_s: float = 0.0

    def register_seconds(
        self, n_deps: int, n_matches: int = 0, n_edges: int = 0
    ) -> float:
        cost = self.base_s + self.per_dep_s * n_deps
        if self.per_match_s and n_matches:
            cost += self.per_match_s * n_matches
        if self.per_edge_s and n_edges:
            cost += self.per_edge_s * n_edges
        return cost


def SoftwareSubmission() -> SubmissionModel:
    """Nanos++-class software dependence registration.

    ~1 us per task plus ~0.4 us per dependence: hash lookups, lock
    acquisitions and allocator traffic on a contemporary core.
    """
    return SubmissionModel(base_s=1.0e-6, per_dep_s=0.4e-6, name="software")


def IndexedSoftwareSubmission() -> SubmissionModel:
    """Software registration with an interval-indexed access history.

    The per-dependence constant drops (no linear history walk — a bisect
    into the sorted interval index) but each *matched* overlapping access
    still costs real work: following the history entry, deduplicating the
    writer, emitting the edge.  Mirrors the measured profile of
    :class:`repro.core.deps.DependenceTracker`.
    """
    return SubmissionModel(
        base_s=1.0e-6, per_dep_s=0.15e-6, per_match_s=0.1e-6,
        name="software-indexed",
    )


def HardwareSubmission() -> SubmissionModel:
    """Task-superscalar / Picos-class hardware task management.

    The master only writes a task descriptor to the unit (~60 ns); the
    dependence matching itself is pipelined in hardware off the master's
    critical path.
    """
    return SubmissionModel(base_s=60e-9, per_dep_s=15e-9, name="hardware")


def granularity_sweep(
    total_work_cycles: float = 64e9,
    grains: Sequence[int] = (64, 256, 1024, 4096, 16384),
    n_cores: int = 16,
    deps_per_task: int = 2,
) -> Dict[str, Dict[int, float]]:
    """Same total work, split ever finer; software vs hardware submission.

    Returns ``{model: {n_tasks: parallel_efficiency}}`` where efficiency is
    ideal makespan over measured makespan.  Three curves: the classic
    flat-cost software path collapses once per-task work approaches the
    registration cost; the interval-indexed software path
    (:func:`IndexedSoftwareSubmission`, priced per real tracker match via
    ``per_match_s``) pushes the cliff roughly one grain size finer but
    still serialises on the master; the hardware path sustains
    orders-of-magnitude finer grains — the case for building TDG support
    into the architecture.
    """
    from ..core.runtime import Runtime
    from ..core.task import Task
    from .machine import Machine

    out: Dict[str, Dict[int, float]] = {}
    for model in (
        SoftwareSubmission(),
        IndexedSoftwareSubmission(),
        HardwareSubmission(),
    ):
        curve: Dict[int, float] = {}
        for n_tasks in grains:
            machine = Machine(n_cores, initial_level=2)
            rt = Runtime(machine, submission=model, record_trace=False)
            cycles = total_work_cycles / n_tasks
            for i in range(n_tasks):
                # A couple of region accesses per task, as real task-based
                # kernels have; disjoint blocks keep the graph parallel.
                rt.submit(
                    Task.make(
                        f"t{i}",
                        cpu_cycles=cycles,
                        in_=[("in", i, i + 1)] * (deps_per_task - 1),
                        out=[("out", i, i + 1)],
                    )
                )
            res = rt.run()
            freq = machine.cores[0].frequency_hz
            ideal = total_work_cycles / freq / n_cores
            curve[n_tasks] = ideal / res.makespan
        out[model.name] = curve
    return out
