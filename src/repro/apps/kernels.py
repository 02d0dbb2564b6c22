"""Generic task-graph generators.

Reusable TDG shapes for tests, examples and the Section 3.1 experiments:
chains, fork-joins, reductions, 2-D wavefronts (the classic OmpSs demo)
and heterogeneous mixes; the stateful pipeline is
:func:`~repro.apps.dag_workloads.pipeline_grid`.  All generators return
plain task lists built through the region-based dependence API, so
submitting them to a :class:`~repro.core.Runtime` derives the intended
graph rather than hard-wiring edges.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.task import Dependence, DepKind, Region, Task
from .dag_workloads import _jitter_draws, _task_costs

_R = Region.interned

__all__ = [
    "chain",
    "independent",
    "fork_join",
    "reduction_tree",
    "wavefront",
    "critical_chain_with_fillers",
]


def chain(n: int, cpu_cycles: float = 1e6, label: str = "link") -> List[Task]:
    """A serial dependence chain of ``n`` tasks."""
    return [
        Task.make(f"{label}{i}", cpu_cycles=cpu_cycles, inout=[_R("chain_state")])
        for i in range(n)
    ]


def independent(n: int, cpu_cycles: float = 1e6, label: str = "work") -> List[Task]:
    """``n`` fully independent tasks (embarrassing parallelism)."""
    return [Task.make(f"{label}{i}", cpu_cycles=cpu_cycles) for i in range(n)]


def fork_join(
    width: int, depth: int = 1, cpu_cycles: float = 1e6
) -> List[Task]:
    """``depth`` rounds of: fork ``width`` tasks, join, repeat."""
    tasks: List[Task] = []
    for d in range(depth):
        for w in range(width):
            tasks.append(
                Task.make(
                    f"fork{d}.{w}",
                    cpu_cycles=cpu_cycles,
                    in_=[_R(f"round{d}")],
                    out=[_R(("partial", w, w + 1))],
                )
            )
        tasks.append(
            Task.make(
                f"join{d}",
                cpu_cycles=cpu_cycles / 4,
                in_=[_R("partial")],
                out=[_R(f"round{d + 1}")],
            )
        )
    return tasks


def reduction_tree(leaves: int, cpu_cycles: float = 1e6) -> List[Task]:
    """Binary reduction: ``leaves`` producers then pairwise combiners."""
    if leaves < 1:
        raise ValueError("need at least one leaf")
    tasks: List[Task] = []
    level = 0
    for i in range(leaves):
        tasks.append(
            Task.make(
                f"leaf{i}", cpu_cycles=cpu_cycles, out=[_R((f"lvl0", i, i + 1))]
            )
        )
    width = leaves
    while width > 1:
        next_width = (width + 1) // 2
        for i in range(next_width):
            lo, hi = 2 * i, min(2 * i + 2, width)
            tasks.append(
                Task.make(
                    f"combine{level}.{i}",
                    cpu_cycles=cpu_cycles / 2,
                    in_=[_R((f"lvl{level}", lo, hi))],
                    out=[_R((f"lvl{level + 1}", i, i + 1))],
                )
            )
        width = next_width
        level += 1
    return tasks


def wavefront(nx: int, ny: int, cpu_cycles: float = 1e6) -> List[Task]:
    """The 2-D wavefront: block (i,j) depends on (i-1,j) and (i,j-1)."""
    tasks: List[Task] = []
    for i in range(nx):
        for j in range(ny):
            deps_in = []
            if i > 0:
                deps_in.append(_R((f"row{i - 1}", j, j + 1)))
            if j > 0:
                deps_in.append(_R((f"row{i}", j - 1, j)))
            tasks.append(
                Task.make(
                    f"block{i}.{j}",
                    cpu_cycles=cpu_cycles,
                    in_=deps_in,
                    out=[_R((f"row{i}", j, j + 1))],
                )
            )
    return tasks


def critical_chain_with_fillers(
    chain_len: int,
    n_fillers: int,
    chain_cycles: float = 4e9,
    filler_cycles: float = 1e9,
    jitter: float = 0.0,
    seed: int = 0,
) -> List[Task]:
    """The Section 3.1 workload shape: one long serial chain (the critical
    path) plus a sea of short independent tasks.  Criticality-aware
    scheduling/DVFS wins by boosting the chain.

    Filler ``i`` costs ``filler_cycles * (1 + jitter * (u[i] - 0.5))``,
    where ``u`` is one ``rng.random(n_fillers)`` call, the values
    ``n_fillers`` successive ``rng.random()`` calls return.  A zero
    ``jitter`` draws nothing (every factor would be exactly 1), and
    ``|jitter| > 2`` raises ``ValueError``.  Like the DAG families of
    :mod:`repro.apps.dag_workloads`, the chain links share one
    ``(INOUT, chain)`` pair, each in an access list of its own.
    """
    link = Dependence(DepKind.INOUT, _R("chain"))
    tasks = [
        Task("critical", chain_cycles, 0.0, [link]) for _ in range(chain_len)
    ]
    n = max(n_fillers, 0)  # like range(n_fillers): no fillers below 0
    jittered = _jitter_draws(jitter)
    u = np.random.default_rng(seed).random(n) if jittered else None
    costs, _ = _task_costs(filler_cycles, 0.0, jitter, u, n)
    for i, cost in enumerate(costs):
        tasks.append(Task(f"filler{i}", cost))
    return tasks
