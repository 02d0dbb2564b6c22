"""Synthetic DAG workload generators.

The paper's evaluation is five fixed figures; this module opens a second
workload axis so schedulers, the RSU and the event kernel can be exercised
on *families* of task graphs with tunable shape:

* :func:`random_layered` — seeded random layered DAGs (width × depth with
  random fan-in), the classic scheduler stress test;
* :func:`cholesky_tiles` / :func:`lu_tiles` — tiled dense-factorisation
  TDGs (POTRF/TRSM/SYRK/GEMM and GETRF/TRSM/GEMM), the canonical OmpSs
  benchmarks with a shrinking wavefront of parallelism;
* :func:`fork_join_ladder` — repeated fork/join rounds with per-task cost
  jitter (bulk-synchronous codes);
* :func:`pipeline_grid` — stateful stage pipelines (PARSEC-style).

Every generator returns plain :class:`~repro.core.task.Task` lists built
through the region-based dependence API, so submitting them to a
:class:`~repro.core.runtime.Runtime` *derives* the intended graph rather
than hard-wiring edges.  All randomness flows through a seeded
``numpy`` generator: the same arguments always produce the same workload,
which keeps simulated runs bit-for-bit reproducible.

Costs follow the paper's first-order model: a ``mem_ratio`` knob splits
each task's reference-time budget between frequency-scaling compute cycles
and frequency-insensitive memory seconds, so the same topology can be run
compute-bound (DVFS-sensitive) or memory-bound (DVFS-insensitive).

Regions are **interned** (:meth:`repro.core.task.Region.interned`): a
tile or layer slot touched by many tasks is one canonical ``Region``
instance, so builders allocate no duplicate region objects and the
dependence tracker's identity cache hits on every repeat access — the
submission-path constant factor ROADMAP open item 2 targeted.

:func:`stream_window` is the steady-state companion: rolling windows of
tasks over a bounded ring of buffers, the workload shape the runtime's
watermark pruning (``prune_every``) is designed for.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.task import Region, Task

__all__ = [
    "random_layered",
    "cholesky_tiles",
    "lu_tiles",
    "fork_join_ladder",
    "pipeline_grid",
    "stream_window",
    "WORKLOADS",
    "make_workload",
]

_R = Region.interned

#: Frequency at which ``cpu_cycles`` and ``mem_seconds`` budgets are
#: interchangeable (matches Task.reference_work).
REFERENCE_HZ = 1e9


def _split_cost(
    total_cycles: float,
    mem_ratio: float,
    rng: Optional[np.random.Generator] = None,
    jitter: float = 0.0,
) -> Tuple[float, float]:
    """Split a reference-cycle budget into (cpu_cycles, mem_seconds).

    ``mem_ratio`` of the task's reference-frequency duration becomes
    memory time; optional ``jitter`` scales the whole budget by a
    deterministic pseudo-random factor in ``[1 - j/2, 1 + j/2]``.
    """
    if not 0.0 <= mem_ratio < 1.0:
        raise ValueError(f"mem_ratio must be in [0, 1), got {mem_ratio}")
    if jitter and rng is not None:
        total_cycles *= 1.0 + jitter * (rng.random() - 0.5)
    mem_seconds = mem_ratio * total_cycles / REFERENCE_HZ
    return (1.0 - mem_ratio) * total_cycles, mem_seconds


# ----------------------------------------------------------------------
# random layered DAGs
# ----------------------------------------------------------------------
def random_layered(
    n_layers: int,
    width: int,
    fanin: int = 2,
    cpu_cycles: float = 1e6,
    mem_ratio: float = 0.0,
    jitter: float = 0.0,
    seed: int = 0,
) -> List[Task]:
    """A ``width × n_layers`` layered DAG with random fan-in.

    Every node in layer ``l > 0`` reads ``min(fanin, width)`` distinct
    random nodes of layer ``l - 1`` and writes its own output region, so
    depth equals ``n_layers`` and each layer is fully parallel.
    """
    if n_layers < 1 or width < 1:
        raise ValueError("need at least one layer and one node per layer")
    if fanin < 1:
        raise ValueError("fanin must be at least 1")
    rng = np.random.default_rng(seed)
    k = min(fanin, width)
    tasks: List[Task] = []
    for layer in range(n_layers):
        for j in range(width):
            cycles, mem_s = _split_cost(cpu_cycles, mem_ratio, rng, jitter)
            deps_in = []
            if layer > 0:
                parents = rng.choice(width, size=k, replace=False)
                deps_in = [
                    _R((f"L{layer - 1}", int(p), int(p) + 1))
                    for p in sorted(parents)
                ]
            tasks.append(
                Task.make(
                    f"l{layer}.n{j}",
                    cpu_cycles=cycles,
                    mem_seconds=mem_s,
                    in_=deps_in,
                    out=[_R((f"L{layer}", j, j + 1))],
                )
            )
    return tasks


# ----------------------------------------------------------------------
# tiled dense factorisations
# ----------------------------------------------------------------------
def _tile(i: int, j: int, nt: int) -> Region:
    idx = i * nt + j
    return _R(("A", idx, idx + 1))


def cholesky_tiles(
    nt: int, cpu_cycles: float = 1e6, mem_ratio: float = 0.0
) -> List[Task]:
    """Right-looking tiled Cholesky on an ``nt × nt`` lower-triangular
    tile grid: POTRF on the diagonal, TRSM down the panel, SYRK/GEMM
    trailing updates.  Parallelism starts wide and collapses towards the
    final POTRF — the shape that separates HLF-style schedulers from FIFO.

    Kernel costs follow the classic flop ratios (GEMM ≈ 2× TRSM/SYRK,
    POTRF ≈ ⅓×) scaled by ``cpu_cycles``.
    """
    if nt < 1:
        raise ValueError("need at least one tile")
    tasks: List[Task] = []
    for k in range(nt):
        potrf_c, potrf_m = _split_cost(cpu_cycles / 3.0, mem_ratio)
        tasks.append(
            Task.make(
                f"potrf.{k}",
                cpu_cycles=potrf_c,
                mem_seconds=potrf_m,
                inout=[_tile(k, k, nt)],
            )
        )
        for i in range(k + 1, nt):
            trsm_c, trsm_m = _split_cost(cpu_cycles, mem_ratio)
            tasks.append(
                Task.make(
                    f"trsm.{i}.{k}",
                    cpu_cycles=trsm_c,
                    mem_seconds=trsm_m,
                    in_=[_tile(k, k, nt)],
                    inout=[_tile(i, k, nt)],
                )
            )
        for i in range(k + 1, nt):
            syrk_c, syrk_m = _split_cost(cpu_cycles, mem_ratio)
            tasks.append(
                Task.make(
                    f"syrk.{i}.{k}",
                    cpu_cycles=syrk_c,
                    mem_seconds=syrk_m,
                    in_=[_tile(i, k, nt)],
                    inout=[_tile(i, i, nt)],
                )
            )
            for j in range(k + 1, i):
                gemm_c, gemm_m = _split_cost(2.0 * cpu_cycles, mem_ratio)
                tasks.append(
                    Task.make(
                        f"gemm.{i}.{j}.{k}",
                        cpu_cycles=gemm_c,
                        mem_seconds=gemm_m,
                        in_=[_tile(i, k, nt), _tile(j, k, nt)],
                        inout=[_tile(i, j, nt)],
                    )
                )
    return tasks


def lu_tiles(
    nt: int, cpu_cycles: float = 1e6, mem_ratio: float = 0.0
) -> List[Task]:
    """Tiled LU (no pivoting) on an ``nt × nt`` tile grid: GETRF on the
    diagonal, TRSM along the row and column panels, GEMM on the trailing
    submatrix.  Denser than Cholesky (full trailing update each step)."""
    if nt < 1:
        raise ValueError("need at least one tile")
    tasks: List[Task] = []
    for k in range(nt):
        getrf_c, getrf_m = _split_cost(cpu_cycles / 2.0, mem_ratio)
        tasks.append(
            Task.make(
                f"getrf.{k}",
                cpu_cycles=getrf_c,
                mem_seconds=getrf_m,
                inout=[_tile(k, k, nt)],
            )
        )
        for j in range(k + 1, nt):
            trsm_c, trsm_m = _split_cost(cpu_cycles, mem_ratio)
            tasks.append(
                Task.make(
                    f"trsm_r.{k}.{j}",
                    cpu_cycles=trsm_c,
                    mem_seconds=trsm_m,
                    in_=[_tile(k, k, nt)],
                    inout=[_tile(k, j, nt)],
                )
            )
        for i in range(k + 1, nt):
            trsm_c, trsm_m = _split_cost(cpu_cycles, mem_ratio)
            tasks.append(
                Task.make(
                    f"trsm_c.{i}.{k}",
                    cpu_cycles=trsm_c,
                    mem_seconds=trsm_m,
                    in_=[_tile(k, k, nt)],
                    inout=[_tile(i, k, nt)],
                )
            )
        for i in range(k + 1, nt):
            for j in range(k + 1, nt):
                gemm_c, gemm_m = _split_cost(2.0 * cpu_cycles, mem_ratio)
                tasks.append(
                    Task.make(
                        f"gemm.{i}.{j}.{k}",
                        cpu_cycles=gemm_c,
                        mem_seconds=gemm_m,
                        in_=[_tile(i, k, nt), _tile(k, j, nt)],
                        inout=[_tile(i, j, nt)],
                    )
                )
    return tasks


# ----------------------------------------------------------------------
# fork-join and pipelines
# ----------------------------------------------------------------------
def fork_join_ladder(
    width: int,
    depth: int,
    cpu_cycles: float = 1e6,
    mem_ratio: float = 0.0,
    jitter: float = 0.0,
    seed: int = 0,
) -> List[Task]:
    """``depth`` rounds of: fork ``width`` jittered tasks, join, repeat.

    With ``jitter > 0`` the rounds are load-imbalanced, which is what
    separates work stealing from static round-robin assignment.
    """
    if width < 1 or depth < 1:
        raise ValueError("need positive width and depth")
    rng = np.random.default_rng(seed)
    tasks: List[Task] = []
    for d in range(depth):
        for w in range(width):
            cycles, mem_s = _split_cost(cpu_cycles, mem_ratio, rng, jitter)
            tasks.append(
                Task.make(
                    f"fork{d}.{w}",
                    cpu_cycles=cycles,
                    mem_seconds=mem_s,
                    in_=[_R(f"round{d}")],
                    # Per-round partial regions: forks of round d+1 must
                    # not serialise against round d's join (WAR) or each
                    # other.
                    out=[_R((f"partial{d}", w, w + 1))],
                )
            )
        join_c, join_m = _split_cost(cpu_cycles / 4.0, mem_ratio)
        tasks.append(
            Task.make(
                f"join{d}",
                cpu_cycles=join_c,
                mem_seconds=join_m,
                in_=[_R(f"partial{d}")],
                out=[_R(f"round{d + 1}")],
            )
        )
    return tasks


def pipeline_grid(
    n_stages: int,
    n_items: int,
    cpu_cycles: float = 1e6,
    mem_ratio: float = 0.0,
    stage_skew: float = 0.0,
) -> List[Task]:
    """A ``n_stages``-stage stateful pipeline over ``n_items`` items.

    Stage ``s`` of item ``i`` depends on stage ``s-1`` of the same item
    (dataflow) and on stage ``s`` of item ``i-1`` (stage state), the
    PARSEC pipeline shape.  ``stage_skew`` makes later stages costlier
    (``cost_s = cpu_cycles * (1 + stage_skew * s)``), creating a
    bottleneck stage that caps pipeline throughput.
    """
    if n_stages < 1 or n_items < 1:
        raise ValueError("need positive stage and item counts")
    tasks: List[Task] = []
    for i in range(n_items):
        for s in range(n_stages):
            cycles, mem_s = _split_cost(
                cpu_cycles * (1.0 + stage_skew * s), mem_ratio
            )
            deps_in = []
            if s > 0:
                deps_in.append(_R((f"item{i}", s - 1, s)))
            tasks.append(
                Task.make(
                    f"stage{s}.item{i}",
                    cpu_cycles=cycles,
                    mem_seconds=mem_s,
                    in_=deps_in,
                    inout=[_R(f"stage_state{s}")],
                    out=[_R((f"item{i}", s, s + 1))],
                )
            )
    return tasks


# ----------------------------------------------------------------------
# streaming windows
# ----------------------------------------------------------------------
def stream_window(
    window: int,
    n_buffers: int = 64,
    n_tasks: int = 512,
    fanin: int = 2,
    cpu_cycles: float = 1e5,
    mem_ratio: float = 0.0,
    jitter: float = 0.0,
    seed: int = 0,
) -> List[Task]:
    """One rolling window of a steady-state streaming workload.

    Task ``j`` of window ``w`` rewrites ring buffer ``(w * n_tasks + j) %
    n_buffers`` and reads ``fanin`` other buffers chosen by a seeded RNG —
    the producer/consumer shape of a long-running ingest pipeline.  The
    buffer namespace is a *bounded ring*, so the dependence tracker's
    ``live_regions`` stays ≤ ``n_buffers`` no matter how many windows are
    submitted; what grows without watermark pruning is the tracker's
    member entries (gids) and the graph's strong handles to retired
    ``Task`` objects, which is exactly what ``Runtime(prune_every=N)``
    bounds.

    The RNG is seeded per ``(seed, window)``: submitting windows
    ``0..k`` always produces the same task stream regardless of how runs
    interleave, keeping streaming campaigns bit-for-bit reproducible.
    """
    if n_buffers < 2:
        raise ValueError("need at least two ring buffers")
    if n_tasks < 1:
        raise ValueError("need at least one task per window")
    rng = np.random.default_rng((seed, window))
    k = min(fanin, n_buffers - 1)
    base = window * n_tasks
    tasks: List[Task] = []
    for j in range(n_tasks):
        out_buf = (base + j) % n_buffers
        # Read k distinct buffers other than the one being rewritten.
        reads = rng.choice(n_buffers - 1, size=k, replace=False)
        cycles, mem_s = _split_cost(cpu_cycles, mem_ratio, rng, jitter)
        tasks.append(
            Task.make(
                f"w{window}.t{j}",
                cpu_cycles=cycles,
                mem_seconds=mem_s,
                in_=[
                    _R(f"buf{(int(r) + out_buf + 1) % n_buffers}")
                    for r in reads
                ],
                out=[_R(f"buf{out_buf}")],
            )
        )
    return tasks


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def _wl_layered(
    scale=1, seed=0, cost_mult=1.0, mem_ratio=0.2, jitter=0.5, fanin=3
):
    return random_layered(
        n_layers=6 * scale,
        width=8 * scale,
        fanin=fanin,
        cpu_cycles=2e6 * cost_mult,
        mem_ratio=mem_ratio,
        jitter=jitter,
        seed=seed,
    )


def _wl_cholesky(scale=1, seed=0, cost_mult=1.0, mem_ratio=0.3):
    return cholesky_tiles(
        nt=4 * scale, cpu_cycles=4e6 * cost_mult, mem_ratio=mem_ratio
    )


def _wl_lu(scale=1, seed=0, cost_mult=1.0, mem_ratio=0.3):
    return lu_tiles(
        nt=3 * scale, cpu_cycles=4e6 * cost_mult, mem_ratio=mem_ratio
    )


def _wl_fork_join(scale=1, seed=0, cost_mult=1.0, mem_ratio=0.1, jitter=0.3):
    return fork_join_ladder(
        width=8 * scale,
        depth=4 * scale,
        cpu_cycles=1e6 * cost_mult,
        mem_ratio=mem_ratio,
        jitter=jitter,
        seed=seed,
    )


def _wl_pipeline(
    scale=1, seed=0, cost_mult=1.0, mem_ratio=0.2, stage_skew=0.5
):
    return pipeline_grid(
        n_stages=4,
        n_items=16 * scale,
        cpu_cycles=1e6 * cost_mult,
        mem_ratio=mem_ratio,
        stage_skew=stage_skew,
    )


#: Named workload families for benchmark harnesses: each factory maps a
#: ``scale`` (graph size multiplier), a ``seed`` and optional shape knobs
#: (``cost_mult``, ``mem_ratio``, family-specific ``jitter``/``fanin``/
#: ``stage_skew``) to a task list.  With no knobs the defaults reproduce
#: the historical workloads bit for bit.
WORKLOADS: Dict[str, Callable[..., List[Task]]] = {
    "layered": _wl_layered,
    "cholesky": _wl_cholesky,
    "lu": _wl_lu,
    "fork_join": _wl_fork_join,
    "pipeline": _wl_pipeline,
}


def make_workload(
    name: str, scale: int = 1, seed: int = 0, **knobs
) -> List[Task]:
    """Build a registered workload family by name.

    ``knobs`` forward to the family factory (campaign scenarios carry
    them as ``wl_``-prefixed params); an unknown knob raises the
    factory's ``TypeError`` naming the family's accepted set.
    """
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return factory(scale=scale, seed=seed, **knobs)
