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
:class:`~repro.core.Runtime` *derives* the intended graph rather
than hard-wiring edges.  All randomness flows through a seeded
``numpy`` generator: the same arguments always produce the same workload,
which keeps simulated runs bit-for-bit reproducible.  Each task's stream
is defined by per-task calls (a ``random()`` for its cost jitter, a
``choice(..., replace=False)`` for its reads), but a builder makes no
numpy call per task: a graph (or a stream window) draws in one or two
calls that replay those per-task calls value for value and leave the
generator in the same state.  :func:`_choice_rows` is the one replay
helper; in its ``rng.integers`` bounds, a full-range ``uint64`` slot is
one ``random()``.  A ``|jitter| > 2`` could make a cost negative, so it
raises before any draw.

Costs follow the paper's first-order model: a ``mem_ratio`` knob splits
each task's reference-time budget between frequency-scaling compute cycles
and frequency-insensitive memory seconds, so the same topology can be run
compute-bound (DVFS-sensitive) or memory-bound (DVFS-insensitive).

Regions are **interned** (:meth:`repro.core.task.Region.interned`): a
tile or layer slot touched by many tasks is one canonical ``Region``
instance, so builders allocate no duplicate region objects.  Each builder
interns its regions into a per-call table (tile grid, layer row, buffer
ring) before its task loop, and computes every cost split that depends on
no loop index once per call, so a task costs one table index per access
rather than one f-string and intern lookup.  A region is a plain value,
so sharing one across runs keeps no run alive.

:func:`stream_window` is the steady-state companion: rolling windows of
tasks over a bounded ring of buffers, the workload shape the runtime's
watermark pruning (``prune_every``) is designed for.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TypeVar

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

#: One task's reference-cycle budget, or a float array of them.
_Budget = TypeVar("_Budget", float, np.ndarray)


def _split_cost(
    total_cycles: _Budget, mem_ratio: float
) -> Tuple[_Budget, _Budget]:
    """Split a reference-cycle budget into (cpu_cycles, mem_seconds).

    ``mem_ratio`` of the task's reference-frequency duration becomes
    memory time.  A float array of budgets is split element by element,
    by the same float operations in the same order as one float.
    """
    if not 0.0 <= mem_ratio < 1.0:
        raise ValueError(f"mem_ratio must be in [0, 1), got {mem_ratio}")
    mem_seconds = mem_ratio * total_cycles / REFERENCE_HZ
    return (1.0 - mem_ratio) * total_cycles, mem_seconds


def _jitter_draws(jitter: float) -> bool:
    """Whether a jittered builder draws one ``random()`` per task: it does
    for any non-zero ``jitter``, a negative one included.

    A task's budget is scaled by ``1 + jitter * (u - 0.5)`` for its draw
    ``u`` in ``[0, 1)``, a factor that stays non-negative for every ``u``
    only while ``|jitter| <= 2``.  A wider ``jitter`` raises here, before
    any draw, so whether a build succeeds never depends on its seed.
    """
    if abs(jitter) > 2.0:
        raise ValueError(
            f"jitter must be in [-2, 2], got {jitter}: the cost factor "
            "1 + jitter * (u - 0.5) would be negative for some draws"
        )
    return bool(jitter)


def _task_costs(
    total_cycles: float,
    mem_ratio: float,
    jitter: float,
    u: Optional[np.ndarray],
    n: int,
) -> Tuple[List[float], List[float]]:
    """The ``(cpu_cycles, mem_seconds)`` lists of ``n`` tasks: the one split
    of ``total_cycles`` when ``u`` is ``None``, else the split of each
    task's budget scaled by ``1 + jitter * (u[i] - 0.5)``."""
    if u is None:
        cycles, mem_s = _split_cost(total_cycles, mem_ratio)
        return [cycles] * n, [mem_s] * n
    cycles_a, mem_a = _split_cost(
        total_cycles * (1.0 + jitter * (u - 0.5)), mem_ratio
    )
    return cycles_a.tolist(), mem_a.tolist()


def _choice_rows(
    rng: np.random.Generator, pop: int, k: int, n: int, uniform: bool = False
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The ``(n, k)`` rows that ``n`` successive
    ``rng.choice(pop, size=k, replace=False)`` calls would return, and with
    ``uniform`` the ``n`` values of an ``rng.random()`` call made before
    each (else ``None``), drawn with one ``rng.integers`` call.

    numpy samples without replacement by Floyd's algorithm: for ``j =
    pop-k … pop-1`` it draws ``v`` in ``[0, j]`` and takes ``j`` instead
    when ``v`` was already picked, then shuffles the ``k`` picks
    (Fisher–Yates, ``i = k-1 … 1``, one draw in ``[0, i]`` each).  Every
    step is one bounded-integer draw from the same bit generator, and
    ``rng.integers(0, bounds, dtype=np.uint64, endpoint=True)`` makes
    those same draws in the same order.  A bound of ``2**64 - 1`` takes
    numpy's full-range branch, one raw 64-bit draw that leaves the 32-bit
    buffer the small bounds share untouched: exactly what ``random()``
    takes, as ``(raw >> 11) * 2**-53``.  So tiling one task's bounds (the
    ``random()`` slot, then ``2k - 1`` for ``choice``) ``n`` times replays
    ``n`` tasks' calls value for value and leaves ``rng`` in the same
    state.  Like ``choice``, ``k == 0`` draws nothing and ``k`` outside
    ``[0, pop]`` raises.  For ``pop > 10000`` and ``k > pop // 50`` numpy
    shuffles a tail of ``arange(pop)`` instead; that branch is not
    replayed and raises ``ValueError``.
    """
    if not 0 <= k <= pop:
        raise ValueError(f"cannot choose {k} of {pop} without replacement")
    if pop > 10000 and k > pop // 50:
        raise ValueError(
            f"choosing {k} of {pop} takes numpy's tail-shuffle branch, "
            "which is not replayed"
        )
    lead = int(uniform)
    bounds = np.concatenate((
        np.full(lead, 2**64 - 1, dtype=np.uint64),
        np.arange(pop - k, pop, dtype=np.uint64),  # Floyd
        np.arange(k - 1, 0, -1, dtype=np.uint64),  # shuffle
    ))
    draws = rng.integers(
        0, np.tile(bounds, n), dtype=np.uint64, endpoint=True
    ).reshape(n, len(bounds))
    u = (draws[:, 0] >> np.uint64(11)) * 2.0**-53 if uniform else None
    small = draws[:, lead:].astype(np.int64)
    picks = small[:, :k]  # a view: the shuffle draws sit in other columns
    for c in range(1, k):
        taken = (picks[:, :c] == picks[:, c:c + 1]).any(axis=1)
        picks[taken, c] = pop - k + c
    rows = np.arange(n)
    for i, swap in zip(range(k - 1, 0, -1), small[:, k:].T):
        held = picks[rows, swap]
        picks[rows, swap] = picks[:, i]
        picks[:, i] = held
    return picks, u


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

    Task by task, the stream draws one ``rng.random()`` for the cost
    jitter (for any non-zero ``jitter``) and then, from layer 1 on, one
    ``rng.choice(width, size=min(fanin, width), replace=False)`` for the
    parents, sorted.  Layer 0's uniforms are one ``rng.random(width)``
    call and every later task's draws one :func:`_choice_rows` call, with
    identical values.  ``|jitter| > 2`` raises ``ValueError``, and so
    does a ``width`` and ``fanin`` for which numpy's ``choice`` would take
    its tail-shuffle branch (``width > 10000`` and ``fanin > width //
    50``).
    """
    if n_layers < 1 or width < 1:
        raise ValueError("need at least one layer and one node per layer")
    if fanin < 1:
        raise ValueError("fanin must be at least 1")
    k = min(fanin, width)
    _split_cost(cpu_cycles, mem_ratio)  # checks mem_ratio before any draw
    jittered = _jitter_draws(jitter)
    rng = np.random.default_rng(seed)
    u = rng.random(width) if jittered else None
    # k column lists of sorted parents, one entry per task of layer >= 1.
    parent_cols: List[List[int]] = []
    if n_layers > 1:
        picks, u_rest = _choice_rows(
            rng, width, k, (n_layers - 1) * width, uniform=jittered
        )
        parent_cols = np.sort(picks, axis=1).T.tolist()
        if u is not None and u_rest is not None:
            u = np.concatenate((u, u_rest))
    cycles, mem_s = _task_costs(
        cpu_cycles, mem_ratio, jitter, u, n_layers * width
    )
    tasks: List[Task] = []
    prev: List[Region] = []
    for layer in range(n_layers):
        row = [_R((f"L{layer}", j, j + 1)) for j in range(width)]
        cols = parent_cols if layer else []
        for j in range(width):
            i = layer * width + j
            tasks.append(
                Task.make(
                    f"l{layer}.n{j}",
                    cpu_cycles=cycles[i],
                    mem_seconds=mem_s[i],
                    in_=[prev[col[i - width]] for col in cols],
                    out=[row[j]],
                )
            )
        prev = row
    return tasks


# ----------------------------------------------------------------------
# tiled dense factorisations
# ----------------------------------------------------------------------
def _tile_table(nt: int) -> List[List[Region]]:
    """The interned ``A`` tiles of an ``nt × nt`` grid, indexed ``[i][j]``."""
    return [
        [_R(("A", idx, idx + 1)) for idx in range(i * nt, (i + 1) * nt)]
        for i in range(nt)
    ]


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
    a = _tile_table(nt)
    potrf_c, potrf_m = _split_cost(cpu_cycles / 3.0, mem_ratio)
    unit_c, unit_m = _split_cost(cpu_cycles, mem_ratio)  # TRSM and SYRK
    gemm_c, gemm_m = _split_cost(2.0 * cpu_cycles, mem_ratio)
    tasks: List[Task] = []
    for k in range(nt):
        tasks.append(
            Task.make(
                f"potrf.{k}",
                cpu_cycles=potrf_c,
                mem_seconds=potrf_m,
                inout=[a[k][k]],
            )
        )
        for i in range(k + 1, nt):
            tasks.append(
                Task.make(
                    f"trsm.{i}.{k}",
                    cpu_cycles=unit_c,
                    mem_seconds=unit_m,
                    in_=[a[k][k]],
                    inout=[a[i][k]],
                )
            )
        for i in range(k + 1, nt):
            tasks.append(
                Task.make(
                    f"syrk.{i}.{k}",
                    cpu_cycles=unit_c,
                    mem_seconds=unit_m,
                    in_=[a[i][k]],
                    inout=[a[i][i]],
                )
            )
            for j in range(k + 1, i):
                tasks.append(
                    Task.make(
                        f"gemm.{i}.{j}.{k}",
                        cpu_cycles=gemm_c,
                        mem_seconds=gemm_m,
                        in_=[a[i][k], a[j][k]],
                        inout=[a[i][j]],
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
    a = _tile_table(nt)
    getrf_c, getrf_m = _split_cost(cpu_cycles / 2.0, mem_ratio)
    trsm_c, trsm_m = _split_cost(cpu_cycles, mem_ratio)
    gemm_c, gemm_m = _split_cost(2.0 * cpu_cycles, mem_ratio)
    tasks: List[Task] = []
    for k in range(nt):
        tasks.append(
            Task.make(
                f"getrf.{k}",
                cpu_cycles=getrf_c,
                mem_seconds=getrf_m,
                inout=[a[k][k]],
            )
        )
        for j in range(k + 1, nt):
            tasks.append(
                Task.make(
                    f"trsm_r.{k}.{j}",
                    cpu_cycles=trsm_c,
                    mem_seconds=trsm_m,
                    in_=[a[k][k]],
                    inout=[a[k][j]],
                )
            )
        for i in range(k + 1, nt):
            tasks.append(
                Task.make(
                    f"trsm_c.{i}.{k}",
                    cpu_cycles=trsm_c,
                    mem_seconds=trsm_m,
                    in_=[a[k][k]],
                    inout=[a[i][k]],
                )
            )
        for i in range(k + 1, nt):
            for j in range(k + 1, nt):
                tasks.append(
                    Task.make(
                        f"gemm.{i}.{j}.{k}",
                        cpu_cycles=gemm_c,
                        mem_seconds=gemm_m,
                        in_=[a[i][k], a[k][j]],
                        inout=[a[i][j]],
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
    separates work stealing from static round-robin assignment.  The
    forks' uniforms, one ``rng.random()`` per fork in task order for any
    non-zero ``jitter``, are one ``rng.random(width * depth)`` call;
    ``|jitter| > 2`` raises ``ValueError``.
    """
    if width < 1 or depth < 1:
        raise ValueError("need positive width and depth")
    join_c, join_m = _split_cost(cpu_cycles / 4.0, mem_ratio)
    n_forks = width * depth
    jittered = _jitter_draws(jitter)
    u = np.random.default_rng(seed).random(n_forks) if jittered else None
    cycles, mem_s = _task_costs(cpu_cycles, mem_ratio, jitter, u, n_forks)
    rounds = [[_R(f"round{d}")] for d in range(depth + 1)]
    tasks: List[Task] = []
    for d in range(depth):
        partial = f"partial{d}"
        for w in range(width):
            i = d * width + w
            tasks.append(
                Task.make(
                    f"fork{d}.{w}",
                    cpu_cycles=cycles[i],
                    mem_seconds=mem_s[i],
                    in_=rounds[d],
                    # Per-round partial regions: forks of round d+1 must
                    # not serialise against round d's join (WAR) or each
                    # other.
                    out=[_R((partial, w, w + 1))],
                )
            )
        tasks.append(
            Task.make(
                f"join{d}",
                cpu_cycles=join_c,
                mem_seconds=join_m,
                in_=[_R(partial)],
                out=rounds[d + 1],
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
    costs = [
        _split_cost(cpu_cycles * (1.0 + stage_skew * s), mem_ratio)
        for s in range(n_stages)
    ]
    states = [[_R(f"stage_state{s}")] for s in range(n_stages)]
    tasks: List[Task] = []
    for i in range(n_items):
        item = [_R((f"item{i}", s, s + 1)) for s in range(n_stages)]
        for s in range(n_stages):
            cycles, mem_s = costs[s]
            tasks.append(
                Task.make(
                    f"stage{s}.item{i}",
                    cpu_cycles=cycles,
                    mem_seconds=mem_s,
                    in_=[item[s - 1]] if s > 0 else [],
                    inout=states[s],
                    out=[item[s]],
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
    A window's only draws are its reads, one ``rng.choice(n_buffers - 1,
    size=min(fanin, n_buffers - 1), replace=False)`` per task in task
    order; they are taken in one batch (:func:`_choice_rows`) with
    identical values.  A ``fanin`` below 0 raises ``ValueError``, and so
    does one for which numpy's ``choice`` would take its tail-shuffle
    branch (``n_buffers > 10001`` and ``fanin > (n_buffers - 1) // 50``).
    """
    if n_buffers < 2:
        raise ValueError("need at least two ring buffers")
    if n_tasks < 1:
        raise ValueError("need at least one task per window")
    cycles, mem_s = _split_cost(cpu_cycles, mem_ratio)
    bufs = [_R(f"buf{b}") for b in range(n_buffers)]
    rng = np.random.default_rng((seed, window))
    k = min(fanin, n_buffers - 1)
    outs = (window * n_tasks + np.arange(n_tasks)) % n_buffers
    # Read k distinct buffers other than the one being rewritten.
    offsets, _ = _choice_rows(rng, n_buffers - 1, k, n_tasks)
    # k column lists, not n_tasks row lists: rows held alive for the whole
    # window would count toward the cyclic GC's allocation threshold.
    read_cols = ((offsets + outs[:, None] + 1) % n_buffers).T.tolist()
    tasks: List[Task] = []
    for j, out_buf in enumerate(outs.tolist()):
        tasks.append(
            Task.make(
                f"w{window}.t{j}",
                cpu_cycles=cycles,
                mem_seconds=mem_s,
                in_=[bufs[col[j]] for col in read_cols],
                out=[bufs[out_buf]],
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
