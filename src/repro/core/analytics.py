"""Post-run analytics over the graph's array-native task lifecycle.

The runtime stamps ``submit``/``ready``/``start``/``end`` times into
parallel :class:`~repro.core.graph.TaskGraph` arrays as execution
progresses (PR 5), which makes whole-campaign analysis a set of array
sweeps: no trace recording, no Task-object traversal, and — in streaming
mode — no dependence on handles that watermark pruning already released.

Three pivots cover the questions the figure benchmarks keep re-deriving:

* :func:`per_depth_latency` — how execution and queueing latency evolve
  along the graph's depth profile (where does a wavefront stall?);
* :func:`ready_queue_residency` — how long ready tasks wait for a core
  (is the machine wide enough for the exposed parallelism?);
* :func:`critical_path_occupancy` — what fraction of the makespan had a
  critical task actually running (is boosting even reachable?).

:func:`timestamp_table` hands the raw columns out as numpy arrays for
ad-hoc pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from .task import TaskState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import TaskGraph

__all__ = [
    "timestamp_table",
    "per_depth_latency",
    "ready_queue_residency",
    "ResidencySummary",
    "critical_path_occupancy",
]


def timestamp_table(graph: "TaskGraph") -> Dict[str, Any]:
    """The lifecycle columns of every *finished* task, as numpy arrays.

    Returns a dict with ``gid``, ``depth``, ``critical``, ``submit``,
    ``ready``, ``start``, ``end``.  Unfinished tasks are excluded so every
    column is dense and float-valued.
    """
    state = graph.state
    finished = TaskState.FINISHED
    rows = [g for g in range(len(state)) if state[g] is finished]

    def floats(col: List[Optional[float]]) -> Any:
        return np.asarray([col[g] for g in rows], dtype=float)

    return {
        "gid": np.asarray(rows, dtype=np.int64),
        "depth": np.asarray([graph.depth[g] for g in rows], dtype=np.int64),
        "critical": np.asarray(
            [bool(graph.critical[g]) for g in rows], dtype=bool
        ),
        "submit": floats(graph.submit_time),
        "ready": floats(graph.ready_time),
        "start": floats(graph.start_time),
        "end": floats(graph.end_time),
    }


def per_depth_latency(graph: "TaskGraph") -> List[Dict[str, float]]:
    """Mean execution and queue latency per graph depth.

    One row per depth level with ``depth``, ``n`` (finished tasks),
    ``mean_exec`` (start → end) and ``mean_wait`` (ready → start) — the
    per-wavefront shape of a run: tiled factorisations show the wait
    climbing as the wavefront narrows below the core count.
    """
    depth_arr = graph.depth
    start_arr = graph.start_time
    end_arr = graph.end_time
    ready_arr = graph.ready_time
    state_arr = graph.state
    finished = TaskState.FINISHED
    acc: Dict[int, List[float]] = {}
    for g in range(len(end_arr)):
        # end_time is stamped at dispatch (the simulated completion
        # instant is known then), so finished-ness must come from state.
        if state_arr[g] is not finished:
            continue
        end = end_arr[g]
        start = start_arr[g]
        ready = ready_arr[g]
        row = acc.get(depth_arr[g])
        if row is None:
            row = acc[depth_arr[g]] = [0.0, 0.0, 0.0]
        row[0] += 1.0
        row[1] += end - start
        row[2] += start - (ready if ready is not None else start)
    return [
        {
            "depth": d,
            "n": int(row[0]),
            "mean_exec": row[1] / row[0],
            "mean_wait": row[2] / row[0],
        }
        for d, row in sorted(acc.items())
    ]


@dataclass(frozen=True)
class ResidencySummary:
    """Ready-queue residency (ready → start wait) of one run."""

    n: int
    mean: float
    p50: float
    p95: float
    max: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "max": self.max,
        }


def ready_queue_residency(graph: "TaskGraph") -> Optional[ResidencySummary]:
    """How long ready tasks sat in the queue before a core picked them up.

    Returns ``None`` when no task finished.  High residency with idle
    cores points at scheduler imbalance; high residency without idle
    cores means the machine, not the policy, is the bound.
    """
    start_arr = graph.start_time
    ready_arr = graph.ready_time
    state_arr = graph.state
    finished = TaskState.FINISHED
    waits: List[float] = []
    for g in range(len(state_arr)):
        if state_arr[g] is not finished:
            continue
        ready = ready_arr[g]
        waits.append(start_arr[g] - (ready if ready is not None else start_arr[g]))
    if not waits:
        return None
    arr = np.asarray(waits)
    return ResidencySummary(
        n=len(waits),
        mean=float(arr.mean()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        max=float(arr.max()),
    )


def critical_path_occupancy(graph: "TaskGraph") -> float:
    """Fraction of the run's span with at least one critical task running.

    Merges the ``[start, end)`` execution intervals of tasks flagged
    critical and divides their union by the overall span (first start to
    last end).  1.0 means the marked critical path was continuously
    occupied — boosting it is the whole story; values well below 1.0 mean
    the critical path waits on queues, which is scheduler headroom.
    Returns 0.0 when nothing finished or nothing was critical.
    """
    start_arr = graph.start_time
    end_arr = graph.end_time
    critical = graph.critical
    state_arr = graph.state
    finished = TaskState.FINISHED
    t0 = None
    t1 = None
    intervals: List[Tuple[float, float]] = []
    for g in range(len(end_arr)):
        if state_arr[g] is not finished:
            continue
        start = start_arr[g]
        end = end_arr[g]
        if t0 is None or start < t0:
            t0 = start
        if t1 is None or end > t1:
            t1 = end
        if critical[g]:
            intervals.append((start, end))
    if t0 is None or t1 is None or t1 <= t0 or not intervals:
        return 0.0
    intervals.sort()
    covered = 0.0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    covered += cur_hi - cur_lo
    return covered / (t1 - t0)
