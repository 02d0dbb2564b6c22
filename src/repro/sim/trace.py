"""Execution traces: who ran what, where, when, and at which frequency.

A :class:`TraceRecorder` holds per-task execution records so that examples
can print Gantt-style views (in the spirit of BSC's Paraver traces) and tests
can assert scheduling invariants such as "no core runs two tasks at once" and
"no task starts before its predecessors finished".

A trace is a view of the graph arrays.  The runtime stamps each task's
timestamps, core and DVFS level into its :class:`TaskGraph` as it runs,
and :meth:`TraceRecorder.from_graph` — the only builder — turns them into
records once the run is over (``Runtime.run`` calls it when
``record_trace`` is on).  Nothing is recorded per task while the
simulation runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["EPSILON", "TraceRecord", "TraceRecorder"]

#: Shared overlap/rounding tolerance for simulated-time comparisons.
#: Used by :meth:`TraceRecorder.validate_no_overlap` and by the Chrome
#: trace exporter's interval fusing (:mod:`repro.obs.trace_export`);
#: re-exported as ``repro.sim.EPSILON``.
EPSILON = 1e-12


@dataclass(frozen=True)
class TraceRecord:
    """One execution interval of one task on one core.

    ``gid`` names the task by its index in the run's graph (its
    submission index, the task's only identity), so two identical runs
    in one process give equal records.
    """

    gid: int
    task_label: str
    core_id: int
    start: float
    end: float
    frequency_ghz: float
    critical: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class TraceRecorder:
    """The :class:`TraceRecord` entries of one simulated run."""

    records: List[TraceRecord] = field(default_factory=list)
    #: Finished tasks :meth:`from_graph` could not rebuild because
    #: streaming mode (``prune_every``) already released their handles.
    skipped_released: int = 0

    @classmethod
    def from_graph(cls, graph, machine) -> "TraceRecorder":
        """Build the trace of the finished tasks in ``graph``.

        A record reads the task's start and end time, criticality and
        core from the graph arrays, and maps the stamped DVFS level
        through ``machine.dvfs`` to the frequency the task ran at.  The
        level is exact: only the RSU request of the task starting on a
        core changes that core's level, so it holds until completion.

        **Released handles.** Streaming mode releases retired handles;
        their timestamps stay in the arrays, but their labels are gone,
        so they are skipped and counted in :attr:`skipped_released`.
        Pruning is execution-equivalent: the full trace of a pruned run
        is the same run's trace with ``prune_every=0``.

        **Order.** Completion order, rebuilt by sorting on ``(end, start,
        core)``: completions at one timestamp fire in the order their
        tasks started, and a dispatch pass starts tasks in ascending core
        order.  The one tie this cannot order is equal start and end on
        two cores started by two dispatch passes at one timestamp, which
        needs zero-duration tasks.  The order fixes the float sum in
        :meth:`utilisation`.
        """
        from ..core.task import TaskState  # sim->core: runtime-only import

        freq = [op.frequency_ghz for op in machine.dvfs.points]
        start = graph.start_time
        end = graph.end_time
        critical = graph.critical
        state = graph.state
        core = graph.core
        level = graph.dvfs_level
        finished = TaskState.FINISHED
        trace = cls()
        rows = trace.records
        for gid, task in enumerate(graph.tasks):
            # end_time is stamped at dispatch, so finished-ness must come
            # from the state array, not from a non-None end time.
            if state[gid] is not finished:
                continue
            if task is None:
                trace.skipped_released += 1
                continue
            rows.append(
                TraceRecord(
                    gid, task.label, core[gid], start[gid],
                    end[gid], freq[level[gid]], critical[gid],
                )
            )
        rows.sort(key=lambda r: (r.end, r.start, r.core_id))
        return trace

    def __len__(self) -> int:
        return len(self.records)

    def by_core(self) -> Dict[int, List[TraceRecord]]:
        out: Dict[int, List[TraceRecord]] = {}
        for rec in self.records:
            out.setdefault(rec.core_id, []).append(rec)
        for recs in out.values():
            recs.sort(key=lambda r: r.start)
        return out

    def makespan(self) -> float:
        if not self.records:
            return 0.0
        return max(r.end for r in self.records) - min(r.start for r in self.records)

    def utilisation(self, n_cores: int) -> float:
        """Fraction of core-time spent executing tasks over the makespan."""
        span = self.makespan()
        if span <= 0:
            return 0.0
        busy = sum(r.duration for r in self.records)
        return busy / (span * n_cores)

    def validate_no_overlap(self) -> None:
        """Raise ``AssertionError`` if any core ran two tasks simultaneously."""
        for core_id, recs in self.by_core().items():
            for a, b in zip(recs, recs[1:]):
                if b.start < a.end - EPSILON:
                    raise AssertionError(
                        f"core {core_id}: task gid={b.gid} started at {b.start} "
                        f"before task gid={a.gid} ended at {a.end}"
                    )

    def gantt(self, width: int = 72, max_cores: Optional[int] = None) -> str:
        """Render a coarse ASCII Gantt chart (one row per core)."""
        if not self.records:
            return "(empty trace)"
        t0 = min(r.start for r in self.records)
        t1 = max(r.end for r in self.records)
        span = max(t1 - t0, 1e-12)
        lines = []
        cores = sorted(self.by_core().items())
        if max_cores is not None:
            cores = cores[:max_cores]
        for core_id, recs in cores:
            row = [" "] * width
            for rec in recs:
                lo = int((rec.start - t0) / span * (width - 1))
                hi = max(lo, int((rec.end - t0) / span * (width - 1)))
                mark = "#" if rec.critical else "="
                for i in range(lo, hi + 1):
                    row[i] = mark
            lines.append(f"core {core_id:>3} |{''.join(row)}|")
        lines.append(f"           t0={t0:.6g}s .. t1={t1:.6g}s ('#'=critical task)")
        return "\n".join(lines)
