"""Chrome-trace / Perfetto JSON export.

Fuses three sources into one `trace-event format`_ file that
``chrome://tracing`` and https://ui.perfetto.dev open directly:

* **Task intervals** from a :class:`~repro.sim.trace.TraceRecorder` —
  one ``ph: "X"`` (complete) event per executed task, on process
  ``pid=1`` ("simulated machine"), one thread per core.  Timestamps are
  *simulated* seconds converted to µs.
* **Phase spans** from a :class:`~repro.obs.metrics.MetricsRegistry` —
  ``tdg_build`` / ``simulate`` / ``prune`` / ``graph_analysis`` host-time
  intervals on process ``pid=2`` ("host runtime"), normalised so the
  first span starts at t=0.  Host and simulated timelines are unrelated
  clocks; keeping them on separate processes makes that explicit.
* **Counter series** from the registry's gauge series (e.g.
  ``event_queue_depth``) — ``ph: "C"`` events on the simulated timeline.

Sub-epsilon overlaps between adjacent task intervals on one core (float
rounding at DVFS boundaries) are fused using the shared
:data:`repro.sim.EPSILON` tolerance — the same constant
``TraceRecorder.validate_no_overlap`` uses; anything larger is a real
scheduling-invariant violation and raises.

.. _trace-event format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..sim.trace import EPSILON, TraceRecorder
from .metrics import OBS_SCHEMA_VERSION, MetricsRegistry

__all__ = ["SIM_PID", "HOST_PID", "chrome_trace", "export_chrome_trace"]

#: Process id carrying simulated-time content (task intervals, counters).
SIM_PID = 1
#: Process id carrying host-time content (phase spans).
HOST_PID = 2

_US = 1_000_000.0  # seconds -> trace-event microseconds

Event = Dict[str, Any]


def _metadata_events(core_ids: List[int], have_spans: bool) -> List[Event]:
    events: List[Event] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": SIM_PID,
            "tid": 0,
            "args": {"name": "simulated machine"},
        }
    ]
    for core_id in core_ids:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": SIM_PID,
                "tid": core_id,
                "args": {"name": f"core {core_id}"},
            }
        )
    if have_spans:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": HOST_PID,
                "tid": 0,
                "args": {"name": "host runtime"},
            }
        )
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": HOST_PID,
                "tid": 0,
                "args": {"name": "phases"},
            }
        )
    return events


def _task_events(trace: TraceRecorder) -> List[Event]:
    """Per-task complete events, with sub-epsilon overlap fusing per core."""
    events: List[Event] = []
    for core_id, records in sorted(trace.by_core().items()):
        prev_end = None
        for rec in records:
            start = rec.start
            if prev_end is not None and start < prev_end:
                if start < prev_end - EPSILON:
                    raise ValueError(
                        f"core {core_id}: task gid={rec.gid} starts at {start} "
                        f"before previous task ended at {prev_end} "
                        f"(beyond EPSILON={EPSILON})"
                    )
                start = prev_end  # fuse float-rounding overlap
            end = rec.end if rec.end > start else start
            prev_end = end
            events.append(
                {
                    "name": rec.task_label,
                    "cat": "task",
                    "ph": "X",
                    "ts": start * _US,
                    "dur": (end - start) * _US,
                    "pid": SIM_PID,
                    "tid": core_id,
                    "args": {
                        "gid": rec.gid,
                        "frequency_ghz": rec.frequency_ghz,
                        "critical": rec.critical,
                    },
                }
            )
    return events


def _span_events(registry: MetricsRegistry) -> List[Event]:
    spans = registry.spans
    if not spans:
        return []
    base = min(t0 for _, t0, _ in spans)
    events: List[Event] = []
    for name, t0, t1 in spans:
        events.append(
            {
                "name": name,
                "cat": "phase",
                "ph": "X",
                "ts": (t0 - base) * _US,
                "dur": max(t1 - t0, 0.0) * _US,
                "pid": HOST_PID,
                "tid": 0,
            }
        )
    return events


def _counter_events(registry: MetricsRegistry) -> List[Event]:
    events: List[Event] = []
    for name in sorted(registry.gauge_series):
        for t, value in registry.gauge_series[name]:
            events.append(
                {
                    "name": name,
                    "cat": "gauge",
                    "ph": "C",
                    "ts": t * _US,
                    "pid": SIM_PID,
                    "args": {"value": value},
                }
            )
    return events


def chrome_trace(
    trace: Optional[TraceRecorder] = None,
    registry: Optional[MetricsRegistry] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build the trace-event JSON envelope (a plain dict, ready to dump).

    Either source may be omitted: a trace-only export shows the simulated
    Gantt, a registry-only export shows host phases and counters.
    ``metadata`` entries are merged into the envelope's ``metadata``
    block (values must be JSON scalars).
    """
    core_ids: List[int] = []
    events: List[Event] = []
    meta: Dict[str, Any] = {
        "schema": OBS_SCHEMA_VERSION,
        "exporter": "repro.obs.trace_export",
        "time_unit_note": "ts/dur are microseconds; pid 1 = simulated "
        "time, pid 2 = host time (unrelated clocks)",
    }
    if trace is not None:
        core_ids = sorted(trace.by_core())
        meta["n_task_records"] = len(trace)
        meta["skipped_released"] = trace.skipped_released
        meta["makespan_s"] = trace.makespan()
    have_spans = registry is not None and bool(registry.spans)
    events.extend(_metadata_events(core_ids, have_spans))
    if trace is not None:
        events.extend(_task_events(trace))
    if registry is not None:
        events.extend(_counter_events(registry))
        events.extend(_span_events(registry))
        meta["counters"] = {k: registry.counters[k] for k in sorted(registry.counters)}
    if metadata is not None:
        meta.update(metadata)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": meta,
    }


def export_chrome_trace(
    path: str,
    trace: Optional[TraceRecorder] = None,
    registry: Optional[MetricsRegistry] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write the Chrome-trace JSON to ``path`` and return the envelope."""
    envelope = chrome_trace(trace=trace, registry=registry, metadata=metadata)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh, indent=None, separators=(",", ":"))
    return envelope
