"""In-memory span tracing for the traced benchmark run.

The tracer patches public methods and module functions of ``repro.*`` at
class/module level for the duration of a ``with Tracer(...)`` block and
restores every attribute on exit; no source file is touched.  Each wrapped
call is a frame on one explicit stack:

* every call adds its duration to its parent frame's child time, so the
  *self time* of a layer is its span time minus the time of the spans it
  caused, and the self times of all frames sum exactly to the wall time of
  the root spans;
* hot calls (event-queue push/pop, scheduler push/pop, cache accesses, NoC
  messages ...) are only aggregated per ``(parent, name)`` as
  ``[count, total_ns, self_ns]``, so memory stays bounded;
* per-unit calls (workload build, ``submit_all``, ``run``, ``finalize``,
  one scenario, one access batch ...) are also kept as full spans
  ``(name, start, end, parent, unit)`` and written as Chrome-trace JSON.

CPython's cyclic garbage collector is reported as its own layer through
``gc.callbacks``: a collection is a child of whatever frame it interrupted
(collections between spans are not part of any traced time).
"""

from __future__ import annotations

import gc
import importlib
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_clock = time.perf_counter_ns

#: Root frame: collects the duration of every top-level span.
ROOT = "harness"
GC = "python.gc"

# (module, owner attribute path or None for a module function, attribute,
#  span name, full span?)
_Target = Tuple[str, Optional[str], str, str, bool]

#: Every wrapped entry point, by layer.  Module functions are patched in the
#: namespace their caller looks them up in (``repro.campaign.runner`` binds
#: the workload builders at import time).
TARGETS: Tuple[_Target, ...] = (
    # apps: workload construction
    ("repro.apps.dag_workloads", None, "make_workload", "apps.build", True),
    ("repro.apps.dag_workloads", None, "stream_window", "apps.build", True),
    ("repro.campaign.runner", None, "make_workload", "apps.build", True),
    ("repro.campaign.runner", None, "critical_chain_with_fillers", "apps.build", True),
    ("repro.campaign.runner", None, "build_pthreads", "apps.build", True),
    ("repro.campaign.runner", None, "build_ompss", "apps.build", True),
    # core.deps / core.depkernel: TDG construction
    ("repro.core.runtime", "Runtime", "submit_all", "core.deps.submit", True),
    ("repro.core.runtime", "Runtime", "submit", "core.deps.submit", False),
    ("repro.core.deps", "DependenceTracker", "register_batch", "core.deps.kernel", True),
    # core.graph: whole-graph analyses
    ("repro.core.graph", "TaskGraph", "prepare_wake_order", "core.graph.analysis", True),
    ("repro.core.graph", "TaskGraph", "compute_bottom_levels", "core.graph.analysis", True),
    # core.runtime: construction and the simulate loop (its remainder is
    # core.runtime self time)
    ("repro.core.runtime", "Runtime", "__init__", "core.runtime", True),
    ("repro.core.runtime", "Runtime", "run", "core.runtime", True),
    ("repro.core.runtime", "Runtime", "taskwait", "core.runtime", True),
    # core.runtime prune path
    ("repro.core.deps", "DependenceTracker", "prune_finished", "core.prune", True),
    ("repro.core.graph", "TaskGraph", "release_handles", "core.prune", True),
    # sim.events
    ("repro.sim.events", "EventQueue", "push", "sim.events.push", False),
    ("repro.sim.events", "EventQueue", "pop", "sim.events.pop", False),
    ("repro.sim.events", "EventQueue", "peek_time", "sim.events.pop", False),
    # sim.cpu / sim.machine
    ("repro.sim.cpu", "Core", "begin_work", "sim.cpu.work", False),
    ("repro.sim.cpu", "Core", "end_work", "sim.cpu.work", False),
    ("repro.sim.machine", "Machine", "__init__", "sim.machine.build", True),
    ("repro.sim.machine", "Machine", "finalize", "sim.machine.finalize", True),
    # sim.rsu (+ the sim.dvfs controller calls it makes)
    ("repro.sim.rsu", "RuntimeSupportUnit", "notify_task_start", "sim.rsu.notify", False),
    ("repro.sim.rsu", "RuntimeSupportUnit", "notify_task_end", "sim.rsu.notify", False),
    # resilience
    ("repro.resilience.fig4", None, "fig4_run", "resilience.fig4_run", True),
    # campaign.runner / campaign.store
    ("repro.campaign.runner", None, "run_campaign", "campaign.run", True),
    ("repro.campaign.runner", None, "run_scenario", "campaign.scenario", True),
    ("repro.campaign.store", "ResultStore", "append_all", "campaign.store.append", False),
    # memory.hierarchy
    ("repro.memory.hierarchy", "MemoryHierarchy", "__init__", "memory.hierarchy", True),
    ("repro.memory.hierarchy", "MemoryHierarchy", "run_batch", "memory.hierarchy", True),
    ("repro.memory.hierarchy", "MemoryHierarchy", "access", "memory.hierarchy", False),
    ("repro.memory.hierarchy", "MemoryHierarchy", "finish", "memory.hierarchy.finish", True),
    # memory.cache / memory.coherence / memory.spm / sim.noc
    ("repro.memory.cache", "SetAssocCache", "access", "memory.cache.access", False),
    ("repro.memory.cache", "SetAssocCache", "fill", "memory.cache.fill", False),
    ("repro.memory.coherence", "CoherenceDirectory", "read", "memory.coherence", False),
    ("repro.memory.coherence", "CoherenceDirectory", "write", "memory.coherence", False),
    ("repro.memory.coherence", "CoherenceDirectory", "evicted", "memory.coherence", False),
    ("repro.memory.spm", "Scratchpad", "access", "memory.spm", False),
    ("repro.memory.spm", "TilingStream", "advance", "memory.spm", False),
    ("repro.memory.spm", "TilingStream", "finish", "memory.spm", False),
    ("repro.memory.directory", "SpmFilter", "maybe_mapped", "memory.spm", False),
    ("repro.memory.directory", "SpmDirectory", "lookup", "memory.spm", False),
    ("repro.memory.directory", "SpmDirectory", "insert", "memory.spm", False),
    ("repro.memory.directory", "SpmDirectory", "remove", "memory.spm", False),
    ("repro.sim.noc", "MeshNoC", "send", "sim.noc.send", False),
)

#: Scheduler push/pop are wrapped on every public policy class; ``pop``
#: also counts the calls that returned a task.
SCHEDULER_CLASSES = (
    "FifoScheduler",
    "LifoScheduler",
    "BreadthFirstScheduler",
    "BottomLevelScheduler",
    "WorkStealingScheduler",
    "CriticalityAwareScheduler",
    "StaticScheduler",
)


class Tracer:
    """Span stack + aggregates; a context manager that installs the patches."""

    def __init__(self) -> None:
        #: Frames are ``[name, child_ns]``; the root frame never pops.
        self.stack: List[List[Any]] = [[ROOT, 0]]
        #: ``(parent, name) -> [count, total_ns, self_ns]``
        self.agg: Dict[Tuple[str, str], List[int]] = {}
        #: Full spans ``(name, start_ns, end_ns, parent, unit)``.
        self.spans: List[Tuple[str, int, int, str, Any]] = []
        self.unit: Any = None
        self.pop_hits = 0
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        self._gc_t0 = 0
        self.t_origin = _clock()

    # ------------------------------------------------------------------
    def _close(self, name: str, frame: List[Any], t0: int, t1: int, full: bool) -> None:
        dt = t1 - t0
        parent = self.stack[-1]
        parent[1] += dt
        key = (parent[0], name)
        slot = self.agg.get(key)
        if slot is None:
            self.agg[key] = [1, dt, dt - frame[1]]
        else:
            slot[0] += 1
            slot[1] += dt
            slot[2] += dt - frame[1]
        if full:
            self.spans.append((name, t0, t1, parent[0], self.unit))

    def _wrap(
        self, fn: Callable[..., Any], name: str, full: bool, count_hits: bool = False
    ) -> Callable[..., Any]:
        """``fn`` as a span named ``name``; ``count_hits`` counts the calls
        that returned something other than None (scheduler pops)."""
        stack = self.stack
        close = self._close
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                close(name, frame, t0, t1, full)
            if count_hits and result is not None:
                tracer.pop_hits += 1
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def span(self, name: str, unit: Any = None) -> Iterator[None]:
        """A full span opened by the benchmark itself (units, phases)."""
        if unit is not None:
            self.unit = unit
        frame = [name, 0]
        self.stack.append(frame)
        t0 = _clock()
        try:
            yield
        finally:
            t1 = _clock()
            self.stack.pop()
            self._close(name, frame, t0, t1, True)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_t0 = _clock()
        elif len(self.stack) > 1:  # between spans: not part of any traced time
            self._close(GC, [GC, 0], self._gc_t0, _clock(), False)

    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        # Resolve every original first, so a method inherited by two
        # patched classes is never wrapped twice.
        plan = []
        for module_name, owner_name, attr, name, full in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            plan.append((owner, attr, self._wrap(getattr(owner, attr), name, full)))
        schedulers = importlib.import_module("repro.core.schedulers")
        for cls_name in SCHEDULER_CLASSES:
            cls = getattr(schedulers, cls_name)
            plan.append(
                (cls, "push", self._wrap(cls.push, "core.schedulers.push", False))
            )
            plan.append(
                (cls, "pop", self._wrap(cls.pop, "core.schedulers.pop", False, True))
            )
        try:
            for owner, attr, replacement in plan:
                self._patch(owner, attr, replacement)
            gc.callbacks.append(self._on_gc)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    # ------------------------------------------------------------------
    def by_name(self) -> Dict[str, List[int]]:
        """``name -> [count, total_ns, self_ns]`` summed over parents."""
        out: Dict[str, List[int]] = {}
        for (_, name), (count, total, self_ns) in self.agg.items():
            slot = out.setdefault(name, [0, 0, 0])
            slot[0] += count
            slot[1] += total
            slot[2] += self_ns
        return out

    def outer_total_ns(self, name: str) -> int:
        """Inclusive time of ``name`` counting only its outermost calls."""
        return sum(
            total
            for (parent, n), (_, total, _) in self.agg.items()
            if n == name and parent != name
        )

    @property
    def root_ns(self) -> int:
        return self.stack[0][1]

    def write_chrome_trace(self, path: str, metadata: Dict[str, Any]) -> None:
        """Full spans as Chrome-trace ``X`` events; aggregates in metadata.

        Open the file at https://ui.perfetto.dev (or ``chrome://tracing``).
        """
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (t0 - self.t_origin) / 1e3,
                "dur": (t1 - t0) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"parent": parent, "unit": unit},
            }
            for name, t0, t1, parent, unit in self.spans
        ]
        aggregates = [
            {
                "parent": parent,
                "name": name,
                "count": count,
                "total_ms": total / 1e6,
                "self_ms": self_ns / 1e6,
            }
            for (parent, name), (count, total, self_ns) in sorted(self.agg.items())
        ]
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata, aggregates=aggregates),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
