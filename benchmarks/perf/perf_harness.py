"""Workload-process side of the benchmark: warm up, measure, report.

``run.py`` starts this in a fresh process per workload run.  The process
builds the workload's inputs from the seed, runs one untimed warm-up unit,
announces ``READY`` (the parent times set-up up to that line), then runs
the closed loop for the requested seconds at reference speed
(:mod:`perf_ref`) and announces ``RESULT``.

* Untraced (``--trace 0``): the end-to-end metrics.
* Traced (``--trace 1``): half the time untraced, half with every layer
  wrapped (:mod:`perf_trace`) and the ``repro.obs`` registry enabled; the
  per-layer metrics, plus ``trace_overhead_ratio`` = traced / untraced
  median host µs per item.  ``campaign_sweep`` splits its time in three:
  untraced on the worker pool (for the runner overhead ratio), then
  untraced and traced with one worker, so the wrappers see inside
  scenarios and the trace overhead compares like with like.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import perf_ref  # noqa: E402
import perf_workloads as pw  # noqa: E402
from perf_trace import Tracer  # noqa: E402
from repro.obs import MetricsRegistry, scoped  # noqa: E402

GOLDEN = HERE / "golden.json"
BASELINE = ROOT / "benchmarks" / "baselines" / "fig4_smoke.jsonl"
OUT = HERE / "out"
#: A phase stops after this many times its length in wall seconds.
WALL_LIMIT = 3.0


def load_golden(name: str, seed: int) -> Optional[List[str]]:
    """The checked-in digests of ``name`` for ``seed`` (None if absent)."""
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return doc["workloads"].get(name, {}).get(str(seed))


def n_workers() -> int:
    """Pool size for ``campaign_sweep``: at most 2, never above ``nproc``."""
    return min(2, len(os.sched_getaffinity(0)))


def make_workload(name: str, seed: int, golden: Optional[List[str]], out_dir: Path) -> pw.Workload:
    return pw.make(name, seed, golden, str(out_dir / "work"), n_workers(), str(BASELINE))


@dataclass
class Phase:
    """Everything one closed-loop phase measured.

    ``wall_s`` is wall time; ``ref_s``, ``inner_ref_s`` and ``samples`` are
    at reference speed (:mod:`perf_ref`).  ``samples`` maps each unit's
    ordinal to its host µs per item, once per time the unit ran.
    """

    wall_s: float = 0.0
    ref_s: float = 0.0
    items: int = 0
    inner_ref_s: float = 0.0
    samples: Dict[int, List[float]] = field(default_factory=dict)
    outcomes: List[pw.Outcome] = field(default_factory=list)
    model: Dict[str, float] = field(default_factory=dict)

    def add(self, step: pw.Step, speed: float = 1.0) -> None:
        """Fold in one step; ``speed`` = reference seconds per wall second."""
        self.wall_s += step.wall_s
        self.ref_s += step.wall_s * speed
        self.items += step.items
        self.inner_ref_s += step.inner_s * speed
        for ordinal, us in step.samples:
            self.samples.setdefault(ordinal, []).append(us * speed)
        self.outcomes += step.outcomes
        for k, v in step.model.items():
            self.model[k] = self.model.get(k, 0.0) + v

    def unit_costs(self) -> List[float]:
        """Host µs per item of each distinct unit (mean over its runs).

        Percentiles over distinct units weigh every input of the cycle
        once, so they do not shift with how much of a second pass over the
        cycle a run happened to reach.
        """
        return [statistics.fmean(v) for v in self.samples.values()]

    def runs(self) -> int:
        return sum(len(v) for v in self.samples.values())


def run_phase(wl: pw.Workload, seconds: float) -> Phase:
    """Run steps back to back (a closed loop) for ``seconds``; at least one.

    The reference loop runs between steps, so each step is converted to
    reference speed with the loop times just before and just after it.
    The phase lasts ``seconds`` at reference speed, so it does the same
    work however busy the host is; a host slower than a third of reference
    speed cuts it short.
    """
    phase = Phase()
    wall_deadline = time.perf_counter() + WALL_LIMIT * seconds
    cpus = wl.probe_cpus()
    before = perf_ref.probe(cpus)
    i = 0
    while True:
        try:
            step = wl.step(i)
        except Exception as exc:  # a crashed unit is a typed failure, not a crash
            traceback.print_exc()
            step = pw.Step(outcomes=[pw.Outcome(-1, "unexpected_error", "", repr(exc))])
        after = perf_ref.probe(cpus)
        if step.loop_s is not None:
            phase.add(step, perf_ref.NOMINAL_S / step.loop_s)
        else:
            phase.add(step, perf_ref.factor(before, after))
        before = after
        i += 1
        if phase.ref_s >= seconds or time.perf_counter() >= wall_deadline:
            break
    wl.close()
    return phase


def p50_p90(costs: List[float]) -> Tuple[float, float]:
    if len(costs) < 2:
        return costs[0], costs[0]
    deciles = statistics.quantiles(costs, n=10, method="inclusive")
    return statistics.median(costs), deciles[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def e2e_metrics(phase: Phase) -> Dict[str, Dict[str, Any]]:
    """End-to-end metrics of an untraced phase (``setup_s`` is the parent's)."""
    p50, p90 = p50_p90(phase.unit_costs())
    return {
        "items_per_s": {"value": phase.items / phase.ref_s, "unit": "1/s"},
        "us_per_item_p50": {"value": p50, "unit": "us"},
        "us_per_item_p90": {"value": p90, "unit": "us"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


#: Self-time metrics: metric name -> the span names whose self time it sums.
#: Together they cover every span, so they add up to the traced wall time.
SELF_TIME: Dict[str, Tuple[str, ...]] = {
    "harness.self.us": ("unit",),
    "apps.build.us": ("apps.build",),
    "apps.nas.generate_trace.us": ("apps.nas.generate_trace",),
    "core.deps.submit.us": ("core.deps.submit",),
    "core.deps.kernel.us": ("core.deps.kernel",),
    "core.graph.analysis.us": ("core.graph.analysis",),
    "core.runtime.self.us": ("core.runtime",),
    "core.prune.us": ("core.prune",),
    "sim.events.push.us": ("sim.events.push",),
    "sim.events.pop.us": ("sim.events.pop",),
    "core.schedulers.push.us": ("core.schedulers.push",),
    "core.schedulers.pop.us": ("core.schedulers.pop",),
    "sim.cpu.work.us": ("sim.cpu.work",),
    "sim.machine.build.us": ("sim.machine.build",),
    "sim.machine.finalize.us": ("sim.machine.finalize",),
    "sim.rsu.notify.us": ("sim.rsu.notify",),
    "resilience.fig4_run.us": ("resilience.fig4_run",),
    "campaign.run.us": ("campaign.run", "campaign.scenario"),
    "campaign.store.append.us": ("campaign.store.append",),
    "memory.hierarchy.self.us": ("memory.hierarchy",),
    "memory.hierarchy.finish.us": ("memory.hierarchy.finish",),
    "memory.cache.access.us": ("memory.cache.access",),
    "memory.cache.fill.us": ("memory.cache.fill",),
    "memory.coherence.us": ("memory.coherence",),
    "memory.spm.us": ("memory.spm",),
    "sim.noc.send.us": ("sim.noc.send",),
    "python.gc.us": ("python.gc",),
}

#: Call counts per item: metric name -> span names.
CALLS: Dict[str, Tuple[str, ...]] = {
    "sim.events.push.calls": ("sim.events.push",),
    "core.schedulers.push.calls": ("core.schedulers.push",),
    "core.schedulers.pop.calls": ("core.schedulers.pop",),
    "sim.rsu.notify.calls": ("sim.rsu.notify",),
    "memory.coherence.calls": ("memory.coherence",),
    "sim.noc.send.calls": ("sim.noc.send",),
    "python.gc.collections": ("python.gc",),
}

#: ``repro.obs`` counters per item: metric name -> counter name.
COUNTERS: Dict[str, str] = {
    "core.deps.kernel_batches": "kernel_batches",
    "core.deps.kernel_fallbacks": "kernel_fallbacks",
    "core.deps.edges_inserted": "edges_inserted",
    "core.deps.region_cache_hits": "region_cache_hits",
    "core.runtime.wakeups": "wakeups",
    "sim.events.steps": "events_processed",
    "sim.events.compactions": "event_compactions",
    "resilience.faults_fired": "runtime_faults_fired",
    "resilience.tasks_reexecuted": "tasks_reexecuted",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    registry: MetricsRegistry,
    traced: Phase,
    base: Phase,
    pool: Optional[Phase] = None,
) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics of a traced phase, normalised per simulated item.

    ``base`` is the untraced phase of the same configuration; ``pool`` the
    untraced ``campaign_sweep`` phase on the worker pool.
    """
    items = traced.items
    by = tracer.by_name()
    out: Dict[str, Dict[str, Any]] = {}
    us_per_ns = traced.ref_s / traced.wall_s / 1e3  # at reference speed

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for name, spans in SELF_TIME.items():
        put(name, sum(by.get(s, (0, 0, 0))[2] for s in spans) * us_per_ns / items, "us/item")
    for name, spans in CALLS.items():
        put(name, sum(by.get(s, (0, 0, 0))[0] for s in spans) / items, "1/item")
    counters = registry.counters
    for name, counter in COUNTERS.items():
        put(name, counters.get(counter, 0.0) / items, "1/item")
    put("core.runtime.run.us", tracer.outer_total_ns("core.runtime") * us_per_ns / items, "us/item")
    submit_all_calls = sum(1 for s in tracer.spans if s[0] == "core.deps.submit")
    put(
        "core.deps.kernel_engaged_ratio",
        _ratio(counters.get("kernel_batches", 0.0), submit_all_calls),
        "ratio",
    )
    pops = by.get("core.schedulers.pop", (0, 0, 0))[0]
    put("core.schedulers.pop_hit_ratio", _ratio(tracer.pop_hits, pops), "ratio")
    prune = registry.span_totals().get("prune", (0.0, 0.0))
    put("core.prune.passes", prune[1] / items, "1/item")
    put(
        "campaign.runner.overhead_ratio",
        1.0 - _ratio(pool.inner_ref_s, n_workers() * pool.ref_s) if pool else 0.0,
        "ratio",
    )
    put("campaign.expected_errors", traced.model.get("expected_errors", 0.0) / items, "1/item")
    m = traced.model
    put(
        "memory.l1.hit_ratio",
        _ratio(m.get("l1_hits", 0.0), m.get("l1_hits", 0.0) + m.get("l1_misses", 0.0)),
        "ratio",
    )
    put(
        "memory.l2.hit_ratio",
        _ratio(m.get("l2_hits", 0.0), m.get("l2_hits", 0.0) + m.get("l2_misses", 0.0)),
        "ratio",
    )
    put("sim.noc.flit_hops", m.get("flit_hops", 0.0) / items, "1/item")
    put(
        "trace_overhead_ratio",
        statistics.median(traced.unit_costs()) / statistics.median(base.unit_costs()),
        "ratio",
    )
    return out


def tally(outcomes: List[pw.Outcome]) -> Dict[str, Any]:
    counts = {kind: 0 for kind in pw.OUTCOME_KINDS}
    for o in outcomes:
        counts[o.kind] += 1
    failed = sum(counts[k] for k in pw.FAILED_KINDS)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "counts": counts,
        "failures": [
            f"unit {o.ordinal}: {o.kind}: {o.detail}"
            for o in outcomes
            if o.kind in pw.FAILED_KINDS
        ][:5],
    }


def check_traced_digests(base: Phase, traced: Phase) -> int:
    """Observing must never move a simulated number: a traced unit whose
    digest differs from the same unit's untraced digest is a wrong output.
    Returns how many units both phases ran."""
    untraced = {o.ordinal: o.digest for o in base.outcomes if o.digest}
    both = 0
    for o in traced.outcomes:
        if o.ordinal in untraced:
            both += 1
            if o.digest != untraced[o.ordinal]:
                o.kind = "wrong_output"
                o.detail = f"traced digest {o.digest} != untraced {untraced[o.ordinal]}"
    return both


def prepare(name: str, seed: int, out_dir: Path = OUT) -> Tuple[pw.Workload, List[pw.Outcome]]:
    """Set-up: the input spec from the seed plus one untimed warm-up unit."""
    wl = make_workload(name, seed, load_golden(name, seed), out_dir)
    return wl, wl.warm_up()


def measure(
    wl: pw.Workload, warm: List[pw.Outcome], seconds: float, trace: bool, out_dir: Path = OUT
) -> Dict[str, Any]:
    """Run the timed closed loop; returns the result line and details."""
    info: Dict[str, Any] = {"item": wl.item, "caches": wl.caches, "workers": n_workers()}
    if not trace:
        phase = run_phase(wl, seconds)
        metrics = e2e_metrics(phase)
        outcomes = warm + phase.outcomes
        info.update(
            units=len(phase.samples), unit_runs=phase.runs(), items=phase.items,
            wall_s=phase.wall_s, ref_s=phase.ref_s,
        )
    else:
        pool = None
        if isinstance(wl, pw.CampaignSweep):
            # Runner overhead needs the pool; the wrappers and the
            # untraced reference for the trace overhead need one process.
            pool = run_phase(wl, seconds / 3)
            wl.workers = 1
            base = run_phase(wl, seconds / 3)
        else:
            base = run_phase(wl, seconds / 2)
        tracer = Tracer()
        with scoped() as registry, tracer:
            wl.span = tracer.span
            traced = run_phase(wl, seconds / 3 if pool else seconds / 2)
        compared = check_traced_digests(base, traced)
        metrics = layer_metrics(tracer, registry, traced, base, pool)
        outcomes = warm + base.outcomes + traced.outcomes + (pool.outcomes if pool else [])
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / f"trace-{wl.name}-seed{wl.seed}.json"
        tracer.write_chrome_trace(
            str(trace_path),
            {"workload": wl.name, "seed": wl.seed, "obs": registry.summary()},
        )
        info.update(
            units=len(traced.samples), unit_runs=traced.runs(), items=traced.items,
            wall_s=traced.wall_s, ref_s=traced.ref_s,
            trace_file=os.path.relpath(trace_path, ROOT), digests_compared=compared,
        )
    t = tally(outcomes)
    result = {
        "correct": t["failed"] == 0,
        "attempted": t["attempted"],
        "failed": t["failed"],
        "metrics": metrics,
    }
    info.update(counts=t["counts"], failures=t["failures"])
    return {"result": result, "info": info}


def child_main(
    workload: str, seed: int, seconds: float, trace: bool, setup_only: bool, first_loop: float
) -> int:
    """Entry point of the workload process; speaks the READY/RESULT protocol.

    READY carries the reference-loop times measured first (``first_loop``)
    and last in set-up, which convert set-up time to reference speed.
    """
    proto = sys.stdout
    sys.stdout = sys.stderr  # anything the program prints stays off the protocol
    wl, warm = prepare(workload, seed)
    ready = dict(tally(warm), loops=[first_loop, perf_ref.probe()])
    proto.write("READY " + json.dumps(ready) + "\n")
    proto.flush()
    if setup_only:
        wl.close()
        return 0
    out = measure(wl, warm, seconds, trace)
    proto.write("RESULT " + json.dumps(out) + "\n")
    proto.flush()
    return 0
