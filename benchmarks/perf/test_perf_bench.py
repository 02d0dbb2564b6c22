"""Self-test of the host-performance benchmark, at smoke size.

Run with ``pytest benchmarks/perf``.  Each workload runs a unit or two;
the end-to-end test drives the real command line once per mode.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import perf_harness as ph  # noqa: E402
import perf_workloads as pw  # noqa: E402
from perf_trace import Tracer  # noqa: E402
from repro.core.runtime import Runtime  # noqa: E402
from repro.obs import scoped  # noqa: E402

SPEC = json.loads((ph.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: One cheap step per workload: the pipeline graph, the first window, a
#: pass over a subset of scenarios, the first access batch.
SMOKE_STEP = {"dag_build_run": 4, "stream_window": 0, "campaign_sweep": 0, "nas_memory": 0}


def smoke_workload(name, tmp_path, golden="checked-in"):
    if golden == "checked-in":
        golden = ph.load_golden(name, 1)
    wl = ph.make_workload(name, 1, golden, tmp_path)
    if isinstance(wl, pw.CampaignSweep):
        # Every 24th scenario, plus the fig4_smoke rows the pass-0
        # baseline comparison needs.
        wl.base = [
            (i, s) for i, s in wl.base if i % 24 == 0 or s.family.startswith("fig4:")
        ]
    return wl


def test_benchmark_json_follows_the_schema():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert SPEC["command"][1].startswith("benchmarks/perf/")
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(pw.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_with_its_unit(trace, tmp_path):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", "stream_window",
        "--seconds", "0.3", "--trace", str(trace), "--out", str(tmp_path),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    line = _last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in line["metrics"].items()
    }
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())
    if not trace:
        # A run compared with itself reads unchanged on every metric.
        cmp = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "compare", str(tmp_path), str(tmp_path)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        rows = [r for r in cmp.stdout.splitlines()[1:] if r.strip()]
        assert len(rows) == len(SPEC["end_to_end"])
        assert all(" unchanged " in r for r in rows)


@pytest.mark.parametrize("name", pw.WORKLOADS)
def test_golden_and_invariant_checks_pass(name, tmp_path):
    wl = smoke_workload(name, tmp_path)
    assert wl.golden is not None
    outcomes = wl.warm_up() + wl.step(SMOKE_STEP[name]).outcomes
    wl.close()
    assert outcomes
    assert {o.kind for o in outcomes} <= {"ok", "expected_error"}, [
        (o.kind, o.detail) for o in outcomes if o.kind not in ("ok", "expected_error")
    ]


def test_corrupted_digest_is_counted_as_wrong_output(tmp_path):
    golden = list(ph.load_golden("dag_build_run", 1))
    golden[4] = "0" * 16
    wl = smoke_workload("dag_build_run", tmp_path, golden=golden)
    (outcome,) = wl.step(4).outcomes
    assert outcome.kind == "wrong_output"
    assert ph.tally([outcome])["failed"] == 1


def test_failures_are_typed():
    def record(scheduler, kill_p, error=None):
        return {
            "id": "x", "status": "error" if error else "ok",
            "scenario": {"family": "faulty:reexec", "scheduler": scheduler,
                         "n_cores": 8, "params": {"core_kill_p": kill_p}},
            "metrics": None, "stats": None, "error": error, "timing": {"wall_s": 0.1},
        }

    wl = pw.CampaignSweep(1, None, "unused", 1, "unused")
    kind = lambda rec: wl._judge_record(0, rec).kind  # noqa: E731
    assert kind(record("static", 1.0, {"type": "AllCoresDeadError"})) == "expected_error"
    assert kind(record("fifo", 1.0, {"type": "AllCoresDeadError"})) == "unexpected_error"
    assert kind(record("static", 1.0, {"type": "ValueError"})) == "unexpected_error"
    timeout = {"type": "ScenarioTimeout", "reason": "timeout"}
    assert kind(record("fifo", 0.0, timeout)) == "timeout"
    bad_stats = {"accesses": 10.0, "l1_hits": 4.0, "l1_misses": 5.0}
    assert pw._cache_violations(bad_stats)


@pytest.mark.parametrize("name", pw.WORKLOADS)
def test_tracing_moves_no_simulated_number_and_self_times_add_up(name, tmp_path):
    i = SMOKE_STEP[name]
    wl = smoke_workload(name, tmp_path)
    untraced = wl.step(i)
    wl.close()
    original_run = Runtime.run
    wl = smoke_workload(name, tmp_path)
    if isinstance(wl, pw.CampaignSweep):
        wl.workers = 1
    tracer = Tracer()
    with scoped() as registry, tracer:
        wl.span = tracer.span
        traced = wl.step(i)
        wl.close()
    assert Runtime.run is original_run  # every patch is restored
    assert [o.digest for o in traced.outcomes] == [o.digest for o in untraced.outcomes]
    assert {o.kind for o in traced.outcomes} <= {"ok", "expected_error"}

    base, phase = ph.Phase(), ph.Phase()
    base.add(untraced)
    phase.add(traced)
    metrics = ph.layer_metrics(tracer, registry, phase, base)
    assert {m["name"] for m in SPEC["per_layer"]} == set(metrics)
    covered = {s for spans in ph.SELF_TIME.values() for s in spans}
    assert set(tracer.by_name()) <= covered
    self_us = sum(metrics[m]["value"] for m in ph.SELF_TIME) * phase.items
    (unit_span,) = [s for s in tracer.spans if s[0] == "unit"]
    unit_us = (unit_span[2] - unit_span[1]) / 1e3
    assert self_us == pytest.approx(tracer.root_ns / 1e3, rel=1e-9)
    assert self_us == pytest.approx(unit_us, rel=0.05)
