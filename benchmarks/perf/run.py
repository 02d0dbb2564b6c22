"""Host-performance benchmark of the reproduction (see README.md here).

Four workloads, each run as a closed loop in a fresh process; outputs are
checked against golden digests and model invariants.  Run from anywhere::

    python3 benchmarks/perf/run.py                         # all four, seed 1
    python3 benchmarks/perf/run.py --workload dag_build_run --seed 3 --trace 0
    python3 benchmarks/perf/run.py --workload nas_memory --trace 1   # per layer
    python3 benchmarks/perf/run.py --workload stream_window --out runs/B
    python3 benchmarks/perf/run.py compare runs/A runs/B   # parent vs change
    python3 benchmarks/perf/run.py ledger                  # ledger/seed.json
    python3 benchmarks/perf/run.py golden                  # golden.json

The last line of a measuring run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import perf_compare  # noqa: E402
import perf_ref  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
#: Set-up is measured this many times per untraced run (median reported):
#: once per process, from spawn to the first timed unit.
SETUP_SAMPLES = 5
#: A workload process still running this long after its measuring time is
#: killed, and the run fails.
GRACE_S = 100.0
#: Seeds with checked-in golden digests; untraced runs (seeds 1..N) per
#: workload in the ledger, plus one traced run.
GOLDEN_SEEDS = (1, 2)
LEDGER_RUNS = 5


class BenchError(RuntimeError):
    """A workload process did not complete the protocol."""


def spawn(
    workload: str, seed: int, seconds: float, trace: bool, setup_only: bool
) -> Tuple[float, Dict[str, Any], Optional[Dict[str, Any]]]:
    """Run one workload process; returns (set-up seconds, READY, RESULT).

    Set-up is the wall time from spawn to the READY line.
    """
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(trace)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    ready: Optional[Dict[str, Any]] = None
    result: Optional[Dict[str, Any]] = None
    setup_s = 0.0
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    watchdog = threading.Timer(seconds + GRACE_S, proc.kill)
    watchdog.start()
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.startswith("READY "):
                setup_s = time.perf_counter() - t0
                ready = json.loads(line[len("READY "):])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready is None or (result is None and not setup_only):
        raise BenchError(f"{workload} process exited with code {proc.returncode}")
    return setup_s, ready, result


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One benchmark run of one workload (``--workload W --seed N``).

    Each set-up is converted to reference speed with the reference-loop
    times the workload process measures first and last in its set-up, on
    its own CPU.
    """
    readies = []
    setups = []
    n = 1 if trace else SETUP_SAMPLES
    for k in range(n):
        setup_only = k < n - 1
        setup_s, ready, out = spawn(workload, seed, seconds, trace, setup_only)
        setups.append((setup_s, setup_s * perf_ref.factor(*ready["loops"])))
        if setup_only:
            readies.append(ready)
    assert out is not None
    result = out["result"]
    for ready in readies:
        result["attempted"] += ready["attempted"]
        result["failed"] += ready["failed"]
    result["correct"] = result["correct"] and result["failed"] == 0
    if not trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(ref for _, ref in setups), "unit": "s"},
            **result["metrics"],
        }
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "unix_time": time.time(),
        "setup_wall_s": [wall for wall, _ in setups],
        "setup_s": [ref for _, ref in setups],
        "info": out["info"],
        "result": result,
    }


def report(run: Dict[str, Any]) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    info, result = run["info"], run["result"]
    print(
        f"# {run['workload']}  seed={run['seed']}  trace={run['trace']}  "
        f"closed loop from one process (campaign pool: {info['workers']} workers)"
    )
    print(f"#   item = one simulated {info['item']}; caches: {info['caches']}")
    print(
        f"#   {info['unit_runs']} unit runs of {info['units']} distinct units, "
        f"{info['items']} items in {info['wall_s']:.2f} s "
        f"wall = {info['ref_s']:.2f} s at reference speed "
        f"({info['items'] / info['wall_s']:.6g} items per wall second)"
    )
    for name, m in result["metrics"].items():
        n = len(run["setup_s"]) if name == "setup_s" else (
            1 if name == "peak_rss_mb" else info["units"]
        )
        print(f"{name:34s} {m['value']:>14.6g} {m['unit']:8s} (n={n})")
    counts = " ".join(f"{k}={v}" for k, v in info["counts"].items())
    print(f"#   outcomes: {counts}")
    for line in info["failures"]:
        print(f"#   FAILED {line}")
    if "trace_file" in info:
        print(f"#   chrome trace: {info['trace_file']}")


def save(run: Dict[str, Any], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{run['workload']}-trace{run['trace']}-seed{run['seed']}.json"
    (out_dir / name).write_text(json.dumps(run, indent=1), encoding="utf-8")


# ----------------------------------------------------------------------
# golden digests and the ledger
# ----------------------------------------------------------------------
def write_golden(seeds: Sequence[int]) -> int:
    """Digest every unit of every workload cycle for ``seeds``."""
    import perf_harness as ph
    import perf_workloads as pw

    doc: Dict[str, Any] = {
        "schema": 1,
        "digest": "sha256[:16] of the canonical JSON of each unit's simulated outputs",
        "workloads": {},
    }
    for name in WORKLOADS:
        for seed in seeds:
            wl = ph.make_workload(name, seed, None, ph.OUT)
            bad = []
            for i in range(wl.steps):
                bad += [o for o in wl.step(i).outcomes if o.kind in pw.FAILED_KINDS]
            wl.close()
            if bad:
                print(f"{name} seed {seed}: {bad[:3]}", file=sys.stderr)
                return 1
            digests = [wl.digests[k] for k in range(wl.cycle)]
            doc["workloads"].setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} units", file=sys.stderr)
    (HERE / "golden.json").write_text(
        json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8"
    )
    return 0


def fingerprint() -> Dict[str, Any]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "git_rev": rev,
    }


def write_ledger(runs: int, seconds: float, path: Path) -> int:
    """``runs`` untraced runs (seeds 1..runs) and one traced run per workload."""
    entries: List[Dict[str, Any]] = []
    for name in WORKLOADS:
        for seed in range(1, runs + 1):
            entries.append(run_once(name, seed, seconds, trace=False))
            report(entries[-1])
        entries.append(run_once(name, 1, seconds, trace=True))
        report(entries[-1])
    doc = {
        "host": fingerprint(),
        "run_seconds": seconds,
        "spread": perf_compare.spreads([e for e in entries if not e["trace"]]),
        "runs": entries,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if all(e["result"]["correct"] for e in entries) else 1


# ----------------------------------------------------------------------
def parse(argv: Sequence[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        description="Four-workload host-performance benchmark",
        epilog="subcommands: compare A B | ledger | golden",
    )
    p.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="also write each run's JSON here")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: Sequence[str]) -> int:
    if argv and argv[0] == "compare":
        return perf_compare.main(argv[1:], SPEC)
    if argv == ["golden"]:
        return write_golden(GOLDEN_SEEDS)
    if argv == ["ledger"]:
        return write_ledger(LEDGER_RUNS, SPEC["run_seconds"], HERE / "ledger" / "seed.json")
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else SPEC["run_seconds"]
    if args.child:
        first_loop = perf_ref.probe()
        import perf_harness

        return perf_harness.child_main(
            args.workload, args.seed, seconds, bool(args.trace), args.setup_only, first_loop
        )
    runs = []
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            runs.append(run_once(workload, args.seed, seconds, bool(args.trace)))
            report(runs[-1])
            if args.out is not None:
                save(runs[-1], args.out)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(runs) == 1:
        final = runs[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": {
                f"{r['workload']}.{k}": v
                for r in runs
                for k, v in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
