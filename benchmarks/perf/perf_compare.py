"""``run.py compare A B``: parent runs (A) against change runs (B).

A and B are directories of untraced run files written with ``--out``.
Runs of the same workload and seed on the two sides form a pair; collect
them alternating which side runs first.  Each (metric, workload) row gets
one verdict, using the direction and bound of the metric in
``BENCHMARK.json``:

* ``improved``: at least 10 pairs, the change wins at least 9/10 of them
  (ties count for neither) and the medians differ by more than the
  parent's interquartile range;
* ``unresolved``: either side's interquartile range, as a share of its
  median, is wider than the bound, and not every change run beats every
  parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``unchanged``: otherwise.

Exit status 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: Path) -> List[Dict[str, Any]]:
    runs = []
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("trace") == 0 and "result" in doc:
            runs.append(doc)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spreads(runs: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """workload -> metric -> median, quartiles and IQR share of the runs."""
    values: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            values.setdefault(run["workload"], {}).setdefault(name, []).append(m["value"])
    out: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            q1, med, q3 = quartiles(vals)
            out.setdefault(workload, {})[name] = {
                "n": len(vals),
                "median": med,
                "q1": q1,
                "q3": q3,
                "iqr_share": (q3 - q1) / med if med else 0.0,
                "values": vals,
            }
    return out


def verdict(
    a: Dict[int, float], b: Dict[int, float], higher_is_better: bool, bound: float
) -> Dict[str, Any]:
    """Verdict for one (metric, workload); ``a``/``b`` map seed -> value."""
    sign = 1.0 if higher_is_better else -1.0
    qa1, med_a, qa3 = quartiles(list(a.values()))
    qb1, med_b, qb3 = quartiles(list(b.values()))
    seeds = sorted(set(a) & set(b))
    wins = sum(1 for s in seeds if sign * (b[s] - a[s]) > 0)
    spread = max((qa3 - qa1) / med_a, (qb3 - qb1) / med_b)
    b_beats_all = all(sign * (vb - va) > 0 for vb in b.values() for va in a.values())
    change = sign * (med_b - med_a) / med_a  # > 0: the change is better
    if (
        len(seeds) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(seeds)
        and abs(med_b - med_a) > qa3 - qa1
    ):
        status = "improved"
    elif spread > bound and not b_beats_all:
        status = "unresolved"
    elif change < -bound:
        status = "regressed"
    else:
        status = "unchanged"
    return {
        "status": status,
        "median_a": med_a,
        "median_b": med_b,
        "ratio": med_b / med_a,
        "pairs": len(seeds),
        "wins": wins,
        "spread": spread,
    }


def main(argv: Sequence[str], spec: Dict[str, Any]) -> int:
    """``spec`` is the parsed ``BENCHMARK.json`` (metric directions, bounds)."""
    p = argparse.ArgumentParser(prog="run.py compare", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", type=Path, help="directory of parent runs (A)")
    p.add_argument("change", type=Path, help="directory of change runs (B)")
    args = p.parse_args(argv)
    side: List[Dict[str, Dict[str, Dict[int, float]]]] = []
    for directory in (args.parent, args.change):
        by: Dict[str, Dict[str, Dict[int, float]]] = {}
        for run in load_runs(directory):
            for name, m in run["result"]["metrics"].items():
                by.setdefault(run["workload"], {}).setdefault(name, {})[run["seed"]] = m["value"]
        side.append(by)
    a_side, b_side = side
    print(
        f"{'metric':18s} {'workload':15s} {'verdict':11s} {'B/A':>7s}  "
        f"{'base: A median':>22s}  {'B wins':>7s}  {'spread':>7s}  bound"
    )
    regressed = False
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for workload in sorted(set(a_side) | set(b_side)):
            a = a_side.get(workload, {}).get(name, {})
            b = b_side.get(workload, {}).get(name, {})
            if not a or not b:
                print(f"{name:18s} {workload:15s} missing on one side")
                continue
            v = verdict(a, b, metric["better"] == "higher", metric["bound"])
            regressed |= v["status"] == "regressed"
            base = f"{v['median_a']:.6g} {metric['unit']}"
            print(
                f"{name:18s} {workload:15s} {v['status']:11s} {v['ratio']:7.4f}  "
                f"{base:>22s}  {v['wins']:>3d}/{v['pairs']:<3d}  "
                f"{v['spread']:7.2%}  {metric['bound']:.1%}"
            )
    return 1 if regressed else 0
