"""Aggregation and regression gating over result stores.

Two consumers:

* ``repro.campaign report`` — pivot the ok-records of one store into a
  per-axis summary table (CSV or markdown), e.g. makespan by
  family × scheduler.  Multiple records landing in one cell (several
  scales/seeds) are reduced by mean or geometric mean.
* ``repro.campaign compare`` — diff two stores scenario-by-scenario and
  flag metric regressions beyond a relative tolerance: the gate a CI job
  or a perf PR runs against a stored baseline.  At tolerance 0 the diff
  is exact: any changed metric or stat is a mismatch.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ..sim.stats import geometric_mean
from .store import ResultStore

__all__ = [
    "summarize",
    "summarize_obs",
    "render_table",
    "compare_stores",
    "CompareResult",
    "Regression",
]

#: Deterministic metrics; for each, "bigger is worse" drives regression
#: direction (n_tasks is gated exactly: any change is a mismatch).
DEFAULT_METRICS = ("makespan", "energy_j", "edp")


def _axis_value(record: dict, axis: str) -> Any:
    if axis in record["scenario"]:
        return record["scenario"][axis]
    return record["scenario"].get("params", {}).get(axis)


def summarize(
    records: Sequence[dict],
    rows: str = "family",
    cols: str = "scheduler",
    metric: str = "makespan",
    reduce: str = "mean",
) -> Tuple[List[str], List[List[str]]]:
    """Pivot ok-records into a table: one row per ``rows`` axis value,
    one column per ``cols`` axis value, cells reduced over duplicates.

    Returns ``(headers, body)`` ready for :func:`render_table`.
    """
    cells: Dict[Tuple, List[float]] = {}
    row_vals: List = []
    col_vals: List = []
    # Axis-sorted iteration: pivot layout must not depend on the store's
    # append order (parallel runs complete in nondeterministic order).
    records = sorted(
        records,
        key=lambda r: (
            r["scenario"]["family"],
            r["scenario"]["scheduler"],
            r["scenario"]["rsu"],
            r["scenario"]["n_cores"],
            r["scenario"]["scale"],
            r["scenario"]["seed"],
        ),
    )
    for rec in records:
        if rec["status"] != "ok":
            continue
        value = rec["metrics"].get(metric)
        if value is None:
            value = rec.get("timing", {}).get(metric)
        if value is None:
            continue
        r, c = _axis_value(rec, rows), _axis_value(rec, cols)
        if r not in row_vals:
            row_vals.append(r)
        if c not in col_vals:
            col_vals.append(c)
        cells.setdefault((r, c), []).append(float(value))

    def _reduce(values: List[float]) -> float:
        if reduce == "geomean":
            return geometric_mean(values)
        if reduce == "sum":
            return sum(values)
        return sum(values) / len(values)

    headers = [rows] + [str(c) for c in col_vals]
    body: List[List[str]] = []
    for r in row_vals:
        line = [str(r)]
        for c in col_vals:
            values = cells.get((r, c))
            line.append(f"{_reduce(values):.6g}" if values else "-")
        body.append(line)
    return headers, body


def summarize_obs(
    records: Sequence[dict], cols: str = "scheduler"
) -> Tuple[List[str], List[List[str]]]:
    """Pivot the observability blocks of ok-records into a table: one row
    per obs metric (namespaced ``counter:`` / ``timer:`` / ``span:`` /
    ``gauge:``), one column per ``cols`` axis value.

    Counters, timer totals and span totals are *summed* over the records
    landing in a cell; gauges report the cell's *max* (peaks are what a
    capacity question asks).  Raises ``ValueError`` when the store holds
    no ``"obs"`` blocks — i.e. the campaign ran without ``--obs``.

    Returns ``(headers, body)`` ready for :func:`render_table`.
    """
    cells: Dict[Tuple[str, Any], List[float]] = {}
    row_names: List[str] = []
    col_vals: List[Any] = []
    n_obs = 0
    records = sorted(
        records,
        key=lambda r: (
            r["scenario"]["family"],
            r["scenario"]["scheduler"],
            r["scenario"]["rsu"],
            r["scenario"]["n_cores"],
            r["scenario"]["scale"],
            r["scenario"]["seed"],
        ),
    )
    for rec in records:
        if rec["status"] != "ok":
            continue
        obs = rec.get("obs")
        if not obs:
            continue
        n_obs += 1
        c = _axis_value(rec, cols)
        if c not in col_vals:
            col_vals.append(c)
        flat: Dict[str, float] = {}
        for name, value in obs.get("counters", {}).items():
            flat[f"counter:{name}"] = float(value)
        for name, timer in obs.get("timers", {}).items():
            flat[f"timer:{name}_s"] = float(timer["total_s"])
        for name, span in obs.get("spans", {}).items():
            flat[f"span:{name}_s"] = float(span["total_s"])
        for name, gauge in obs.get("gauges", {}).items():
            flat[f"gauge:{name}:max"] = float(gauge["max"])
        for row_name, value in flat.items():
            if row_name not in row_names:
                row_names.append(row_name)
            cells.setdefault((row_name, c), []).append(value)
    if n_obs == 0:
        raise ValueError(
            "no ok-records with 'obs' blocks in this store; "
            "run the campaign with --obs to collect metrics"
        )
    headers = ["metric"] + [str(c) for c in col_vals]
    body: List[List[str]] = []
    for row_name in sorted(row_names):
        line = [row_name]
        for c in col_vals:
            values = cells.get((row_name, c))
            if values is None:
                line.append("-")
            elif row_name.startswith("gauge:"):
                line.append(f"{max(values):.6g}")
            else:
                line.append(f"{sum(values):.6g}")
        body.append(line)
    return headers, body


def render_table(
    headers: Sequence[str], body: Sequence[Sequence[str]], fmt: str = "md"
) -> str:
    """Render a pivot table as markdown (``md``) or ``csv``."""
    out = io.StringIO()
    if fmt == "csv":
        out.write(",".join(str(h) for h in headers) + "\n")
        for row in body:
            out.write(",".join(str(c) for c in row) + "\n")
        return out.getvalue()
    if fmt != "md":
        raise ValueError(f"unknown format {fmt!r}; choose 'md' or 'csv'")
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in body))
        if body
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    out.write(
        "| " + " | ".join(str(h).ljust(w) for h, w in zip(headers, widths)) + " |\n"
    )
    out.write("|" + "|".join("-" * (w + 2) for w in widths) + "|\n")
    for row in body:
        out.write(
            "| " + " | ".join(str(c).ljust(w) for c, w in zip(row, widths)) + " |\n"
        )
    return out.getvalue()


# ----------------------------------------------------------------------
# store-vs-store regression gating
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Regression:
    """One flagged metric change between baseline and candidate."""

    scenario_id: str
    describe: str
    metric: str
    baseline: float
    candidate: float

    @property
    def rel_change(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.candidate != 0 else 0.0
        return self.candidate / self.baseline - 1.0


@dataclass
class CompareResult:
    """Outcome of diffing two stores."""

    regressions: List[Regression]
    improvements: List[Regression]
    mismatches: List[str]  # structural problems, human-readable
    n_compared: int

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.mismatches

    def describe(self) -> str:
        lines = [
            f"compared {self.n_compared} scenarios: "
            f"{len(self.regressions)} regressions, "
            f"{len(self.improvements)} improvements, "
            f"{len(self.mismatches)} mismatches"
        ]
        for reg in self.regressions:
            lines.append(
                f"  REGRESSION {reg.scenario_id} [{reg.describe}] "
                f"{reg.metric}: {reg.baseline:.6g} -> {reg.candidate:.6g} "
                f"({reg.rel_change:+.2%})"
            )
        for imp in self.improvements:
            lines.append(
                f"  improved   {imp.scenario_id} [{imp.describe}] "
                f"{imp.metric}: {imp.baseline:.6g} -> {imp.candidate:.6g} "
                f"({imp.rel_change:+.2%})"
            )
        for msg in self.mismatches:
            lines.append(f"  MISMATCH   {msg}")
        return "\n".join(lines)


def _describe_axes(record: dict) -> str:
    s = record["scenario"]
    label = (
        f"{s['family']} {s['scheduler']} rsu={s['rsu']} "
        f"c{s['n_cores']} x{s['scale']} s{s['seed']}"
    )
    params = s.get("params")
    if params is not None and len(params) > 0:
        # Param axes (fault plans, workload knobs) are what distinguish
        # e.g. fig4 rows sharing every positional axis — a regression
        # label without them would point at a dozen scenarios at once.
        label += " " + " ".join(
            f"{k}={v}" for k, v in sorted(params.items())
        )
    return label


def _changed_keys(base: Dict[str, Any], cand: Dict[str, Any]) -> List[str]:
    """Sorted keys whose values differ between two ``metrics`` or
    ``stats`` dicts; a key present on one side only differs too."""
    return sorted(
        key for key in base.keys() | cand.keys()
        if key not in base or key not in cand or base[key] != cand[key]
    )


def compare_stores(
    baseline: ResultStore,
    candidate: ResultStore,
    tolerance: float = 0.01,
    metrics: Sequence[str] = DEFAULT_METRICS,
) -> CompareResult:
    """Flag scenarios where ``candidate`` is worse than ``baseline``.

    A metric regresses when its relative increase exceeds ``tolerance``
    (all gated metrics are bigger-is-worse).  Task-count changes, status
    flips (ok → error) and scenarios missing from the candidate are
    structural mismatches.  Scenarios only present in the candidate are
    ignored — growing a campaign is not a regression.

    ``tolerance == 0`` is an exact compare: any difference in any
    ``metrics`` key or in ``stats`` is a mismatch too, improvements
    included, and so is a different error type between two errored rows.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    regressions: List[Regression] = []
    improvements: List[Regression] = []
    mismatches: List[str] = []
    n_compared = 0
    for rec_id in sorted(baseline.ids()):
        base = baseline.get(rec_id)
        cand = candidate.get(rec_id)
        label = _describe_axes(base)
        if cand is None:
            mismatches.append(f"{rec_id} [{label}] missing from candidate store")
            continue
        n_compared += 1
        if base["status"] != cand["status"]:
            mismatches.append(
                f"{rec_id} [{label}] status {base['status']} -> {cand['status']}"
            )
            continue
        if base["status"] != "ok":
            # Both errored; an exact compare also requires the same error.
            b_err, c_err = base["error"]["type"], cand["error"]["type"]
            if tolerance == 0 and b_err != c_err:
                mismatches.append(
                    f"{rec_id} [{label}] error {b_err} -> {c_err}"
                )
            continue
        if base["metrics"]["n_tasks"] != cand["metrics"]["n_tasks"]:
            mismatches.append(
                f"{rec_id} [{label}] n_tasks "
                f"{base['metrics']['n_tasks']} -> {cand['metrics']['n_tasks']}"
            )
            continue
        for metric in metrics:
            b = base["metrics"].get(metric)
            c = cand["metrics"].get(metric)
            if b is None or c is None:
                continue
            entry = Regression(rec_id, label, metric, float(b), float(c))
            if entry.rel_change > tolerance:
                regressions.append(entry)
            elif entry.rel_change < -tolerance:
                improvements.append(entry)
        if tolerance == 0:
            for part in ("metrics", "stats"):
                changed = _changed_keys(base[part], cand[part])
                if changed:
                    mismatches.append(
                        f"{rec_id} [{label}] {part} changed: "
                        + ", ".join(changed)
                    )
    return CompareResult(regressions, improvements, mismatches, n_compared)
