"""Figure folds: one pure function per paper figure over its preset's records.

Every figure is ``fold(run_campaign(build_preset(name, ...)).records)``:

=================  ==================  ======================================
figure             preset              fold
=================  ==================  ======================================
Fig 1              ``fig1_hybrid``     :func:`fig1_speedups`
Sec 3.1 headline   ``fig2_rsu``        :func:`fig2_result`
Fig 2 motivation   ``fig2_overhead``   :func:`fig2_stalls`
Fig 5              ``fig5_parsec``     :func:`fig5_curves`
=================  ==================  ======================================

A fold takes its benchmarks, apps and core/thread counts from the
records, so it folds a preset built with any arguments, a live run or a
checked-in baseline alike, in any record order (a worker pool returns
records in completion order).  It raises ``ValueError`` naming the first
record that is not ``ok``, and names the row it lacks or finds twice: a
figure is never drawn from an error row or a mixed store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Mapping, TypeVar

import numpy as np

__all__ = [
    "Fig2Result",
    "fig1_speedups",
    "fig2_result",
    "fig2_stalls",
    "fig5_curves",
]

Record = Mapping[str, Any]
K = TypeVar("K")


def _index(
    records: Iterable[Record], key: Callable[[Dict[str, Any]], K]
) -> Dict[K, Record]:
    """``{key(scenario): record}`` over ok records; any other record, or
    two records under one key, is a ``ValueError``."""
    out: Dict[K, Record] = {}
    for rec in records:
        scenario = rec["scenario"]
        if rec["status"] != "ok":
            raise ValueError(
                f"record {rec['id']} ({scenario['family']}, "
                f"{scenario['n_cores']} cores) is not ok: {rec['error']}"
            )
        k = key(scenario)
        if k in out:
            raise ValueError(
                f"two records for {k!r}: {out[k]['id']}, {rec['id']}"
            )
        out[k] = rec
    return out


def _row(runs: Mapping[K, Record], key: K) -> Record:
    try:
        return runs[key]
    except KeyError:
        raise ValueError(f"no record for {key!r}") from None


def fig1_speedups(records: Iterable[Record]) -> Dict[str, Dict[str, float]]:
    """Fig 1's bars: cache-only over hybrid time, energy and NoC traffic.

    Returns ``{bench: {"time": x, "energy": x, "noc": x}}`` for every
    benchmark of the records, in name order, plus an ``AVG`` row (the
    arithmetic mean, as the paper's AVG bar).  A hybrid run with no NoC
    traffic counts as one flit-hop.
    """
    runs = _index(records, lambda s: (s["family"], s["params"]["mode"]))
    out: Dict[str, Dict[str, float]] = {}
    for family in sorted({family for family, _ in runs}):
        base = _row(runs, (family, "cache"))["metrics"]
        hyb = _row(runs, (family, "hybrid"))["metrics"]
        out[family.split(":", 1)[1]] = {
            "time": base["makespan"] / hyb["makespan"],
            "energy": base["energy_j"] / hyb["energy_j"],
            "noc": base["noc_flit_hops"] / max(hyb["noc_flit_hops"], 1.0),
        }
    out["AVG"] = {
        k: float(np.mean([bars[k] for bars in out.values()]))
        for k in ("time", "energy", "noc")
    }
    return out


@dataclass(frozen=True)
class Fig2Result:
    """Summary of the static vs criticality-aware comparison."""

    static_makespan: float
    aware_makespan: float
    static_edp: float
    aware_edp: float

    @property
    def performance_improvement(self) -> float:
        """Fractional speedup (paper: 0.066)."""
        return self.static_makespan / self.aware_makespan - 1.0

    @property
    def edp_improvement(self) -> float:
        """Fractional EDP reduction (paper: 0.200)."""
        return 1.0 - self.aware_edp / self.static_edp


def fig2_result(records: Iterable[Record]) -> Fig2Result:
    """Section 3.1's comparison: the static run (``rsu`` off) against the
    criticality-aware one (``rsu`` annotated)."""
    runs = _index(records, lambda s: s["rsu"])
    static = _row(runs, "off")["metrics"]
    aware = _row(runs, "annotated")["metrics"]
    return Fig2Result(
        static_makespan=static["makespan"],
        aware_makespan=aware["makespan"],
        static_edp=static["edp"],
        aware_edp=aware["edp"],
    )


def fig2_stalls(records: Iterable[Record]) -> Dict[str, Dict[int, float]]:
    """Fig 2's motivation: cumulative DVFS stall seconds per mechanism
    and core count, ``{"software" | "rsu": {cores: seconds}}``."""
    runs = _index(
        records,
        lambda s: (
            "software" if s["rsu"].endswith("software") else "rsu",
            s["n_cores"],
        ),
    )
    out: Dict[str, Dict[int, float]] = {"software": {}, "rsu": {}}
    for mechanism, n in sorted(runs):
        out[mechanism][n] = runs[(mechanism, n)]["stats"].get(
            "dvfs_stall_seconds", 0.0
        )
    return out


def fig5_curves(
    records: Iterable[Record],
) -> Dict[str, Dict[str, Dict[int, float]]]:
    """Fig 5's curves: ``{app: {variant: {threads: speedup}}}``.

    Speedup is against each variant's own single-thread run, as in the
    paper's scalability plots, so every ``parsec:<app>:<variant>`` needs
    its 1-thread row.  Apps, variants and thread counts come sorted.
    """
    runs = _index(records, lambda s: (s["family"], s["n_cores"]))
    curves: Dict[str, Dict[str, Dict[int, float]]] = {}
    for family, n in sorted(runs):
        _, app, variant = family.split(":")
        base = _row(runs, (family, 1))["metrics"]["makespan"]
        curves.setdefault(app, {}).setdefault(variant, {})[n] = (
            base / runs[(family, n)]["metrics"]["makespan"]
        )
    return curves
