"""Figure 4 behind the campaign store: resilience records -> the figure.

Paper: *"The lightblue checkpointing scheme incurs a significant overhead
when rolling back, and the restart method, in green, has a slower
convergence afterwards, when compared to the ideal baseline, in red
[...] Our recovery technique, in purple, shows a convergence time close
to the ideal baseline, and its asynchronous counterpart, in blue,
displays an even smaller overhead."*

The experiment executes through the ``fig4_resilience`` campaign preset
— one record per (scheme, checkpoint interval, fault plan, grid) — so
the figure's raw numbers live in the same result-store/compare pipeline
as those of Figs 1, 2 and 5, and a baseline replay pins them.  The
five-curve summary is derived from the records
exactly as :func:`repro.resilience.fig4_curves` derives it from direct
runs; a small-setup equivalence test pins the two paths against each
other bit for bit.
"""

import pytest

from repro.campaign import Matrix, Scenario, build_preset, run_campaign
from repro.resilience import FIG4_SCHEMES, Fig4Setup, fig4_curves

from conftest import banner, table

#: The single-fault reference slice of the preset used for the figure:
#: the paper's hand-placed DUE (fault_window=0) at the larger grid.
FIGURE_GRID = 48
FIGURE_FAULT_TIME = 10.0
FIGURE_INTERVAL = 120


def _scheme_of(record):
    return record["scenario"]["family"].split(":", 1)[1]


def figure_slice(records):
    """Pick the one record per scheme that reproduces the paper figure."""
    picked = {}
    for rec in records:
        assert rec["status"] == "ok", rec.get("error")
        params = rec["scenario"]["params"]
        if params.get("grid") != FIGURE_GRID:
            continue
        scheme = _scheme_of(rec)
        if scheme == "ideal":
            picked[scheme] = rec
            continue
        if params.get("fault_time") != FIGURE_FAULT_TIME:
            continue
        if params.get("fault_window") != 0.0 or params.get("n_faults") != 1:
            continue
        if scheme == "checkpoint" and params.get("ckpt_interval") != FIGURE_INTERVAL:
            continue
        picked[scheme] = rec
    assert set(picked) == set(FIG4_SCHEMES), sorted(picked)
    return picked


@pytest.fixture(scope="module")
def records():
    summary = run_campaign(build_preset("fig4_resilience"))
    assert summary.n_errors == 0
    return summary.records


def _small_setup():
    return Fig4Setup(
        nx=24, ny=24, fault_time_s=3.0, fault_window_s=6.0, n_faults=2,
        checkpoint_interval=60, block_len=48,
    )


def test_fig4_campaign_family_matches_direct_path():
    """``fig4:<scheme>`` campaign records must reproduce the direct
    ``fig4_curves`` numbers bit for bit (small multi-DUE setup for
    speed).  The scenario params mirror the ``fig4_smoke`` preset."""
    setup = _small_setup()
    direct = fig4_curves(setup)
    by_axis = {
        "ideal": "Ideal",
        "checkpoint": f"Ckpt {setup.checkpoint_interval}",
        "lossy_restart": "Lossy Restart",
        "feir": "FEIR",
        "afeir": "AFEIR",
    }
    summary = run_campaign(build_preset("fig4_smoke"))
    assert summary.n_errors == 0
    for rec in summary.records:
        scheme = _scheme_of(rec)
        result = direct[by_axis[scheme]]
        metrics = rec["metrics"]
        assert metrics["makespan"] == result.convergence_time(), scheme
        assert metrics["n_tasks"] == result.iterations, scheme
        assert metrics["recovery_s"] == result.recovery_s, scheme
        assert metrics["fault_count"] == result.n_faults, scheme
        assert metrics["converged"] == int(result.converged), scheme


def test_fig4_resilience(benchmark, records):
    benchmark.pedantic(
        lambda: run_campaign(build_preset("fig4_smoke")),
        rounds=1,
        iterations=1,
    )

    picked = figure_slice(records)
    ideal_t = picked["ideal"]["metrics"]["makespan"]
    banner(
        f"Figure 4 from the store — CG + single DUE at "
        f"t={FIGURE_FAULT_TIME:.0f}s ({FIGURE_GRID}x{FIGURE_GRID} proxy), "
        f"{len(records)} records total"
    )
    rows = []
    for scheme in FIG4_SCHEMES:
        m = picked[scheme]["metrics"]
        rows.append(
            [
                scheme,
                "yes" if m["converged"] else "NO",
                m["n_tasks"],
                f"{m['makespan']:.1f}",
                f"+{m['makespan'] - ideal_t:.1f}s",
                f"{m['recovery_s']:.2f}",
            ]
        )
    table(
        ["mechanism", "converged", "iterations", "time (s)", "vs ideal",
         "recovery (s)"],
        rows,
    )

    times = {s: picked[s]["metrics"]["makespan"] for s in picked}
    # Shape: everything converges; Ideal <= AFEIR < FEIR < Ckpt, Restart.
    assert all(p["metrics"]["converged"] for p in picked.values())
    assert times["ideal"] <= times["afeir"]
    assert times["afeir"] < times["feir"]
    assert times["feir"] < times["checkpoint"]
    assert times["feir"] < times["lossy_restart"]
    # AFEIR hides most of FEIR's recovery latency.
    assert (times["afeir"] - ideal_t) < 0.5 * (times["feir"] - ideal_t)
    # Exactness: FEIR needs no extra iterations vs ideal.
    assert abs(
        picked["feir"]["metrics"]["n_tasks"]
        - picked["ideal"]["metrics"]["n_tasks"]
    ) <= 1


def test_multi_due_records_still_converge(records):
    """The campaign's multi-fault rows: every scheme rides out its plan.

    A planned fault whose time falls past convergence never fires (the
    no-op contract), so slow schemes absorb more of a late window than
    fast ones — but every row must converge, and the early windows must
    actually deliver all three DUEs to somebody."""
    multi = [
        r for r in records
        if r["scenario"]["params"].get("n_faults") == 3
    ]
    assert len(multi) > 0
    for rec in multi:
        assert rec["metrics"]["converged"] == 1, rec["scenario"]
        assert 0 <= rec["metrics"]["fault_count"] <= 3, rec["scenario"]
    assert any(r["metrics"]["fault_count"] == 3 for r in multi)
