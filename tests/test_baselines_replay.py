"""Exact replay of the checked-in campaign baselines.

``benchmarks/baselines/<preset>.jsonl`` pins every simulated number of
all eleven presets, 642 rows in all.  Every scenario of each preset runs
serially through :func:`~repro.campaign.runner.run_scenario`, and its
``status``, ``metrics``, ``stats`` and ``error`` must equal the checked-in
row — including the expected error rows of ``runtime_faults_sweep``
(static scheduler x guaranteed core kill).  ``fig1_hybrid`` (12 NAS rows
on the Fig. 1 memory hierarchy) is replayed whole, not a subset; it is
most of this module's run time.  CI's ``compare --tolerance 0`` steps
gate the same rows after a parallel run: at tolerance 0 every ``metrics``
key, every stat and each error type must match.  This test runs in tier-1
and also pins the error messages.

A deliberate change to simulated output regenerates the affected file
with ``python -m repro.campaign run --preset <name> --store <file>``.
"""

import json
from pathlib import Path

import pytest

from repro.campaign import build_preset, run_scenario

BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"

PRESETS = (
    "scheduler_matrix",
    "fig4_smoke",
    "fig4_resilience",
    "runtime_faults_sweep",
    "fig1_hybrid",
    "rsu_comparison",
    "fig2_rsu",
    "fig2_overhead",
    "fig5_parsec",
    "resilience_sweep",
    "smoke",
)

#: The record keys that are a pure function of the scenario (``timing``,
#: ``meta`` and ``obs`` describe the host run, not the simulation).
REPLAYED = ("status", "metrics", "stats", "error")


def _replayed(record):
    # A JSON round trip gives the fresh record the checked-in row's types
    # (tuples become lists, dict keys strings).
    return json.loads(json.dumps({k: record[k] for k in REPLAYED}))


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_replays_its_baseline_exactly(preset):
    lines = (BASELINES / f"{preset}.jsonl").read_text().splitlines()
    baseline = {row["id"]: row for row in map(json.loads, lines)}
    scenarios = list(build_preset(preset))
    assert len(baseline) == len(lines), "duplicate scenario ids"
    assert sorted(s.scenario_id for s in scenarios) == sorted(baseline)
    mismatched = []
    for scenario in scenarios:
        got = _replayed(run_scenario(scenario, campaign=preset))
        want = {k: baseline[scenario.scenario_id][k] for k in REPLAYED}
        if got != want:
            mismatched.append((scenario.scenario_id, got, want))
    assert not mismatched, (
        f"{len(mismatched)}/{len(scenarios)} rows differ; first: "
        f"{mismatched[0]}"
    )


def test_runtime_faults_baseline_errors_are_the_expected_ones():
    """The sweep's only error rows are static x guaranteed core kill."""
    lines = (BASELINES / "runtime_faults_sweep.jsonl").read_text().splitlines()
    errors = [r for r in map(json.loads, lines) if r["status"] != "ok"]
    assert len(errors) == 6
    for row in errors:
        assert row["scenario"]["scheduler"] == "static"
        assert row["scenario"]["params"]["core_kill_p"] == 1.0
        assert row["error"]["type"] in ("DeadlockError", "AllCoresDeadError")
