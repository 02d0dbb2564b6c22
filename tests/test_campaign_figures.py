"""The figure folds of :mod:`repro.campaign.figures`, and the paper's bands
for Figs 1, 2 and 5 asserted on the checked-in baselines.

``benchmarks/baselines/`` holds the records of the ``fig1_hybrid``,
``fig2_rsu``, ``fig2_overhead`` and ``fig5_parsec`` presets at their
default (paper) scale, and ``tests/test_baselines_replay.py`` proves each
equal to a live run bit for bit, so the band tests here simulate nothing:
Fig 1 holds at 64 cores and the DVFS stall sweep up to 64 cores.
"""

import json
from pathlib import Path

import pytest

from repro.campaign import build_preset, run_campaign
from repro.campaign.figures import (
    fig1_speedups,
    fig2_result,
    fig2_stalls,
    fig5_curves,
)

BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"

#: Each fold with the preset whose records it folds.
every_fold = pytest.mark.parametrize(
    "fold, preset",
    [
        (fig1_speedups, "fig1_hybrid"),
        (fig2_result, "fig2_rsu"),
        (fig2_stalls, "fig2_overhead"),
        (fig5_curves, "fig5_parsec"),
    ],
    ids=["fig1_speedups", "fig2_result", "fig2_stalls", "fig5_curves"],
)


def baseline(preset):
    lines = (BASELINES / f"{preset}.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def failed(record):
    """``record`` as the runner writes a failed run of its scenario."""
    return dict(
        record,
        status="error",
        metrics=None,
        stats=None,
        error={"type": "RuntimeError", "message": "boom"},
    )


class TestFig1PaperBands:
    """Paper: average improvements of 14.7% (time), 18.5% (energy) and
    31.2% (NoC traffic); EP, with minimal SPM use, is not degraded."""

    @pytest.fixture(scope="class")
    def speedups(self):
        return fig1_speedups(baseline("fig1_hybrid"))

    def test_hybrid_wins_on_average(self, speedups):
        avg = speedups["AVG"]
        assert avg["time"] > 1.08
        assert avg["energy"] > 1.08
        assert avg["noc"] > 1.20

    def test_noc_reduction_is_the_largest_win(self, speedups):
        avg = speedups["AVG"]
        assert avg["noc"] == max(avg.values())

    def test_ep_is_neutral(self, speedups):
        assert speedups["EP"]["time"] == pytest.approx(1.0, abs=0.1)

    def test_no_benchmark_degrades(self, speedups):
        assert list(speedups) == ["CG", "EP", "FT", "IS", "MG", "SP", "AVG"]
        for bench, bars in speedups.items():
            for metric in ("time", "energy", "noc"):
                assert bars[metric] >= 0.95, (bench, metric)


class TestFig2PaperBands:
    """Paper: 6.6% performance and 20.0% EDP over static scheduling on 32
    cores; software reconfiguration cost rises with the core count."""

    def test_performance_improvement_band(self):
        result = fig2_result(baseline("fig2_rsu"))
        assert 0.03 <= result.performance_improvement <= 0.12

    def test_edp_improvement_band(self):
        result = fig2_result(baseline("fig2_rsu"))
        assert 0.12 <= result.edp_improvement <= 0.32

    @pytest.fixture(scope="class")
    def stalls(self):
        return fig2_stalls(baseline("fig2_overhead"))

    def test_software_stall_grows_with_cores(self, stalls):
        sw = stalls["software"]
        assert list(sw) == [4, 8, 16, 32, 64]
        assert sw[64] > sw[32] > sw[16] > sw[8] > sw[4]

    def test_software_growth_is_superlinear(self, stalls):
        sw = stalls["software"]
        assert sw[64] / sw[4] > 16  # 16x the cores, more than 16x the stall

    def test_rsu_stall_stays_negligible(self, stalls):
        assert max(stalls["rsu"].values()) < 0.01 * stalls["software"][64]


class TestFig5PaperBands:
    """Paper: the OmpSs ports reach scaling factors of 12 (bodytrack) and
    10 (facesim) at 16 cores, well above the Pthreads originals."""

    @pytest.fixture(scope="class")
    def curves(self):
        return fig5_curves(baseline("fig5_parsec"))

    def test_bodytrack_reaches_paper_scaling(self, curves):
        assert 10.5 <= curves["bodytrack"]["ompss"][16] <= 13.5

    def test_facesim_reaches_paper_scaling(self, curves):
        assert 8.5 <= curves["facesim"]["ompss"][16] <= 11.5

    def test_ompss_beats_pthreads_beyond_one_thread(self, curves):
        for app in curves.values():
            for n in (2, 4, 8, 12, 16):
                assert app["ompss"][n] > app["pthreads"][n]

    def test_speedup_monotone_in_threads(self, curves):
        assert list(curves) == ["bodytrack", "facesim"]
        for app in curves.values():
            for variant in ("pthreads", "ompss"):
                assert list(app[variant]) == [1, 2, 4, 8, 12, 16]
                sp = list(app[variant].values())
                assert sp == sorted(sp)


class TestFolds:
    @every_fold
    def test_names_the_first_record_that_is_not_ok(self, fold, preset):
        records = baseline(preset)
        records[1] = failed(records[1])
        records[-1] = failed(records[-1])
        with pytest.raises(ValueError, match=f"record {records[1]['id']} "):
            fold(records)

    @every_fold
    def test_rejects_two_records_of_one_row(self, fold, preset):
        records = baseline(preset)
        with pytest.raises(ValueError, match="two records"):
            fold(records + records[:1])

    @every_fold
    def test_ignores_record_order(self, fold, preset):
        records = baseline(preset)
        assert fold(records[::-1]) == fold(records)

    def test_fig1_fails_loudly_without_a_hybrid_row(self):
        records = [
            r for r in baseline("fig1_hybrid")
            if (r["scenario"]["family"], r["scenario"]["params"]["mode"])
            != ("nas:IS", "hybrid")
        ]
        with pytest.raises(ValueError, match="no record for .*nas:IS.*hybrid"):
            fig1_speedups(records)

    def test_fig5_fails_loudly_without_a_base_row(self):
        records = [
            r for r in baseline("fig5_parsec")
            if (r["scenario"]["family"], r["scenario"]["n_cores"])
            != ("parsec:facesim:ompss", 1)
        ]
        with pytest.raises(ValueError, match="no record for .*facesim:ompss.*1"):
            fig5_curves(records)

    def test_fig5_takes_apps_and_threads_from_the_records(self):
        matrix = build_preset("fig5_parsec", apps=("ferret",), threads=(1, 16))
        curves = fig5_curves(run_campaign(matrix).records)
        assert list(curves) == ["ferret"]
        assert {v: list(c) for v, c in curves["ferret"].items()} == {
            "ompss": [1, 16],
            "pthreads": [1, 16],
        }
        assert curves["ferret"]["ompss"][1] == 1.0
        assert curves["ferret"]["ompss"][16] > curves["ferret"]["pthreads"][16]
