"""Tests for the PARSEC models (Fig. 5) and the criticality/RSU
experiments (Fig. 2 / Section 3.1), run as campaign scenarios and folded
by :mod:`repro.campaign.figures`."""

import pytest

from repro.apps.parsec import PARSEC_APPS, ParsecAppModel
from repro.campaign import (
    Matrix,
    Scenario,
    build_preset,
    run_campaign,
    run_scenario,
)
from repro.campaign.figures import fig2_result, fig2_stalls, fig5_curves


def parsec_run(app, variant, n_cores):
    """The record of one PARSEC model run, as the ``fig5_parsec`` preset
    runs it."""
    return run_scenario(
        Scenario(
            f"parsec:{app}:{variant}", scheduler="work_stealing", n_cores=n_cores
        )
    )


def makespan(app, variant, n_cores):
    return parsec_run(app, variant, n_cores)["metrics"]["makespan"]


class TestParsecModels:
    def test_fig5_apps_present(self):
        assert {"bodytrack", "facesim"} <= set(PARSEC_APPS)

    def test_single_core_time_close_to_total_work(self):
        m = PARSEC_APPS["bodytrack"]
        t1 = makespan("bodytrack", "pthreads", 1)
        expected = m.frames * (m.io_seconds + m.work_seconds + m.serial_seconds)
        assert t1 == pytest.approx(expected, rel=0.02)

    def test_more_cores_never_slower(self):
        for variant in ("pthreads", "ompss"):
            times = [makespan("bodytrack", variant, n) for n in (1, 4, 16)]
            assert times[0] >= times[1] >= times[2]

    def test_unknown_variant_rejected(self):
        record = parsec_run("bodytrack", "openmp", 2)
        assert record["status"] == "error"
        assert record["error"]["type"] == "ValueError"

    def test_unknown_app_rejected(self):
        record = parsec_run("raytrace", "ompss", 2)
        assert record["status"] == "error"
        assert record["error"]["type"] == "ValueError"
        assert "raytrace" in record["error"]["message"]
        assert str(sorted(PARSEC_APPS)) in record["error"]["message"]

    @pytest.mark.parametrize("phases", [0, -1])
    def test_model_without_a_phase_rejected(self, phases):
        """Without a phase the Pthreads build keeps only the I/O tasks and
        the OmpSs build reads a phase output that no task writes."""
        with pytest.raises(ValueError, match="phases"):
            ParsecAppModel("x", frames=2, phases=phases)

    def test_runs_are_deterministic(self):
        a = makespan("facesim", "ompss", 8)
        b = makespan("facesim", "ompss", 8)
        assert a == b


class TestFig5Shape:
    @pytest.fixture(scope="class")
    def curves(self):
        matrix = build_preset("fig5_parsec", threads=(1, 4, 8, 16))
        return fig5_curves(run_campaign(matrix).records)

    @pytest.fixture(scope="class")
    def bodytrack(self, curves):
        return curves["bodytrack"]

    @pytest.fixture(scope="class")
    def facesim(self, curves):
        return curves["facesim"]

    def test_ompss_beats_pthreads_at_scale(self, bodytrack, facesim):
        for curves in (bodytrack, facesim):
            for n in (4, 8, 16):
                assert curves["ompss"][n] > curves["pthreads"][n]

    def test_bodytrack_reaches_paper_scaling(self, bodytrack):
        # paper: scaling factor of ~12 at 16 cores for the OmpSs port
        assert 10.5 <= bodytrack["ompss"][16] <= 13.5

    def test_facesim_reaches_paper_scaling(self, facesim):
        # paper: scaling factor of ~10 at 16 cores for the OmpSs port
        assert 8.5 <= facesim["ompss"][16] <= 11.5

    def test_pthreads_saturates_well_below_ompss(self, bodytrack):
        assert bodytrack["pthreads"][16] < 0.8 * bodytrack["ompss"][16]

    def test_speedup_monotone_in_threads(self, bodytrack):
        for variant in ("pthreads", "ompss"):
            sp = [bodytrack[variant][n] for n in (1, 4, 8, 16)]
            assert sp == sorted(sp)


class TestFig2Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2_result(run_campaign(build_preset("fig2_rsu")).records)

    def test_performance_improvement_band(self, result):
        # paper: 6.6%
        assert 0.03 <= result.performance_improvement <= 0.12

    def test_edp_improvement_band(self, result):
        # paper: 20.0%
        assert 0.12 <= result.edp_improvement <= 0.32

    def test_aware_strictly_better_both_axes(self, result):
        assert result.aware_makespan < result.static_makespan
        assert result.aware_edp < result.static_edp

    def test_small_machine_still_works(self):
        small = (("chain_len", 3), ("n_fillers", 40))
        matrix = Matrix(
            "fig2_small",
            (
                Scenario("chain", scheduler="fifo", n_cores=8, params=small),
                Scenario(
                    "chain", scheduler="cats", rsu="annotated", n_cores=8,
                    params=small,
                ),
            ),
        )
        result = fig2_result(run_campaign(matrix).records)
        assert result.aware_makespan <= result.static_makespan * 1.05


class TestReconfigurationOverheadSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        matrix = build_preset("fig2_overhead", core_counts=(4, 8, 16, 32))
        return fig2_stalls(run_campaign(matrix).records)

    def test_software_overhead_grows_with_cores(self, sweep):
        sw = sweep["software"]
        assert sw[8] > sw[4]
        assert sw[32] > sw[16] > sw[8]

    def test_software_growth_is_superlinear(self, sweep):
        """Lock contention: 8x the cores costs much more than 8x stall."""
        sw = sweep["software"]
        assert sw[32] / sw[4] > 8.0

    def test_rsu_overhead_stays_negligible(self, sweep):
        assert max(sweep["rsu"].values()) < 0.01 * max(sweep["software"].values())
