"""Tests for the NAS workload models and the Figure 1 pipeline."""

import numpy as np
import pytest

from repro.apps.nas import (
    NAS_BENCHMARKS,
    core_chunk_bytes,
    generate_trace,
    run_nas,
    strided_regions,
)
from repro.campaign import build_preset, run_campaign
from repro.campaign.figures import fig1_speedups
from repro.memory.access import RefClass
from repro.memory.params import MemoryParams


class TestWorkloadDefinitions:
    def test_all_six_benchmarks_present(self):
        assert set(NAS_BENCHMARKS) == {"CG", "EP", "FT", "IS", "MG", "SP"}

    def test_fractions_sum_to_one(self):
        for wl in NAS_BENCHMARKS.values():
            assert wl.frac_strided + wl.frac_random + wl.frac_unknown == pytest.approx(1.0)

    def test_ep_has_minimal_spm_usage(self):
        # The paper calls EP out as the benchmark with minimal SPM accesses.
        assert NAS_BENCHMARKS["EP"].frac_strided <= 0.1

    def test_pinned_streams_are_read_streams(self):
        for wl in NAS_BENCHMARKS.values():
            assert wl.pinned_streams <= wl.n_read_streams


class TestTraceGeneration:
    def test_class_mix_matches_fractions(self):
        wl = NAS_BENCHMARKS["CG"]
        recs = np.concatenate(
            [b.records for b in generate_trace(wl, 4, 4000, seed=1)]
        )
        frac = (recs["cls"] == RefClass.STRIDED).mean()
        assert frac == pytest.approx(wl.frac_strided, abs=0.02)

    def test_trace_is_deterministic(self):
        wl = NAS_BENCHMARKS["MG"]
        a = np.concatenate([b.records for b in generate_trace(wl, 2, 500, seed=7)])
        b = np.concatenate([b.records for b in generate_trace(wl, 2, 500, seed=7)])
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        wl = NAS_BENCHMARKS["MG"]
        a = np.concatenate([b.records for b in generate_trace(wl, 2, 500, seed=1)])
        b = np.concatenate([b.records for b in generate_trace(wl, 2, 500, seed=2)])
        assert not np.array_equal(a, b)

    def test_strided_addresses_stay_in_registered_regions(self):
        wl = NAS_BENCHMARKS["FT"]
        params = MemoryParams()
        regions = strided_regions(wl, 4, 1000, params)
        recs = np.concatenate(
            [b.records for b in generate_trace(wl, 4, 1000, seed=3, params=params)]
        )
        strided = recs[recs["cls"] == RefClass.STRIDED]
        for addr in strided["addr"][:200]:
            assert any(base <= addr < base + n for base, n in regions)

    def test_write_streams_write_read_streams_read(self):
        wl = NAS_BENCHMARKS["FT"]
        params = MemoryParams()
        chunk = core_chunk_bytes(wl, 1000, params)
        recs = np.concatenate(
            [b.records for b in generate_trace(wl, 2, 1000, seed=3, params=params)]
        )
        strided = recs[recs["cls"] == RefClass.STRIDED]
        regions = strided_regions(wl, 2, 1000, params)
        for s, (base, n) in enumerate(regions):
            in_stream = strided[(strided["addr"] >= base) & (strided["addr"] < base + n)]
            if len(in_stream) == 0:
                continue
            expect_write = s >= wl.n_read_streams
            assert (in_stream["write"] == expect_write).all()

    def test_all_cores_present(self):
        wl = NAS_BENCHMARKS["IS"]
        recs = np.concatenate([b.records for b in generate_trace(wl, 4, 200, seed=0)])
        assert set(recs["core"]) == {0, 1, 2, 3}


class TestRunNas:
    def test_run_produces_positive_metrics(self):
        r = run_nas("CG", "cache", n_cores=4, accesses_per_core=400)
        assert r.exec_time_s > 0
        assert r.energy_j > 0
        assert r.noc_flit_hops > 0

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            run_nas("LU", "cache", n_cores=2, accesses_per_core=10)

    def test_deterministic_runs(self):
        a = run_nas("MG", "hybrid", n_cores=4, accesses_per_core=300, seed=5)
        b = run_nas("MG", "hybrid", n_cores=4, accesses_per_core=300, seed=5)
        assert a.exec_time_s == b.exec_time_s
        assert a.energy_j == b.energy_j


class TestFig1Shape:
    """The headline claims of Figure 1, at reduced scale for test speed."""

    @pytest.fixture(scope="class")
    def speedups(self):
        matrix = build_preset("fig1_hybrid", n_cores=16, accesses_per_core=1200)
        return fig1_speedups(run_campaign(matrix).records)

    def test_hybrid_wins_on_average(self, speedups):
        avg = speedups["AVG"]
        assert avg["time"] > 1.05
        assert avg["energy"] > 1.05
        assert avg["noc"] > 1.15

    def test_noc_reduction_is_the_largest_win(self, speedups):
        avg = speedups["AVG"]
        assert avg["noc"] > avg["time"]
        assert avg["noc"] > avg["energy"]

    def test_ep_is_neutral(self, speedups):
        ep = speedups["EP"]
        assert ep["time"] == pytest.approx(1.0, abs=0.1)

    def test_no_benchmark_degrades(self, speedups):
        for b, v in speedups.items():
            if b == "AVG":
                continue
            assert v["time"] >= 0.97, f"{b} execution time degraded"
            assert v["energy"] >= 0.95, f"{b} energy degraded"
            assert v["noc"] >= 0.95, f"{b} NoC traffic degraded"
