"""Tests for DUE injection and the four recovery schemes (Fig. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.resilience import (
    AfeirScheme,
    CheckpointScheme,
    CgTiming,
    DueEvent,
    FeirScheme,
    Fig4Setup,
    IdealScheme,
    LossyRestartScheme,
    afeir_visible_overhead,
    convergence_times,
    exact_block_recovery,
    fig4_curves,
    inject,
    make_rhs,
    run_cg,
    thermal2_proxy,
)
from repro.resilience.cg import CgState


@pytest.fixture(scope="module")
def system():
    a = thermal2_proxy(20, 20, seed=2)
    x_true, b = make_rhs(a, seed=3)
    return a, x_true, b


def mid_run_state(a, b, iters=60):
    """Run CG for a while, return the live state."""
    res = run_cg(a, b, IdealScheme(), tol=1e-30, max_iterations=iters)
    r = b - a @ res.x
    return CgState(a=a, b=b, x=res.x.copy(), r=r, p=r.copy(), rz=float(r @ r))


class TestInjection:
    def test_inject_nans_block(self):
        v = np.arange(10.0)
        inject(v, DueEvent(0.0, block_start=2, block_len=3))
        assert np.isnan(v[2:5]).all()
        assert np.isfinite(v[:2]).all() and np.isfinite(v[5:]).all()

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            inject(np.zeros(4), DueEvent(0.0, block_start=2, block_len=10))


class TestExactRecovery:
    def test_recovers_block_exactly(self, system):
        a, _, b = system
        state = mid_run_state(a, b)
        due = DueEvent(0.0, block_start=40, block_len=32)
        original = state.x[due.block()].copy()
        inject(state.x, due)
        exact_block_recovery(state, due)
        assert np.allclose(state.x[due.block()], original, rtol=1e-8, atol=1e-10)

    @given(st.integers(0, 360), st.sampled_from([8, 16, 40]))
    @settings(max_examples=12, deadline=None)
    def test_recovery_exact_for_any_block(self, start, length):
        a = thermal2_proxy(20, 20, seed=2)
        _, b = make_rhs(a, seed=3)
        state = mid_run_state(a, b, iters=40)
        due = DueEvent(0.0, block_start=start, block_len=length)
        original = state.x[due.block()].copy()
        inject(state.x, due)
        exact_block_recovery(state, due)
        assert np.allclose(state.x[due.block()], original, rtol=1e-7, atol=1e-9)

    def test_recovery_of_whole_vector_boundary_blocks(self, system):
        a, _, b = system
        n = a.shape[0]
        for start in (0, n - 16):
            state = mid_run_state(a, b)
            due = DueEvent(0.0, block_start=start, block_len=16)
            original = state.x[due.block()].copy()
            inject(state.x, due)
            exact_block_recovery(state, due)
            assert np.allclose(state.x[due.block()], original, rtol=1e-8,
                               atol=1e-10)


class TestSchemes:
    def make_due(self, t=3.0):
        return DueEvent(time_s=t, block_start=50, block_len=24)

    def test_all_schemes_converge_through_a_fault(self, system):
        a, x_true, b = system
        for scheme in (
            CheckpointScheme(40),
            LossyRestartScheme(),
            FeirScheme(),
            AfeirScheme(),
        ):
            res = run_cg(a, b, scheme, faults=[self.make_due()], tol=1e-9)
            assert res.converged, scheme.name
            assert np.linalg.norm(res.x - x_true) / np.linalg.norm(x_true) < 1e-5

    def test_ideal_scheme_refuses_faults(self, system):
        a, _, b = system
        with pytest.raises(RuntimeError):
            run_cg(a, b, IdealScheme(), faults=[self.make_due()], tol=1e-9)

    def test_checkpoint_pays_overhead_without_faults(self, system):
        a, _, b = system
        plain = run_cg(a, b, IdealScheme(), tol=1e-9)
        ck = run_cg(a, b, CheckpointScheme(25), tol=1e-9)
        assert ck.time_s > plain.time_s
        assert ck.iterations == plain.iterations  # same numeric trajectory

    def test_checkpoint_rolls_back_iterations(self, system):
        a, _, b = system
        res = run_cg(a, b, CheckpointScheme(40), faults=[self.make_due()], tol=1e-9)
        iters = [r.iteration for r in res.records]
        assert any(b < a for a, b in zip(iters, iters[1:]))  # rollback visible

    def test_feir_keeps_convergence_trajectory(self, system):
        """Exact recovery: same iteration count as the ideal run."""
        a, _, b = system
        ideal = run_cg(a, b, IdealScheme(), tol=1e-9)
        feir = run_cg(a, b, FeirScheme(), faults=[self.make_due()], tol=1e-9)
        assert abs(feir.iterations - ideal.iterations) <= 1

    def test_lossy_restart_needs_more_iterations(self, system):
        a, _, b = system
        ideal = run_cg(a, b, IdealScheme(), tol=1e-9)
        lossy = run_cg(a, b, LossyRestartScheme(), faults=[self.make_due()], tol=1e-9)
        assert lossy.iterations > ideal.iterations

    def test_invalid_checkpoint_interval(self):
        with pytest.raises(ValueError):
            CheckpointScheme(0)


class TestAfeirOverlap:
    def test_overlap_hides_most_of_the_recovery(self):
        visible = afeir_visible_overhead(recovery_seconds=2.0, iter_seconds=0.1)
        assert visible < 0.2  # almost fully hidden off the critical path

    def test_zero_recovery_is_free(self):
        assert afeir_visible_overhead(0.0, 0.1) == 0.0

    def test_single_core_cannot_hide_recovery(self):
        visible = afeir_visible_overhead(
            recovery_seconds=2.0, iter_seconds=0.1, n_cores=1
        )
        assert visible == pytest.approx(2.0, rel=0.05)


class TestFig4Shape:
    @pytest.fixture(scope="class")
    def runs(self):
        setup = Fig4Setup(nx=48, ny=48, fault_time_s=15.0,
                          checkpoint_interval=120)
        return fig4_curves(setup)

    def test_all_five_mechanisms_present(self, runs):
        assert set(runs) == {"Ideal", "Ckpt 120", "Lossy Restart", "FEIR",
                             "AFEIR"}

    def test_everything_converges(self, runs):
        assert all(r.converged for r in runs.values())

    def test_paper_ordering(self, runs):
        """Ideal <= AFEIR < FEIR < {checkpoint, restart}."""
        t = convergence_times(runs)
        assert t["Ideal"] <= t["AFEIR"] + 1e-9
        assert t["AFEIR"] < t["FEIR"]
        assert t["FEIR"] < t["Ckpt 120"]
        assert t["FEIR"] < t["Lossy Restart"]

    def test_afeir_overhead_is_small(self, runs):
        t = convergence_times(runs)
        feir_overhead = t["FEIR"] - t["Ideal"]
        afeir_overhead = t["AFEIR"] - t["Ideal"]
        assert afeir_overhead < 0.5 * feir_overhead

    def test_fault_free_prefix_identical(self, runs):
        """Before the DUE, every protected run tracks the ideal curve
        (modulo checkpointing overhead shifting time)."""
        ideal = {r.iteration: r.residual for r in runs["Ideal"].records}
        feir = runs["FEIR"].records
        for rec in feir:
            if rec.time_s < runs["FEIR"].fault_time_s:
                assert ideal[rec.iteration] == pytest.approx(rec.residual)
