"""Multi-DUE solves and the scheme-lifecycle (reset/reuse) contract."""

import numpy as np
import pytest

from repro.resilience import (
    AfeirScheme,
    CheckpointScheme,
    CgTiming,
    DueEvent,
    FaultPlan,
    FeirScheme,
    IdealScheme,
    LossyRestartScheme,
    laplacian_2d,
    make_rhs,
    plan_faults,
    run_cg,
)

N = 24  # 24x24 grid -> 576 rows; converges in ~2s of simulated time


@pytest.fixture(scope="module")
def system():
    a = laplacian_2d(N, N)
    b, _ = make_rhs(a)
    return a, b


def three_faults():
    return FaultPlan(
        tuple(
            DueEvent(t, "x", block_start=s, block_len=48)
            for t, s in ((1.5, 0), (3.0, 200), (4.5, 500))
        )
    )


def scheme_under_test(name):
    return {
        "checkpoint": CheckpointScheme(interval=40),
        "lossy_restart": LossyRestartScheme(),
        "feir": FeirScheme(),
        "afeir": AfeirScheme(),
    }[name]


class TestMultiDue:
    @pytest.mark.parametrize(
        "name", ["checkpoint", "lossy_restart", "feir", "afeir"]
    )
    def test_converges_through_three_dues_nan_free(self, system, name):
        a, b = system
        result = run_cg(a, b, scheme_under_test(name), faults=three_faults())
        assert result.converged, name
        assert np.isfinite(result.x).all(), name
        assert result.n_faults == 3
        assert result.fault_times == (1.5, 3.0, 4.5)
        assert np.allclose(a @ result.x, b, atol=1e-5)

    def test_faults_accumulate_recovery_time(self, system):
        a, b = system
        one = run_cg(
            a, b, FeirScheme(),
            faults=FaultPlan.single(DueEvent(3.0, "x", 0, 48)),
        )
        three = run_cg(a, b, FeirScheme(), faults=three_faults())
        assert three.recovery_s == pytest.approx(3 * one.recovery_s)
        assert three.convergence_time() > one.convergence_time()

    def test_fault_after_convergence_is_a_noop(self, system):
        a, b = system
        clean = run_cg(a, b, FeirScheme())
        late = clean.convergence_time() + 100.0
        result = run_cg(
            a, b, FeirScheme(),
            faults=FaultPlan.single(DueEvent(late, "x", 0, 48)),
        )
        assert result.converged
        assert result.n_faults == 0
        assert result.fault_times == ()
        assert result.recovery_s == 0.0
        assert result.convergence_time() == clean.convergence_time()

    def test_unsorted_event_sequence_fires_in_time_order(self, system):
        a, b = system
        result = run_cg(
            a, b, FeirScheme(),
            faults=[
                DueEvent(6.0, "x", 200, 48),
                DueEvent(3.0, "x", 0, 48),
            ],
        )
        assert result.fault_times == (3.0, 6.0)

    def test_generated_plan_end_to_end(self, system):
        a, b = system
        plan = plan_faults(
            N * N, seed=7, n_faults=4, window=(1.0, 8.0), block_len=32
        )
        result = run_cg(a, b, FeirScheme(), faults=plan)
        assert result.converged
        assert result.n_faults == 4
        assert np.isfinite(result.x).all()


class TestCheckpointLifecycle:
    def test_instance_reusable_across_runs(self, system):
        """Regression: ``_saved`` must not leak between runs — the second
        run must behave exactly like a run on a fresh instance."""
        a, b = system
        event = DueEvent(3.0, "x", 0, 48)
        scheme = CheckpointScheme(interval=40)
        first = run_cg(a, b, scheme, faults=FaultPlan.single(event))
        second = run_cg(a, b, scheme, faults=FaultPlan.single(event))
        fresh = run_cg(
            a, b, CheckpointScheme(interval=40),
            faults=FaultPlan.single(event),
        )
        assert second.iterations == first.iterations == fresh.iterations
        assert second.convergence_time() == fresh.convergence_time()
        assert np.array_equal(second.x, fresh.x)

    def test_due_without_checkpoint_raises_clear_error(self, system):
        """Regression: used to die with a bare TypeError unpacking None."""
        a, b = system
        from repro.resilience.cg import CgState

        x = np.zeros(len(b))
        r = b - a @ x
        state = CgState(a=a, b=b, x=x, r=r, p=r.copy(), rz=float(r @ r))
        scheme = CheckpointScheme(interval=40)
        scheme.reset()
        with pytest.raises(RuntimeError, match="no checkpoint saved"):
            scheme.on_due(state, DueEvent(1.0, "x", 0, 48), CgTiming())

    def test_reset_drops_saved_checkpoint(self, system):
        a, b = system
        from repro.resilience.cg import CgState

        x = np.zeros(len(b))
        r = b - a @ x
        state = CgState(a=a, b=b, x=x, r=r, p=r.copy(), rz=float(r @ r))
        scheme = CheckpointScheme(interval=40)
        scheme.on_start(state, CgTiming())
        assert scheme._saved is not None
        scheme.reset()
        assert scheme._saved is None

    def test_rollback_recheckpoints(self, system):
        """A second DUE inside the redo window rolls back to the restored
        point, not to a stale snapshot — so the solve still converges and
        each rollback redoes a bounded slice of work."""
        a, b = system
        result = run_cg(
            a,
            b,
            CheckpointScheme(interval=40),
            faults=[
                DueEvent(5.0, "x", 0, 48),
                # Inside the redo window of the first rollback.
                DueEvent(5.5, "x", 200, 48),
            ],
        )
        assert result.converged
        assert result.n_faults == 2
        assert np.isfinite(result.x).all()

    def test_snapshot_does_not_alias_live_state(self, system):
        a, b = system
        from repro.resilience.cg import CgState

        x = np.ones(len(b))
        r = b - a @ x
        state = CgState(a=a, b=b, x=x, r=r, p=r.copy(), rz=float(r @ r))
        scheme = CheckpointScheme(interval=40)
        scheme.on_start(state, CgTiming())
        state.x[:] = 123.0
        saved_x = scheme._saved[0]
        assert saved_x[0] == 1.0


class TestAfeirLifecycle:
    def test_instance_reusable_across_runs(self, system):
        a, b = system
        event = DueEvent(3.0, "x", 0, 48)
        scheme = AfeirScheme()
        first = run_cg(a, b, scheme, faults=FaultPlan.single(event))
        second = run_cg(a, b, scheme, faults=FaultPlan.single(event))
        assert second.convergence_time() == first.convergence_time()
        assert np.array_equal(second.x, first.x)

    def test_due_inside_pending_window_pays_queue_stall(self, system):
        """Two DUEs closer together than the recovery-task length cannot
        both hide on the helper core: the second pays a serialisation
        stall, so it costs strictly more than an isolated DUE."""
        a, b = system
        timing = CgTiming()
        baseline = run_cg(
            a, b, AfeirScheme(),
            faults=FaultPlan.single(DueEvent(3.0, "x", 0, 48)),
            timing=timing,
        )
        isolated_cost = baseline.recovery_s
        # Gap far smaller than local_solve_seconds (2.5 s).
        burst = run_cg(
            a, b, AfeirScheme(),
            faults=[
                DueEvent(3.0, "x", 0, 48),
                DueEvent(3.2, "x", 200, 48),
            ],
            timing=timing,
        )
        assert burst.n_faults == 2
        assert burst.recovery_s > 2 * isolated_cost
        # Well-separated DUEs pay no stall: cost is exactly additive.
        spread = run_cg(
            a, b, AfeirScheme(),
            faults=[
                DueEvent(3.0, "x", 0, 48),
                DueEvent(6.0, "x", 200, 48),
            ],
            timing=timing,
        )
        assert spread.n_faults == 2
        assert spread.recovery_s == pytest.approx(2 * isolated_cost)

    def test_reset_clears_pending_window(self):
        scheme = AfeirScheme()
        scheme._pending_until = 42.0
        scheme.reset()
        assert scheme._pending_until == 0.0


class TestSchemeReuseAcrossSchemes:
    @pytest.mark.parametrize(
        "name", ["checkpoint", "lossy_restart", "feir", "afeir"]
    )
    def test_second_run_identical_to_first(self, system, name):
        """The lifecycle contract for every scheme: running the same
        instance twice on the same inputs gives bit-identical results."""
        a, b = system
        scheme = scheme_under_test(name)
        first = run_cg(a, b, scheme, faults=three_faults())
        second = run_cg(a, b, scheme, faults=three_faults())
        assert second.iterations == first.iterations
        assert second.convergence_time() == first.convergence_time()
        assert np.array_equal(second.x, first.x)

    def test_ideal_reusable_and_fault_free(self, system):
        a, b = system
        scheme = IdealScheme()
        first = run_cg(a, b, scheme)
        second = run_cg(a, b, scheme)
        assert second.convergence_time() == first.convergence_time()
        assert first.recovery_s == 0.0
        assert first.protection_s == 0.0
