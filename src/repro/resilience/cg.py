"""Instrumented Conjugate Gradient with pluggable DUE recovery.

The solver is a textbook CG on a sparse SPD system, extended with the two
hooks the Section 4 experiments need:

* a *timing model* translating iterations and recovery actions into
  simulated seconds (Figure 4's x-axis) — per-iteration cost is the
  dominant SpMV plus vector work at a fixed flop rate, so "time" is
  deterministic and machine-independent;
* a *recovery scheme* notified on every iteration (checkpointing) and on
  each DUE (rollback / restart / interpolation).

Faults arrive as ``faults=``: a :class:`~.faults.FaultPlan` (the campaign
axis) or any sequence of :class:`~.faults.DueEvent` (``faults=[event]``
is the original single-DUE Figure 4 shape).  Events fire in time order at
iteration boundaries, and because recovery itself advances the simulated
clock, a later fault can land *inside* a pending recovery window —
schemes must handle back-to-back DUEs.

The residual is tracked recursively as in production CG; after any
recovery action the true residual ``b - Ax`` is recomputed explicitly,
both because real recoveries must and because it keeps the recorded
convergence curves honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .faults import DueEvent, FaultPlan, inject

__all__ = ["CgTiming", "CgState", "CgRecord", "CgResult", "run_cg"]


@dataclass(frozen=True)
class CgTiming:
    """Simulated-time model of the solver."""

    iter_seconds: float = 0.09  # one CG iteration (SpMV + 5 vector ops)
    checkpoint_seconds: float = 1.0  # serialising x, r, p to stable storage
    rollback_seconds: float = 1.0  # reading a checkpoint back
    restart_seconds: float = 0.35  # recompute r = b - Ax, reset p
    local_solve_seconds: float = 2.5  # FEIR block solve (sync cost)
    afeir_merge_seconds: float = 0.2  # folding deferred updates back in


@dataclass
class CgState:
    """Mutable solver state shared with recovery schemes."""

    a: sp.csr_matrix
    b: np.ndarray
    x: np.ndarray
    r: np.ndarray
    p: np.ndarray
    rz: float
    iteration: int = 0
    time_s: float = 0.0

    def refresh_residual(self) -> None:
        """Recompute the true residual and restart the CG direction."""
        self.r = self.b - self.a @ self.x
        self.p = self.r.copy()
        self.rz = float(self.r @ self.r)


@dataclass(frozen=True)
class CgRecord:
    time_s: float
    iteration: int
    residual: float


@dataclass
class CgResult:
    scheme: str
    records: List[CgRecord]
    converged: bool
    iterations: int
    time_s: float
    x: np.ndarray
    fault_time_s: Optional[float] = None
    #: Times of the DUEs that actually fired (a planned fault past
    #: convergence never fires and is *not* listed here).
    fault_times: Tuple[float, ...] = ()
    #: Number of DUEs that fired.
    n_faults: int = 0
    #: Simulated seconds spent in ``on_due`` recovery actions.
    recovery_s: float = 0.0
    #: Simulated seconds spent in ``on_iteration`` protection actions
    #: (periodic checkpoints); overhead paid even on fault-free runs.
    protection_s: float = 0.0

    def convergence_time(self) -> float:
        """Time of the last record (time to converge when ``converged``)."""
        return self.records[-1].time_s if self.records else 0.0

    def curve(self) -> List[tuple]:
        """(time, log10 residual) points, Figure 4's axes."""
        return [
            (rec.time_s, float(np.log10(max(rec.residual, 1e-300))))
            for rec in self.records
        ]


def _as_events(
    faults: Optional[Union[FaultPlan, Sequence[DueEvent]]],
) -> Tuple[DueEvent, ...]:
    """Normalise the fault input into one time-ordered tuple."""
    if faults is None:
        return ()
    if isinstance(faults, FaultPlan):
        return faults.events
    return FaultPlan(tuple(faults)).events


def run_cg(
    a: sp.csr_matrix,
    b: np.ndarray,
    scheme,
    tol: float = 1e-8,
    max_iterations: int = 20000,
    timing: Optional[CgTiming] = None,
    x0: Optional[np.ndarray] = None,
    faults: Optional[Union[FaultPlan, Sequence[DueEvent]]] = None,
) -> CgResult:
    """Solve ``Ax = b`` with CG under ``scheme``; optionally inject faults.

    ``scheme`` implements the :class:`~repro.resilience.recovery
    .RecoveryScheme` protocol and is *reset* before the run (fresh-state
    contract: one scheme instance may drive many runs back to back).
    Each fault fires at the first iteration boundary past its ``time_s``;
    because ``on_due`` advances the clock, several events can fire at one
    boundary — they are delivered in time order.  A fault whose time
    falls after convergence (or past ``max_iterations``) never fires:
    a DUE in a finished solve is a no-op, not a crash.  ``scheme.on_due``
    must leave the state numerically usable (no NaNs) or the run will
    fail to converge — nothing here silently repairs a bad scheme.
    """
    timing = timing if timing is not None else CgTiming()
    events = _as_events(faults)
    n = a.shape[0]
    x = np.zeros(n) if x0 is None else x0.astype(float).copy()
    r = b - a @ x
    state = CgState(a=a, b=b, x=x, r=r, p=r.copy(), rz=float(r @ r))
    b_norm = float(np.linalg.norm(b)) or 1.0
    records: List[CgRecord] = [
        CgRecord(0.0, 0, float(np.linalg.norm(state.r)) / b_norm)
    ]
    scheme.reset()
    scheme.on_start(state, timing)
    next_fault = 0
    fired: List[float] = []
    recovery_s = 0.0
    protection_s = 0.0
    converged = False

    while state.iteration < max_iterations:
        while next_fault < len(events) and state.time_s >= events[next_fault].time_s:
            event = events[next_fault]
            next_fault += 1
            inject(getattr(state, event.vector), event)
            extra = scheme.on_due(state, event, timing)
            recovery_s += extra
            state.time_s += extra
            fired.append(event.time_s)
            records.append(
                CgRecord(
                    state.time_s,
                    state.iteration,
                    float(np.linalg.norm(state.r)) / b_norm,
                )
            )

        # one CG iteration -------------------------------------------------
        ap = state.a @ state.p
        alpha = state.rz / float(state.p @ ap)
        state.x += alpha * state.p
        state.r -= alpha * ap
        rz_new = float(state.r @ state.r)
        beta = rz_new / state.rz
        state.p = state.r + beta * state.p
        state.rz = rz_new
        state.iteration += 1
        state.time_s += timing.iter_seconds
        extra = scheme.on_iteration(state, timing)
        protection_s += extra
        state.time_s += extra

        res = float(np.sqrt(rz_new)) / b_norm
        records.append(CgRecord(state.time_s, state.iteration, res))
        if not np.isfinite(res):
            break
        if res < tol:
            converged = True
            break

    return CgResult(
        scheme=scheme.name,
        records=records,
        converged=converged,
        iterations=state.iteration,
        time_s=state.time_s,
        x=state.x,
        fault_time_s=events[0].time_s if len(events) else None,
        fault_times=tuple(fired),
        n_faults=len(fired),
        recovery_s=recovery_s,
        protection_s=protection_s,
    )
