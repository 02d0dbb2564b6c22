"""Runtime-level fault injection: kill tasks and cores mid-flight.

PR 8 reproduced the paper's resilience story *inside the CG solver*:
DUEs destroy vector blocks between iterations and algorithmic schemes
repair them.  This module couples the same seeded fault axis to the
**task runtime** itself — at planned simulated times a fault kills the
task running on a victim core (*task-kill*) or fail-stops the whole
core (*core-kill*), and a pluggable :class:`RuntimeRecoveryPolicy`
decides how the runtime recovers.  That is the scenario diversity the
runtime-aware-architecture thesis is about: recovery playing out
against real schedulers, DAG families and streaming mode, not just a
solver loop.

Fault kinds
-----------
* **task-kill** — the task running on the victim core aborts at fault
  time; its elapsed work is discarded (minus whatever the policy
  salvages) and its gid re-enters the ready set for re-dispatch.
* **core-kill** — fail-stop: the in-flight task (if any) is killed as
  above and the core is permanently excluded from dispatch.  Execution
  degrades gracefully onto the surviving cores; if the last live core
  dies with work outstanding the run fails with a clear
  ``AllCoresDeadError``.

Recovery policies
-----------------
* ``reexec`` — re-execute from scratch; each retry pays
  ``penalty`` × the nominal body.
* ``reexec-elsewhere`` — same, but the dispatcher must place the retry
  on a *different* core than the one it was killed on (best-effort: the
  ban is ignored when only one live core remains, and a static
  scheduler that cannot honour it ends in a clear deadlock).
* ``task-checkpoint`` — every task start pays a protection premium
  (``protect_frac`` × body); a killed task restarts owing only
  ``1 - restart_fraction`` of its elapsed work.

Determinism contract
--------------------
A plan is drawn from one ``default_rng(seed)`` stream in a frozen
order — fault times first (shared :func:`~repro.resilience.faults.
draw_fault_times` semantics), then per-fault kind draws, then victim
draws — and victim *selection* maps the stored ``victim_u`` onto the
deterministic candidate list (live/busy cores in ascending id order) at
fire time.  Same seed ⇒ identical firings, makespans and stats on any
host, worker count or shard layout.  An empty plan is never armed, so
zero-fault configurations are bit-identical to fault-free runs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..sim.events import EventHandle
from .faults import draw_fault_times

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.runtime import Runtime

__all__ = [
    "FAULT_KINDS",
    "RECOVERY_POLICIES",
    "ReexecElsewherePolicy",
    "ReexecLimitError",
    "ReexecPolicy",
    "RuntimeFault",
    "RuntimeFaultInjector",
    "RuntimeFaultPlan",
    "RuntimeRecoveryPolicy",
    "TaskCheckpointPolicy",
    "plan_runtime_faults",
    "resolve_recovery",
]

#: Fault kinds :func:`plan_runtime_faults` can draw.
FAULT_KINDS = ("task", "core")


class ReexecLimitError(RuntimeError):
    """A task exceeded its recovery policy's re-execution bound."""


@dataclass(frozen=True)
class RuntimeFault:
    """One planned runtime fault.

    Attributes
    ----------
    time_s:
        Simulated time at which the fault strikes.
    kind:
        ``"task"`` (kill the task running on the victim core) or
        ``"core"`` (fail-stop the victim core).
    victim_u:
        Pre-drawn uniform in ``[0, 1)`` mapped onto the candidate-core
        list at fire time.  Storing the *draw* rather than a core id
        keeps the plan machine-shape-independent while victim selection
        stays a pure function of (plan, runtime state).
    """

    time_s: float
    kind: str = "task"
    victim_u: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.time_s < 0:
            raise ValueError("fault time must be non-negative")
        if not 0.0 <= self.victim_u < 1.0:
            raise ValueError("victim_u must lie in [0, 1)")


@dataclass(frozen=True)
class RuntimeFaultPlan:
    """An ordered, immutable schedule of runtime faults for one run.

    Events sort by ``time_s`` (ties keep generation order) and plans
    compare by value, mirroring :class:`~repro.resilience.faults.
    FaultPlan` — two generations from the same seed/spec are equal.
    """

    events: Tuple[RuntimeFault, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda ev: ev.time_s))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[RuntimeFault]:
        return iter(self.events)

    @classmethod
    def single(cls, event: RuntimeFault) -> "RuntimeFaultPlan":
        """One hand-placed fault as a plan."""
        return cls((event,))

    def times(self) -> Tuple[float, ...]:
        return tuple(ev.time_s for ev in self.events)


def plan_runtime_faults(
    *,
    seed: Union[int, Sequence[int]] = 0,
    n_faults: Optional[int] = None,
    rate: Optional[float] = None,
    window: Tuple[float, float] = (0.0, 60.0),
    distribution: str = "uniform",
    core_kill_p: float = 0.0,
) -> RuntimeFaultPlan:
    """Generate a deterministic :class:`RuntimeFaultPlan`.

    Fault *mass* and *times* reuse the solver-planner semantics
    (:func:`~repro.resilience.faults.draw_fault_times`): exactly one of
    ``n_faults`` / ``rate``, times ``"uniform"`` / ``"spaced"`` over
    ``window`` or a Poisson arrival process at ``rate``.  Each fault is
    then a core-kill with probability ``core_kill_p`` (else a
    task-kill), with a pre-drawn victim uniform.

    Draw order is part of the determinism contract and must never
    change: **times, then kinds, then victims**, all from one
    ``default_rng(seed)`` stream.  The kind/victim draws happen even
    when ``core_kill_p == 0`` so flipping that knob alone never
    reshuffles fault times.
    """
    if not 0.0 <= core_kill_p <= 1.0:
        raise ValueError("core_kill_p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    times = draw_fault_times(
        rng,
        n_faults=n_faults,
        rate=rate,
        window=window,
        distribution=distribution,
    )
    n = len(times)
    kind_u = rng.uniform(0.0, 1.0, size=n)
    victim_u = rng.uniform(0.0, 1.0, size=n)
    return RuntimeFaultPlan(
        tuple(
            RuntimeFault(
                time_s=float(t),
                kind="core" if float(ku) < core_kill_p else "task",
                victim_u=float(vu),
            )
            for t, ku, vu in zip(times, kind_u, victim_u)
        )
    )


# ----------------------------------------------------------------------
# recovery policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RuntimeRecoveryPolicy:
    """How the runtime recovers a killed task.

    Parameters
    ----------
    penalty:
        Body-time multiplier every re-execution attempt pays (recovery
        bookkeeping, cache refill, ...).  ``1.0`` = free retry.
    max_retries:
        Bound on kills per task; exceeding it raises
        :class:`ReexecLimitError` — a run that cannot make progress
        fails loudly instead of looping forever.
    """

    penalty: float = 1.0
    max_retries: int = 16

    name: ClassVar[str] = "reexec"
    #: Must the retry land on a different core than the kill site?
    requeue_elsewhere: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if self.penalty < 1.0:
            raise ValueError("re-execution penalty must be >= 1.0")
        if self.max_retries < 1:
            raise ValueError("max_retries must be positive")

    def protect_cost(self, body_s: float) -> float:
        """Extra seconds every task start pays for protection."""
        return 0.0

    def saved_after_kill(self, elapsed_s: float, body_s: float) -> float:
        """Seconds of the killed attempt's work salvaged for the retry."""
        return 0.0


@dataclass(frozen=True)
class ReexecPolicy(RuntimeRecoveryPolicy):
    """Re-execute a killed task from scratch (possibly with a penalty)."""

    name: ClassVar[str] = "reexec"


@dataclass(frozen=True)
class ReexecElsewherePolicy(RuntimeRecoveryPolicy):
    """Re-execute from scratch on a *different* core than the kill site.

    Models suspicion of the hardware that just failed.  Best-effort
    under degradation: with a single live core left the ban is ignored
    (progress beats placement), and a static scheduler that cannot
    reroute ends in a clear deadlock rather than silent misplacement.
    """

    name: ClassVar[str] = "reexec-elsewhere"
    requeue_elsewhere: ClassVar[bool] = True


@dataclass(frozen=True)
class TaskCheckpointPolicy(RuntimeRecoveryPolicy):
    """Checkpoint task progress; restart from a fraction of elapsed work.

    Every task start pays ``protect_frac × body`` for checkpointing
    (the always-on premium that makes checkpoint schemes a trade-off,
    exactly as in Figure 4's solver-level counterpart); a killed task
    restarts owing ``elapsed × restart_fraction`` seconds less.
    """

    name: ClassVar[str] = "task-checkpoint"
    protect_frac: float = 0.02
    restart_fraction: float = 0.75

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.protect_frac:
            raise ValueError("protect_frac must be non-negative")
        if not 0.0 <= self.restart_fraction <= 1.0:
            raise ValueError("restart_fraction must lie in [0, 1]")

    def protect_cost(self, body_s: float) -> float:
        return self.protect_frac * body_s

    def saved_after_kill(self, elapsed_s: float, body_s: float) -> float:
        return self.restart_fraction * elapsed_s


#: Registry of recovery-policy constructors by campaign-facing name.
RECOVERY_POLICIES: Dict[str, Callable[..., RuntimeRecoveryPolicy]] = {
    "reexec": ReexecPolicy,
    "reexec-elsewhere": ReexecElsewherePolicy,
    "task-checkpoint": TaskCheckpointPolicy,
}


def resolve_recovery(
    spec: Union[str, RuntimeRecoveryPolicy, None], **kwargs: Any
) -> RuntimeRecoveryPolicy:
    """Resolve a policy spec: an instance passes through, a name is
    constructed from :data:`RECOVERY_POLICIES` (``kwargs`` forwarded),
    ``None`` defaults to plain ``reexec``."""
    if spec is None:
        return ReexecPolicy(**kwargs)
    if isinstance(spec, RuntimeRecoveryPolicy):
        if kwargs:
            raise ValueError("cannot pass kwargs with a policy instance")
        return spec
    try:
        factory = RECOVERY_POLICIES[spec]
    except KeyError:
        raise ValueError(
            f"unknown recovery policy {spec!r}; "
            f"choose from {sorted(RECOVERY_POLICIES)}"
        ) from None
    return factory(**kwargs)


# ----------------------------------------------------------------------
# the injector
# ----------------------------------------------------------------------
class RuntimeFaultInjector:
    """Arms a :class:`RuntimeFaultPlan` against one ``Runtime``.

    The runtime constructs one of these when given a non-empty plan and
    calls the hooks below from its start/complete/kill paths; the
    injector keeps all recovery-policy state (retry counts, salvaged
    work, placement bans) and schedules exactly one pending fault event
    at a time, so disarming at taskwait exit is a single cancel.

    The runtime owns the injector, and the injector refers back to it
    weakly (:attr:`runtime`), so a dropped faulted run holds no reference
    cycle and is freed by reference counting.
    """

    def __init__(
        self,
        runtime: "Runtime",
        plan: RuntimeFaultPlan,
        policy: RuntimeRecoveryPolicy,
    ) -> None:
        self._runtime = weakref.ref(runtime)
        self.plan = plan
        self.policy = policy
        #: gid → completion event of the attempt currently running
        #: (cancelled on kill so the stale completion never fires).
        self.inflight: Dict[int, EventHandle] = {}
        #: gid → core id the retry must avoid (reexec-elsewhere).
        self.banned: Dict[int, int] = {}
        #: gid → number of times this task has been killed.
        self.kills: Dict[int, int] = {}
        #: gid → seconds of salvaged work credited to the next attempt.
        self.saved: Dict[int, float] = {}
        self._idx = 0
        self._event: Optional[EventHandle] = None

    @property
    def runtime(self) -> "Runtime":
        """The runtime this injector is armed against."""
        runtime = self._runtime()
        if runtime is None:
            raise ReferenceError("the runtime of this fault injector is gone")
        return runtime

    # -- arming ---------------------------------------------------------
    def arm(self) -> None:
        """Schedule the next not-yet-past fault (one event at a time),
        but only while tasks are outstanding: the runtime disarms when
        its last task finishes, and a fault armed over an empty wait
        would fire in the trailing drain."""
        self._schedule_next()

    def disarm(self) -> None:
        """Cancel the pending fault event (taskwait drained).

        Faults scheduled beyond the makespan must not fire during the
        trailing event drain — they would advance the clock past the
        real finish time.  Un-fired plan entries stay pending: a later
        taskwait window (streaming submission) re-arms from where the
        plan left off.
        """
        if self._event is not None:
            self.runtime.machine.sim.cancel(self._event)
        self._event = None

    def _schedule_next(self) -> None:
        rt = self.runtime
        sim = rt.machine.sim
        events = self.plan.events
        idx = self._idx
        while idx < len(events) and events[idx].time_s < sim.now:
            # A fault planned before the current window opened can never
            # fire; count it so sweeps can see clipped plans.
            rt.stats.add("runtime_faults_skipped")
            idx += 1
        self._idx = idx
        if idx < len(events) and rt._unfinished:
            self._event = sim.schedule_at(events[idx].time_s, self._fire)
        else:
            self._event = None

    def _fire(self) -> None:
        fault = self.plan.events[self._idx]
        self._idx += 1
        self._event = None
        rt = self.runtime
        rt.stats.add("runtime_faults_fired")
        cores = rt.machine.cores
        if fault.kind == "core":
            candidates = [c.core_id for c in cores if c.alive]
        else:
            candidates = [c.core_id for c in cores if c.alive and c.busy]
        if not candidates:
            # Nothing to strike (no live core / no running task): the
            # fault lands in dead air.  Counted, never redrawn — a
            # redraw would make firings depend on schedule shape.
            rt.stats.add("runtime_faults_noop")
        else:
            pos = min(
                int(fault.victim_u * len(candidates)), len(candidates) - 1
            )
            victim = candidates[pos]
            if fault.kind == "core":
                rt._fault_kill_core(victim)
            else:
                rt._fault_kill_task(victim)
        self._schedule_next()

    # -- runtime hooks --------------------------------------------------
    def on_start(self, gid: int, body_s: float) -> float:
        """Adjust a starting task's body time for recovery accounting.

        Applies (in order) the re-execution penalty for retry attempts,
        the salvaged-work credit from a checkpointed kill, and the
        per-start protection premium; consumes the placement ban (the
        dispatcher honoured it by getting here).
        """
        policy = self.policy
        adjusted = body_s
        if self.kills.get(gid):
            adjusted *= policy.penalty
        saved = self.saved.pop(gid, None)
        if saved is not None:
            adjusted = max(adjusted - saved, 0.0)
        protect = policy.protect_cost(body_s)
        if protect:
            adjusted += protect
            self.runtime.stats.add("protection_s", protect)
        if self.banned:
            self.banned.pop(gid, None)
        return adjusted

    def on_kill(self, gid: int, core_id: int, elapsed_s: float, body_s: float) -> float:
        """Record a kill; returns the seconds of work salvaged.

        Raises :class:`ReexecLimitError` when the policy's retry bound
        is exhausted — the deterministic loud-failure alternative to
        re-executing forever.
        """
        policy = self.policy
        n = self.kills.get(gid, 0) + 1
        self.kills[gid] = n
        if n > policy.max_retries:
            raise ReexecLimitError(
                f"task gid={gid} killed {n} times, exceeding the "
                f"{policy.name!r} policy's max_retries={policy.max_retries}"
            )
        saved = min(policy.saved_after_kill(elapsed_s, body_s), elapsed_s)
        if saved > 0.0:
            self.saved[gid] = saved
        if policy.requeue_elsewhere:
            self.banned[gid] = core_id
        return saved

    def ban_blocks(self, gid: int, core_id: int) -> bool:
        """Should the dispatcher refuse to start ``gid`` on ``core_id``?

        True only when the gid is banned from exactly this core *and*
        another live core exists to take it — with one survivor the ban
        is waived so degradation cannot livelock on placement.
        """
        if self.banned.get(gid) != core_id:
            return False
        return self.runtime.machine.n_live_cores > 1
