"""The task runtime: dataflow execution of a TDG on a simulated machine.

This is the reproduction's equivalent of Nanos++ running on a runtime-aware
chip.  It glues together:

* the :class:`~repro.core.deps.DependenceTracker` (TDG construction as tasks
  are submitted),
* a :class:`~repro.core.schedulers.Scheduler` (ready-queue policy),
* an optional :class:`~repro.core.criticality.CriticalityPolicy` plus
  :class:`~repro.sim.rsu.RuntimeSupportUnit` (criticality-aware DVFS),
* the :class:`~repro.sim.machine.Machine` (cores, power, discrete-event
  clock).

The hot paths are id-keyed end to end: submission streams the tracker's
predecessor id-lists into the graph's struct-of-arrays adjacency,
schedulers queue dense task ids against the graph view the runtime binds
at construction, and completion decrements ready counts by walking the
successor id arrays — no ``Task``-set materialisation anywhere on the
critical path of submission or wake-up.  Lifecycle timestamps live in
graph arrays too (``graph.submit_time`` & co.), so ``_release`` and
``_complete`` run purely on gids: a handle is only resolved where the
task's *description* is needed (dispatch cost model, trace labels, real
function execution).

One pass from completion to dispatch: ``_complete`` frees the core, runs
the task's function, walks the successor ids once and hands the newly
ready ones to ``_release`` (the one release rule), then arms the deferred
dispatch pass, which pushes every released gid to the scheduler and fills
the idle cores.  Task starts and completions are int fields, folded into
:attr:`Runtime.stats` when it is read.

Streaming mode
--------------
``prune_every=N`` turns on watermark pruning: every N completions the
runtime prunes the dependence tracker's finished members
(:meth:`~repro.core.deps.DependenceTracker.prune_finished`, execution-
equivalent by construction) and releases the graph's strong handles for
the retired batch (:meth:`~repro.core.graph.TaskGraph.release_handles`).
A runtime that submits rolling windows of tasks then holds memory
proportional to the *live* window, not the full history — retired Task
objects are collectible as soon as the caller's own references lapse,
while the id-keyed arrays keep post-run analytics intact.  That holds
with the default ``record_trace=True`` too: no trace record exists
before :meth:`Runtime.run` builds the trace, and the trace then holds
only the finished tasks whose handles are not yet released.  Off by
default; whole-graph object analyses (``total_work``, ``to_networkx``)
are unavailable for released handles.

Execution is fully event-driven: task completions wake the dispatcher, which
fills idle cores from the scheduler.  When a task carries a real Python
function, the function runs at simulated-completion time; because completion
order is a topological order of the TDG, real data values are always
dataflow-consistent — this is what lets the resilience experiments compute
real numerics under a simulated parallel schedule.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience.runtime_faults import (
        RuntimeFaultInjector,
        RuntimeFaultPlan,
        RuntimeRecoveryPolicy,
    )
    from ..sim.tdg_accel import SubmissionModel
    from .prefetch import RuntimePrefetcher

from ..obs.metrics import (
    SPAN_DISPATCH,
    SPAN_PRUNE,
    SPAN_SIMULATE,
    SPAN_TDG_BUILD,
    Metrics,
    get_active,
)
from ..obs.timing import now as _host_now
from ..sim.machine import Machine
from ..sim.rsu import RuntimeSupportUnit
from ..sim.stats import StatSet
from ..sim.trace import TraceRecorder
from .criticality import CriticalityPolicy
from .deps import DependenceTracker
from .graph import TaskGraph
from .schedulers import FifoScheduler, Scheduler
from .task import Task, TaskState

__all__ = ["Runtime", "RunResult", "DeadlockError", "AllCoresDeadError"]

#: Dispatch instrumentation stride: with observability enabled, every
#: wakeup is *counted*, but host-clock reads and queue-depth samples run
#: only on the first wakeup and every Nth after it.  Dispatch fires once
#: per completion timestamp, so timing each one would cost more than the
#: <=2% budget the obs layer aims for (a design target: no test or CI job
#: measures the enabled overhead).
_OBS_DISPATCH_STRIDE = 32

# An enum member lookup is a descriptor call; the hot paths read these.
_CREATED, _READY = TaskState.CREATED, TaskState.READY
_RUNNING, _FINISHED = TaskState.RUNNING, TaskState.FINISHED
#: Counts kept as int fields on the hot path: (``stats`` key, field).
_FOLDED = (("tasks_started", "_n_started"),
           ("critical_tasks_started", "_n_critical"),
           ("tasks_finished", "_n_finished"))


class DeadlockError(RuntimeError):
    """Event queue drained while unfinished tasks remain."""


class AllCoresDeadError(DeadlockError):
    """Every core fail-stopped while unfinished tasks remain.

    The graceful-degradation limit of core-kill fault injection: with no
    live core left, outstanding work can never run.  A subclass of
    :class:`DeadlockError` because it is the same contract violation —
    submitted tasks that cannot make progress — with a known cause.
    """


@dataclass
class RunResult:
    """Summary of one simulated execution."""

    makespan: float
    energy_j: float
    edp: float
    n_tasks: int
    #: Built from the graph arrays when the run returns (see
    #: :meth:`~repro.sim.trace.TraceRecorder.from_graph`); ``None`` with
    #: ``record_trace=False``.
    trace: Optional[TraceRecorder]
    stats: StatSet = field(default_factory=lambda: StatSet("run"))
    #: Runtime fault-injection summary (all zero on fault-free runs):
    #: planned faults that fired, task re-executions they forced, cores
    #: permanently lost, and seconds of elapsed work discarded at kills
    #: (net of checkpoint-salvaged work).
    faults_fired: int = 0
    tasks_reexecuted: int = 0
    cores_lost: int = 0
    recovery_s: float = 0.0
    #: Schema-versioned observability summary (``MetricsRegistry.summary``),
    #: or None when the run executed with observability disabled.  Purely
    #: observational: never part of record identity.
    obs: Optional[Dict[str, Any]] = None


class Runtime:
    """An OmpSs-like task runtime bound to one :class:`Machine`.

    Parameters
    ----------
    machine:
        The simulated chip to execute on.
    scheduler:
        Ready-queue policy (default FIFO).  The runtime binds it to the
        graph's id → Task view at construction (``scheduler.bind``).
    criticality:
        Optional policy deciding per-task boost requests.
    rsu:
        Optional Runtime Support Unit (with its DVFS mechanism) that the
        runtime notifies on task start; required for DVFS experiments.
    record_trace:
        Attach an execution trace to the :class:`RunResult` that
        :meth:`run` returns.  The trace is built once, from the graph
        arrays, when the run ends; nothing is recorded per task, so the
        flag costs nothing while the simulation runs.  Under
        ``prune_every`` it holds the finished tasks whose handles the
        graph still holds (see ``TraceRecorder.skipped_released``).
    submission:
        Optional :class:`~repro.sim.tdg_accel.SubmissionModel`: dependence
        registration then takes time on the (serial) master thread, so a
        task cannot become ready before the master has registered it.
        Each registration is priced from the tracker's real match count
        and the graph's real new-edge count (used by models with
        ``per_match_s`` / ``per_edge_s`` terms).
    prefetcher:
        Optional :class:`~repro.core.prefetch.RuntimePrefetcher`: the
        runtime prefetches a ready task's input regions ahead of dispatch,
        hiding part of its memory time (runtime-guided prefetching).
    prune_every:
        Watermark for streaming mode: every N task completions, prune the
        dependence tracker's finished members and release the graph's
        strong handles for the retired batch, bounding memory on rolling
        submission patterns.  ``0`` (default) never prunes.  Pruning is
        execution-equivalent — makespans are bit-identical to the
        unpruned run (pinned by the prune-equivalence property suite).
        Incompatible with submission models that price inserted edges
        (``per_edge_s``), which would observe the smaller pruned edge
        counts; the constructor rejects that combination.
    obs:
        Optional :class:`~repro.obs.metrics.Metrics` sink.  Defaults to
        the process-wide active sink (:func:`repro.obs.get_active`) —
        the no-op shim unless observability was enabled — captured at
        construction.  Instrumentation is purely observational:
        simulated results are bit-identical with any sink installed.
    faults:
        Optional :class:`~repro.resilience.runtime_faults.
        RuntimeFaultPlan`: seeded runtime faults (task-kill /
        core-kill) armed for the duration of each taskwait.  An empty
        plan is equivalent to ``None`` — the fault machinery is never
        constructed, so zero-fault configurations are bit-identical to
        fault-free runs (the campaign acceptance contract).
    recovery:
        How killed tasks recover: a policy name from
        :data:`~repro.resilience.runtime_faults.RECOVERY_POLICIES`
        (``"reexec"`` / ``"reexec-elsewhere"`` / ``"task-checkpoint"``),
        a :class:`~repro.resilience.runtime_faults.
        RuntimeRecoveryPolicy` instance, or ``None`` for plain
        re-execution.  Only meaningful with a non-empty ``faults`` plan.
    """

    def __init__(
        self,
        machine: Machine,
        scheduler: Optional[Scheduler] = None,
        criticality: Optional[CriticalityPolicy] = None,
        rsu: Optional[RuntimeSupportUnit] = None,
        record_trace: bool = True,
        submission: Optional["SubmissionModel"] = None,
        prefetcher: Optional["RuntimePrefetcher"] = None,
        prune_every: int = 0,
        obs: Optional[Metrics] = None,
        faults: Optional["RuntimeFaultPlan"] = None,
        recovery: Union[str, "RuntimeRecoveryPolicy", None] = None,
    ) -> None:
        self.machine = machine
        self.obs = obs if obs is not None else get_active()
        self._obs_collected = False
        self._obs_wakeups = 0
        # ``is not None``, NOT truthiness: an empty scheduler is falsy
        # (``__len__``), so ``scheduler or FifoScheduler()`` would
        # silently replace every freshly built scheduler with FIFO.
        self.scheduler = scheduler if scheduler is not None else FifoScheduler()
        self.criticality = criticality
        self.rsu = rsu
        self.graph = TaskGraph()
        self.tracker = DependenceTracker(self.graph)
        self.scheduler.bind(self.graph)
        self.record_trace = record_trace
        self._stats = StatSet("runtime")
        self._n_started = self._n_critical = self._n_finished = 0
        self._unfinished = 0
        self._dispatch_scheduled = False
        self._rr_hint = 0
        self._pending_ready: List[int] = []
        # Explicit free-set of idle core ids, kept sorted ascending so the
        # dispatcher visits cores in the same order as a full scan would.
        self._idle_cores: List[int] = list(range(machine.n_cores))
        self._prepared = False
        self.submission = submission
        self.prefetcher = prefetcher
        self._master_free_at = 0.0
        if prune_every < 0:
            raise ValueError("prune_every must be non-negative")
        if prune_every and getattr(submission, "per_edge_s", 0.0):
            # Pruning preserves readiness and depth exactly, but it does
            # shrink the *edge count* later registrations report — a
            # model that prices inserted edges would then charge less
            # simulated time and silently break the bit-identical
            # equivalence this mode promises.  (per_match_s is safe:
            # matches count consulted histories, which pruning keeps.)
            raise ValueError(
                "prune_every is incompatible with a submission model "
                "that prices inserted edges (per_edge_s): pruned runs "
                "register fewer edges and would diverge"
            )
        self.prune_every = prune_every
        # Only a *non-empty* fault plan constructs the injector, so
        # zero-fault configurations take literally the fault-free path
        # (every hook is one attribute-is-None probe).
        self._fault_ctl: Optional["RuntimeFaultInjector"] = None
        if faults is not None and len(faults):
            from ..resilience.runtime_faults import (
                RuntimeFaultInjector,
                resolve_recovery,
            )

            self._fault_ctl = RuntimeFaultInjector(
                self, faults, resolve_recovery(recovery)
            )
        elif isinstance(recovery, str):
            # Catch the spelling mistake early even when no fault fires.
            from ..resilience.runtime_faults import resolve_recovery

            resolve_recovery(recovery)
        # Finished gids awaiting the next watermark prune (streaming mode).
        self._retired: List[int] = []
        # Gids whose deferred release (master-registration gate) is already
        # scheduled, so a second wake-up does not reschedule it.
        self._release_pending: set = set()

    @property
    def stats(self) -> StatSet:
        """The runtime's counters, with the :data:`_FOLDED` counts folded
        in: each of those keys exists once its count is non-zero, and
        reads the float one ``add`` per event gave."""
        stats = self._stats
        for key, attr in _FOLDED:
            n = getattr(self, attr)
            if n:
                stats.add(key, float(n))
                setattr(self, attr, 0)
        return stats

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> Task:
        """Register a task: derive its TDG edges and queue it if ready.

        A one-task :meth:`submit_all` batch, without a ``tdg_build`` span
        of its own.
        """
        self._submit_all_impl([task])
        return task

    def submit_all(self, tasks: Sequence[Task]) -> List[Task]:
        """Submit a batch of tasks in order; returns them as a list.

        The bulk path the workload builders and the campaign runner use,
        so the TDG-construction throughput the ROADMAP tracks is measured
        against this call.  Each call is one ``tdg_build`` phase span
        when observability is enabled.
        """
        with self.obs.span(SPAN_TDG_BUILD):
            return self._submit_all_impl(tasks)

    def _submit_all_impl(self, tasks: Sequence[Task]) -> List[Task]:
        if not isinstance(tasks, list):
            tasks = list(tasks)
        graph = self.graph
        tracker = self.tracker
        now = self.machine.sim.now
        start = len(graph)
        try:
            model = self.submission
            if model is None:
                tracker.register_batch(tasks, now)
            else:
                # The master thread serialises dependence registration:
                # one task per registration, each priced from what it
                # did (the edges it added) and released no earlier than
                # the master finished it.
                for task in tasks:
                    n_edges = graph.n_edges
                    tracker.register_batch([task], now)
                    gid = len(graph) - 1
                    cost = model.register_seconds(
                        len(task.deps), tracker.last_matches,
                        graph.n_edges - n_edges,
                    )
                    free_at = max(self._master_free_at, now) + cost
                    self._master_free_at = graph.submit_time[gid] = free_at
                    self._stats.add("submission_seconds", cost)
        finally:
            # Account even on a mid-batch failure (e.g. a duplicate task):
            # everything registered so far is in the graph and possibly
            # ready, exactly as a one-task-at-a-time loop would leave it.
            n_done = len(graph) - start
            if n_done:
                self._unfinished += n_done
                self._stats.add("tasks_submitted", n_done)
                # Ascending gid is the order a one-task-at-a-time loop
                # reaches each ready task.
                ready = graph.unfinished_preds
                self._release([g for g in range(start, len(graph)) if not ready[g]])
        return tasks

    def spawn(self, label: str = "task", **kwargs: Any) -> Task:
        """Create-and-submit shorthand mirroring ``#pragma omp task``."""
        return self.submit(Task.make(label=label, **kwargs))

    # ------------------------------------------------------------------
    # readiness & dispatch
    # ------------------------------------------------------------------
    def _release(self, gids: Sequence[int]) -> None:
        """The release rule: submission, completion, the kill path and
        the deferred release itself make gids READY only through it.

        A gid is released now, unless a submission model registers it
        later (``submit_time > now``): then one release event is scheduled
        for that time, and the ``_release_pending`` gate keeps a second
        wake-up from scheduling another.  Released gids wait in
        ``_pending_ready`` for the dispatch pass this arms, so whole-graph
        criticality preparation runs before any placement decision.
        """
        graph = self.graph
        sim = self.machine.sim
        now = sim.now
        gate = self._release_pending
        queued = self._pending_ready
        n_queued = len(queued)
        for gid in gids:
            st = graph.submit_time[gid]
            if st is not None and st > now:
                if gid not in gate:
                    gate.add(gid)
                    sim.schedule_at(st, self._release, (gid,))
                continue
            if gate:
                gate.discard(gid)
            graph.state[gid] = _READY
            graph.ready_time[gid] = now
            queued.append(gid)
        if len(queued) != n_queued:
            self._schedule_dispatch()

    def _schedule_dispatch(self) -> None:
        if not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            # Every wake-up at this timestamp folds into one deferred
            # dispatch that costs no event-queue traffic.
            self.machine.sim.defer(self._dispatch)

    def _dispatch(self) -> None:
        # Observability wrapper: the disabled path is one class-attribute
        # probe (``Metrics.enabled`` is False on the no-op shim) plus the
        # impl call.  The enabled path counts every wakeup with a plain
        # int, but clock reads and gauge appends run on a 1-in-N stride
        # (first wakeup, then every ``_OBS_DISPATCH_STRIDE``th): dispatch
        # fires once per completion timestamp, so per-wakeup timing would
        # dominate the instrumentation budget.  The sampled queue-depth
        # series is keyed on the *simulated* clock, so it stays
        # deterministic and never feeds back into the run.
        obs_ = self.obs
        if not obs_.enabled:
            self._dispatch_impl()
            return
        self._obs_wakeups += 1
        if self._obs_wakeups & (_OBS_DISPATCH_STRIDE - 1) != 1:
            self._dispatch_impl()
            return
        t0 = _host_now()
        self._dispatch_impl()
        obs_.timer_add(SPAN_DISPATCH, _host_now() - t0)
        sim = self.machine.sim
        obs_.gauge_sample("event_queue_depth", float(len(sim.queue)), t=sim.now)

    def _dispatch_impl(self) -> None:
        self._dispatch_scheduled = False
        scheduler = self.scheduler
        queued = self._pending_ready
        if queued:
            self._pending_ready = []
            graph = self.graph
            criticality = self.criticality
            n_cores = self.machine.n_cores
            hint = self._rr_hint
            for gid in queued:
                if criticality is not None:
                    # Decide with what is known now, the queued ready set
                    # (CATS-style online decision).
                    graph.critical[gid] = criticality.is_critical(
                        gid, scheduler.ready_ids(), graph
                    )
                scheduler.push(gid, hint_core=hint)
                hint = (hint + 1) % n_cores
            self._rr_hint = hint
        # Only idle cores are visited (ascending core id, the same order a
        # full scan produces), and an empty scheduler — O(1) to check —
        # short-circuits the wakeup entirely.
        idle = self._idle_cores
        if not idle or not scheduler:
            return
        ctl = self._fault_ctl
        still_idle: List[int] = []
        for pos, core_id in enumerate(idle):
            if not scheduler:
                # Queue drained mid-scan: every remaining pop would return
                # None, so the rest of the free-set stays idle untouched.
                still_idle.extend(idle[pos:])
                break
            gid = scheduler.pop(core_id)
            if gid is None:
                still_idle.append(core_id)
            elif (
                ctl is not None
                and ctl.banned
                and ctl.ban_blocks(gid, core_id)
            ):
                # reexec-elsewhere: this core killed the task; hand it
                # back with a hint toward the next live core and leave
                # the kill site idle this round.  Each core pops at most
                # once per scan, so the re-push cannot loop.
                still_idle.append(core_id)
                scheduler.push(gid, hint_core=self._next_live_hint(core_id))
            else:
                self._start(gid, core_id)
        self._idle_cores = still_idle

    def _next_live_hint(self, core_id: int) -> int:
        """First live core id after ``core_id`` (cyclic).

        Only called with >= 2 live cores (the ban is waived otherwise),
        so the scan always terminates on a different core.
        """
        cores = self.machine.cores
        n = len(cores)
        nxt = (core_id + 1) % n
        while not cores[nxt].alive:
            nxt = (nxt + 1) % n
        return nxt

    def _start(self, gid: int, core_id: int) -> None:
        machine = self.machine
        graph = self.graph
        task = graph.tasks[gid]
        now = machine.sim.now
        core = machine.cores[core_id]
        graph.state[gid] = _RUNNING
        graph.core[gid] = core_id
        graph.start_time[gid] = now
        core.begin_work(now, task)
        critical = graph.critical[gid]
        stall = 0.0
        freq_hz = core.frequency_hz
        if self.rsu is not None:
            result = self.rsu.notify_task_start(core_id, critical, now)
            stall = result.stall_seconds
            freq_hz = machine.dvfs[result.level].frequency_hz
            self._stats.add("dvfs_stall_seconds", stall)
        graph.dvfs_level[gid] = core.level
        mem_seconds = task.mem_seconds
        if self.prefetcher is not None:
            mem_seconds = self.prefetcher.effective_mem_seconds(task, now)
            self._stats.add(
                "prefetch_hidden_seconds", task.mem_seconds - mem_seconds
            )
        body = task.cpu_cycles / freq_hz + mem_seconds
        ctl = self._fault_ctl
        if ctl is not None:
            # Recovery accounting: re-execution penalty, checkpoint
            # credit, per-start protection premium.
            body = ctl.on_start(gid, body)
        end = now + stall + body
        graph.end_time[gid] = end
        completion = machine.sim.schedule_at(end, self._complete, gid)
        if ctl is not None:
            ctl.inflight[gid] = completion
        self._n_started += 1
        if critical:
            self._n_critical += 1

    def _complete(self, gid: int) -> None:
        """Finish ``gid``: free its core, run its function, release the
        successors it was the last predecessor of, and re-arm dispatch."""
        machine = self.machine
        graph = self.graph
        core_id = graph.core[gid]
        machine.cores[core_id].end_work(machine.sim.now)
        insort(self._idle_cores, core_id)
        ctl = self._fault_ctl
        if ctl is not None:
            # The attempt survived to completion: drop its kill handle so
            # a later fault can never cancel a fired event.
            ctl.inflight.pop(gid, None)
        state = graph.state
        state[gid] = _FINISHED
        self._unfinished -= 1
        self._n_finished += 1
        task = graph.tasks[gid]
        if task.fn is not None:
            task.result = task.fn(*task.args, **task.kwargs)
        # Deterministic wake-up order: successor lists are ascending gid,
        # i.e. submission order.
        succs = graph.succ_ids[gid]
        if succs:
            unfinished_preds = graph.unfinished_preds
            woken: List[int] = []
            for s in succs:
                n = unfinished_preds[s] = unfinished_preds[s] - 1
                if n == 0 and state[s] is _CREATED:
                    woken.append(s)
            if woken:
                self._release(woken)
        if self.prune_every:
            self._retired.append(gid)
            if len(self._retired) >= self.prune_every:
                self._run_prune()
        if not self._dispatch_scheduled:
            self._schedule_dispatch()
        if ctl is not None and not self._unfinished:
            # The last task (and its function) is done: faults planned
            # beyond the makespan must not fire in the trailing drain and
            # stretch the clock past the real finish time.
            ctl.disarm()

    def _run_prune(self) -> None:
        """Watermark prune: retire the tracker's finished members and
        release the graph handles of the completed batch."""
        retired, self._retired = self._retired, []
        obs_ = self.obs
        with obs_.span(SPAN_PRUNE):
            reclaimed = self.tracker.prune_finished()
            self.graph.release_handles(retired)
        self._stats.add("prune_passes")
        self._stats.add("tasks_retired", len(retired))
        if obs_.enabled:
            obs_.counter_add("prune_reclaimed", float(reclaimed))
            obs_.gauge_sample(
                "live_regions",
                float(self.tracker.live_regions),
                t=self.machine.sim.now,
            )

    # ------------------------------------------------------------------
    # runtime fault injection (kill paths — called by the armed injector)
    # ------------------------------------------------------------------
    def _fault_kill_task(self, core_id: int) -> None:
        """Abort the task running on ``core_id`` and requeue it.

        The attempt's completion event is cancelled, the core is
        returned to the idle set (its elapsed busy time and energy are
        real — wasted work was still executed), and the gid re-enters
        the ready set through the release rule (``_release``), so
        re-dispatch happens in the same deferred batch as any other
        wake-up at this timestamp.  Streaming safety: only FINISHED
        gids are ever retired, so a killed task's graph handle is
        always still live however aggressively ``prune_every`` prunes.
        """
        ctl = self._fault_ctl
        if ctl is None:
            raise RuntimeError("no fault plan armed")
        machine = self.machine
        graph = self.graph
        now = machine.sim.now
        core = machine.cores[core_id]
        work = core.current_work
        if not isinstance(work, Task):
            raise RuntimeError(f"core {core_id} has no killable task")
        gid = work.gid
        if graph.state[gid] is not TaskState.RUNNING:
            raise RuntimeError(
                f"task gid={gid} is {graph.state[gid]}, not RUNNING"
            )
        completion = ctl.inflight.pop(gid, None)
        if completion is None or not machine.sim.cancel(completion):
            raise RuntimeError(
                f"task gid={gid} has no cancellable completion event"
            )
        core.end_work(now)
        insort(self._idle_cores, core_id)
        start = graph.start_time[gid]
        end = graph.end_time[gid]
        elapsed = now - start if start is not None else 0.0
        planned = (
            end - start
            if end is not None and start is not None
            else elapsed
        )
        saved = ctl.on_kill(gid, core_id, elapsed, planned)
        stats = self._stats
        stats.add("tasks_killed")
        stats.add("tasks_reexecuted")
        stats.add("recovery_s", elapsed - saved)
        # Reset the lifecycle slots the attempt wrote; the retry's
        # _start repopulates them.  State/ready_time are set by the
        # release rule like any first-time wake-up.
        graph.start_time[gid] = None
        graph.end_time[gid] = None
        graph.core[gid] = -1
        graph.dvfs_level[gid] = -1
        self._release((gid,))

    def _fault_kill_core(self, core_id: int) -> None:
        """Fail-stop ``core_id``: kill its in-flight task, then remove
        the core from dispatch forever (graceful degradation).

        Raises :class:`AllCoresDeadError` when the last live core dies
        with tasks outstanding — the one failure degradation cannot
        absorb.
        """
        ctl = self._fault_ctl
        if ctl is None:
            raise RuntimeError("no fault plan armed")
        machine = self.machine
        core = machine.cores[core_id]
        if not core.alive:
            raise RuntimeError(f"core {core_id} is already dead")
        if core.busy:
            self._fault_kill_task(core_id)
        if core_id in self._idle_cores:
            self._idle_cores.remove(core_id)
        core.fail(machine.sim.now)
        self._stats.add("cores_lost")
        if machine.n_live_cores == 0 and self._unfinished > 0:
            raise AllCoresDeadError(
                f"all {machine.n_cores} cores fail-stopped with "
                f"{self._unfinished} tasks outstanding"
            )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def taskwait(self) -> None:
        """Run the simulation until every submitted task has finished.

        Mirrors OmpSs ``#pragma omp taskwait`` at the outermost level.
        Each call is one ``simulate`` phase span when observability is
        enabled.
        """
        with self.obs.span(SPAN_SIMULATE):
            self._taskwait_impl()

    def _taskwait_impl(self) -> None:
        sim = self.machine.sim
        if not self._prepared:
            # One-shot whole-graph criticality preparation (bottom levels /
            # oracle marking) before the first placement decision.
            self.prepare_criticality()
            self._prepared = True
        ctl = self._fault_ctl
        if ctl is not None:
            # Arm (or re-arm, for a later streaming window) the fault
            # plan; _complete disarms it when the last task finishes.
            ctl.arm()
        try:
            sim.run()
        finally:
            if ctl is not None:
                # Error paths leave no fault armed either.
                ctl.disarm()
        if self._unfinished:
            msg = (
                f"{self._unfinished} tasks cannot run; "
                "dependence cycle or missing submission"
            )
            if ctl is not None:
                msg += (
                    " (runtime faults armed: "
                    f"{int(self._stats.get('cores_lost'))} cores "
                    f"lost, {len(ctl.banned)} placement bans "
                    "outstanding)"
                )
            raise DeadlockError(msg)

    def run(self) -> RunResult:
        """``taskwait`` + machine finalisation, returning a summary."""
        self.taskwait()
        self.machine.finalize()
        makespan = self.machine.sim.now
        energy = self.machine.total_energy_j()
        stats = self.stats
        result = RunResult(
            makespan=makespan,
            energy_j=energy,
            edp=energy * makespan,
            n_tasks=len(self.graph),
            trace=(
                TraceRecorder.from_graph(self.graph, self.machine)
                if self.record_trace
                else None
            ),
            faults_fired=int(stats.get("runtime_faults_fired")),
            tasks_reexecuted=int(stats.get("tasks_reexecuted")),
            cores_lost=int(stats.get("cores_lost")),
            recovery_s=stats.get("recovery_s"),
        )
        result.stats.merge(stats)
        if self.obs.enabled:
            result.obs = self.collect_obs()
        return result

    def collect_obs(self) -> Optional[Dict[str, Any]]:
        """Fold end-of-run component counters into the obs sink and return
        its summary dict (``None`` when observability is disabled).

        The named counters (``edges_inserted``, ``index_window_scans``,
        ``wakeups``, ``events_processed``, ...) are sampled
        from instrumentation the components maintain anyway, so enabling
        observability adds no work to the registration/event hot loops.
        Idempotent: the fold happens once per runtime, repeat calls just
        re-summarise.
        """
        obs_ = self.obs
        if not obs_.enabled:
            return None
        if not self._obs_collected:
            self._obs_collected = True
            tracker = self.tracker
            sim = self.machine.sim
            obs_.counter_add("wakeups", float(self._obs_wakeups))
            obs_.counter_add("edges_inserted", float(self.graph.n_edges))
            obs_.counter_add("index_window_scans", float(tracker.scan_probes))
            obs_.counter_add("events_processed", float(sim.events_processed))
            if self._fault_ctl is not None:
                for key in ("runtime_faults_fired", "runtime_faults_noop",
                            "tasks_reexecuted", "cores_lost"):
                    obs_.counter_add(key, self._stats.get(key))
            obs_.gauge_sample(
                "live_regions", float(tracker.live_regions), t=sim.now
            )
            obs_.gauge_sample(
                "event_queue_depth", float(len(sim.queue)), t=sim.now
            )
        return obs_.summary()

    # ------------------------------------------------------------------
    def prepare_criticality(self) -> None:
        """Run the criticality policy's whole-graph preparation step.

        Call after submitting a complete graph but before :meth:`run` when
        using offline policies (oracle marking, bottom levels).  Re-pushes
        nothing: only annotates tasks.
        """
        if self.criticality is not None:
            self.criticality.prepare(self.graph)
