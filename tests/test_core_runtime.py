"""Integration tests for the task runtime executing on the simulator."""

import pytest

from repro.core import (
    BottomLevelHeuristic,
    CriticalPathOracle,
    DeadlockError,
    Dependence,
    FifoScheduler,
    Region,
    Runtime,
    Task,
    TaskState,
    WorkStealingScheduler,
    task,
)
from repro.sim import (
    Machine,
    RsuDvfsController,
    RsuPolicy,
    RuntimeSupportUnit,
    SoftwareDvfsController,
)


def make_runtime(n_cores=4, **kw):
    m = Machine(n_cores)
    return Runtime(m, **kw)


class TestBasicExecution:
    def test_single_task(self):
        rt = make_runtime(1)
        rt.submit(Task.make("t", cpu_cycles=2e9))
        res = rt.run()
        # 2e9 cycles at the 2 GHz initial level
        assert res.makespan == pytest.approx(1.0)
        assert res.n_tasks == 1

    def test_independent_tasks_run_in_parallel(self):
        rt = make_runtime(4)
        for i in range(4):
            rt.submit(Task.make(f"t{i}", cpu_cycles=2e9))
        res = rt.run()
        assert res.makespan == pytest.approx(1.0)

    def test_more_tasks_than_cores_serialise(self):
        rt = make_runtime(2)
        for i in range(4):
            rt.submit(Task.make(f"t{i}", cpu_cycles=2e9))
        res = rt.run()
        assert res.makespan == pytest.approx(2.0)

    def test_chain_runs_sequentially(self):
        rt = make_runtime(4)
        for i in range(3):
            rt.submit(Task.make(f"t{i}", cpu_cycles=2e9, inout=["x"]))
        res = rt.run()
        assert res.makespan == pytest.approx(3.0)

    def test_diamond_dependency_schedule(self):
        rt = make_runtime(4)
        rt.submit(Task.make("a", cpu_cycles=2e9, out=["x"]))
        rt.submit(Task.make("b", cpu_cycles=2e9, in_=["x"], out=["y"]))
        rt.submit(Task.make("c", cpu_cycles=2e9, in_=["x"], out=["z"]))
        rt.submit(Task.make("d", cpu_cycles=2e9, in_=["y", "z"]))
        res = rt.run()
        assert res.makespan == pytest.approx(3.0)

    def test_all_tasks_finish(self):
        rt = make_runtime(3)
        tasks = [rt.submit(Task.make(f"t{i}", inout=["x"])) for i in range(10)]
        rt.run()
        assert all(t.state is TaskState.FINISHED for t in tasks)

    def test_trace_has_no_core_overlap(self):
        rt = make_runtime(3, scheduler=WorkStealingScheduler(3))
        import random

        rng = random.Random(7)
        for i in range(40):
            deps = {}
            if rng.random() < 0.5:
                deps["inout"] = [f"obj{rng.randrange(5)}"]
            rt.submit(Task.make(f"t{i}", cpu_cycles=rng.uniform(1e5, 1e7), **deps))
        res = rt.run()
        res.trace.validate_no_overlap()

    def test_tasks_never_start_before_predecessors_end(self):
        rt = make_runtime(4)
        a = rt.submit(Task.make("a", cpu_cycles=5e8, out=["x"]))
        b = rt.submit(Task.make("b", cpu_cycles=5e8, in_=["x"]))
        rt.run()
        assert b.start_time >= a.end_time

    def test_deadlock_detection_on_manual_cycle(self):
        rt = make_runtime(1)
        a = Task.make("a")
        b = Task.make("b")
        rt.graph.add_task(a)
        rt.graph.add_task(b)
        rt.graph.add_edge(a, b)
        rt.graph.add_edge(b, a)
        assert a.state is TaskState.CREATED
        rt._unfinished = 2
        with pytest.raises(DeadlockError):
            rt.taskwait()

    def test_energy_accounted(self):
        rt = make_runtime(2)
        rt.submit(Task.make("t", cpu_cycles=1e9))
        res = rt.run()
        assert res.energy_j > 0
        assert res.edp == pytest.approx(res.energy_j * res.makespan)

    def test_mem_seconds_does_not_scale_with_frequency(self):
        m = Machine(1, initial_level=0)  # 1 GHz
        rt = Runtime(m)
        rt.submit(Task.make("t", cpu_cycles=1e9, mem_seconds=0.5))
        res = rt.run()
        assert res.makespan == pytest.approx(1.5)


class TestSchedulerIsActuallyUsed:
    """Regression: schedulers are falsy while empty (``__len__`` is the
    dispatcher's O(1) work check), so ``scheduler or FifoScheduler()``
    silently replaced every user-provided scheduler with FIFO — nulling
    the scheduler axis of all sweeps.  The runtime must keep the exact
    object it was given."""

    def test_provided_scheduler_instance_kept(self):
        from repro.core.schedulers import LifoScheduler

        sched = LifoScheduler()
        rt = make_runtime(2, scheduler=sched)
        assert rt.scheduler is sched

    def test_lifo_order_visible_in_schedule(self):
        from repro.core.schedulers import LifoScheduler

        def first_started(scheduler):
            rt = make_runtime(1, scheduler=scheduler)
            tasks = [rt.submit(Task.make(f"t{i}", cpu_cycles=1e6))
                     for i in range(4)]
            rt.run()
            return min(tasks, key=lambda t: t.start_time).label

        assert first_started(FifoScheduler()) == "t0"
        assert first_started(LifoScheduler()) == "t3"


class TestRealFunctionExecution:
    def test_functions_run_in_dataflow_order(self):
        rt = make_runtime(4)
        log = []
        rt.submit(Task.make("w", out=["x"], fn=lambda: log.append("w")))
        rt.submit(Task.make("r1", in_=["x"], fn=lambda: log.append("r1")))
        rt.submit(Task.make("r2", in_=["x"], fn=lambda: log.append("r2")))
        rt.submit(Task.make("f", inout=["x"], fn=lambda: log.append("f")))
        rt.run()
        assert log[0] == "w" and log[-1] == "f"
        assert set(log[1:3]) == {"r1", "r2"}

    def test_task_results_stored(self):
        rt = make_runtime(1)
        t = rt.submit(Task.make("t", fn=lambda a, b: a + b, args=(2, 3)))
        rt.run()
        assert t.result == 5


class TestDecoratorApi:
    def test_spawn_builds_dependences(self):
        data = {"x": 0, "y": 0}

        @task(out=["x"], cpu_cycles=1e6)
        def produce():
            data["x"] = 1

        @task(in_=["x"], out=["y"], cpu_cycles=1e6)
        def consume():
            data["y"] = data["x"] + 1

        rt = make_runtime(2)
        produce.spawn(rt)
        consume.spawn(rt)
        rt.run()
        assert data == {"x": 1, "y": 2}

    def test_dynamic_regions_from_args(self):
        @task(inout=lambda i: [("v", i * 10, (i + 1) * 10)], cpu_cycles=1e6)
        def block(i):
            return i

        rt = make_runtime(4)
        t0 = block.spawn(rt, 0)
        t1 = block.spawn(rt, 1)
        t0b = block.spawn(rt, 0)
        rt.run()
        # Same block serialises, different blocks do not.
        assert t0b.start_time >= t0.end_time
        assert rt.graph.n_edges == 1

    def test_direct_call_runs_body(self):
        @task()
        def f(a):
            return a * 2

        assert f(21) == 42

    def test_callable_cost(self):
        @task(cpu_cycles=lambda n: n * 1e6)
        def work(n):
            pass

        t = work.make_task(8)
        assert t.cpu_cycles == pytest.approx(8e6)


class TestSubmissionTimestamps:
    def test_submission_model_timestamp_preserved(self):
        """Regression: deferring a task's release until the master has
        registered it must not clobber ``submit_time`` — that timestamp is
        the registration instant submission-latency accounting is built
        on."""
        from repro.sim.tdg_accel import SubmissionModel

        model = SubmissionModel(base_s=1e-3, per_dep_s=0.0)
        rt = make_runtime(2, submission=model)
        tasks = [rt.submit(Task.make(f"t{i}", cpu_cycles=1e6)) for i in range(3)]
        expected = [(i + 1) * 1e-3 for i in range(3)]
        rt.run()
        assert [t.submit_time for t in tasks] == pytest.approx(expected)
        # No task became ready before the master registered it.
        for t, reg in zip(tasks, expected):
            assert t.ready_time >= reg

    def test_submission_latency_observable_after_run(self):
        from repro.sim.tdg_accel import SoftwareSubmission

        rt = make_runtime(1, submission=SoftwareSubmission())
        t = rt.submit(Task.make("t", cpu_cycles=1e6))
        rt.run()
        assert t.submit_time > 0.0
        assert t.ready_time - t.submit_time >= 0.0


class ScanDispatchRuntime(Runtime):
    """Reference dispatcher: the original O(n_cores)-per-wakeup full scan.

    Used to pin down that the idle-core free-set dispatch is behaviourally
    identical (bit-for-bit makespans) to the seed implementation."""

    def _dispatch(self):
        self._dispatch_scheduled = False
        released, self._pending_ready = self._pending_ready, []
        for gid in released:
            if self.criticality is not None:
                self.graph.critical[gid] = self.criticality.is_critical(
                    gid, self.scheduler.ready_ids(), self.graph
                )
            self.scheduler.push(gid, hint_core=self._rr_hint)
            self._rr_hint = (self._rr_hint + 1) % self.machine.n_cores
        for core in self.machine.cores:
            if core.busy:
                continue
            gid = self.scheduler.pop(core.core_id)
            if gid is None:
                continue
            self._start(gid, core.core_id)


class TestFreeSetDispatchEquivalence:
    N_CORES = 4

    def _schedulers(self):
        from repro.core.schedulers import (
            BottomLevelScheduler,
            BreadthFirstScheduler,
            CriticalityAwareScheduler,
            LifoScheduler,
            StaticScheduler,
        )

        return {
            "fifo": FifoScheduler,
            "lifo": LifoScheduler,
            "breadth": BreadthFirstScheduler,
            "bottom": BottomLevelScheduler,
            "steal": lambda: WorkStealingScheduler(self.N_CORES),
            "cats": CriticalityAwareScheduler,
            "static": lambda: StaticScheduler(self.N_CORES),
        }

    def _workload(self):
        from repro.apps import dag_workloads as dw

        return (
            dw.random_layered(5, 6, fanin=2, jitter=0.4, seed=9)
            + dw.cholesky_tiles(3, cpu_cycles=2e6, mem_ratio=0.2)
        )

    def test_same_makespan_as_full_scan_on_all_schedulers(self):
        for name, factory in self._schedulers().items():
            results = {}
            for cls in (Runtime, ScanDispatchRuntime):
                rt = cls(Machine(self.N_CORES), scheduler=factory(),
                         record_trace=False)
                rt.submit_all(self._workload())
                results[cls.__name__] = rt.run().makespan
            assert results["Runtime"] == results["ScanDispatchRuntime"], name

    def test_free_set_matches_core_busy_flags_at_completion(self):
        rt = make_runtime(self.N_CORES)
        rt.submit_all(self._workload())
        rt.run()
        assert sorted(rt._idle_cores) == [
            c.core_id for c in rt.machine.cores if not c.busy
        ]


class TestCriticalityDvfs:
    def _heterogeneous_graph(self, rt):
        """A long chain plus a pile of short independent tasks."""
        for i in range(6):
            rt.submit(Task.make("chain", cpu_cycles=4e9, inout=["c"]))
        for i in range(12):
            rt.submit(Task.make("filler", cpu_cycles=1e9))

    def test_oracle_marks_chain_critical(self):
        rt = make_runtime(4, criticality=CriticalPathOracle())
        self._heterogeneous_graph(rt)
        rt.prepare_criticality()
        chain_tasks = [t for t in rt.graph.tasks if t.label == "chain"]
        assert all(t.critical for t in chain_tasks)

    def test_rsu_boost_beats_static_makespan(self):
        def run(with_rsu):
            m = Machine(4, initial_level=2)
            rsu = None
            crit = None
            if with_rsu:
                rsu = RuntimeSupportUnit(m, RsuDvfsController(m), RsuPolicy())
                crit = BottomLevelHeuristic()
            rt = Runtime(m, criticality=crit, rsu=rsu)
            self._heterogeneous_graph(rt)
            return rt.run()

        static = run(False)
        boosted = run(True)
        # The chain dominates the makespan; boosting it must win.
        assert boosted.makespan < static.makespan

    def test_software_dvfs_pays_more_overhead_than_rsu(self):
        def run(ctl_cls):
            m = Machine(8, initial_level=2)
            ctl = ctl_cls(m)
            rsu = RuntimeSupportUnit(m, ctl, RsuPolicy())
            rt = Runtime(m, criticality=BottomLevelHeuristic(), rsu=rsu)
            for i in range(64):
                rt.submit(Task.make(f"t{i}", cpu_cycles=1e7))
            res = rt.run()
            return res.stats.get("dvfs_stall_seconds")

        sw = run(SoftwareDvfsController)
        hw = run(RsuDvfsController)
        assert sw > 10 * hw

    def test_dvfs_stall_extends_task(self):
        m = Machine(1, initial_level=0)
        ctl = SoftwareDvfsController(m, reconfig_latency_s=0.25, syscall_latency_s=0.0)
        rsu = RuntimeSupportUnit(m, ctl, RsuPolicy())
        rt = Runtime(m, criticality=CriticalPathOracle(), rsu=rsu)
        rt.submit(Task.make("t", cpu_cycles=3e9))  # critical by definition
        res = rt.run()
        # 0.25 s stall + 3e9 cycles at boosted 3 GHz = 1.25 s
        assert res.makespan == pytest.approx(1.25)


class TestSubmitAllFailureConsistency:
    """A mid-loop submit_all failure must leave the same runtime state a
    plain submit() loop would: everything before the bad task counted,
    registered and (if a root) made ready."""

    def test_duplicate_task_counts_prior_submissions(self):
        machine = Machine(2, initial_level=2)
        rt = Runtime(machine, record_trace=False)
        t1 = Task.make("t1", cpu_cycles=1e6, out=["x"])
        t2 = Task.make("t2", cpu_cycles=1e6, in_=["x"])
        with pytest.raises(ValueError, match="already in graph"):
            rt.submit_all([t1, t2, t1])
        assert rt._unfinished == 2
        assert rt.stats.get("tasks_submitted") == 2
        res = rt.run()  # the two good tasks still execute to completion
        assert res.n_tasks == 2 and rt._unfinished == 0

    @staticmethod
    def _warm_runtime():
        """A runtime whose tracker and graph are warm after one window,
        so the next submit_all takes the scalar loop."""
        rt = Runtime(Machine(2, initial_level=2), record_trace=False)
        rt.submit_all([
            Task.make("w0", cpu_cycles=1e6, out=[("x", 0, 8)]),
            Task.make("w1", cpu_cycles=1e6, in_=[("x", 4, 12)], out=["y"]),
        ])
        rt.taskwait()
        return rt

    @staticmethod
    def _tracker_counters(rt):
        tr = rt.tracker
        return (
            tr.scan_matches, tr.last_matches, tr.scan_probes,
            rt.graph.n_edges,
        )

    def test_duplicate_on_warm_tracker_keeps_counters(self):
        """The counters a failed warm submit_all leaves behind equal
        those of a submit() loop over the tasks before the duplicate."""

        def pair():
            return (
                Task.make("a", cpu_cycles=1e6, inout=[("x", 0, 8)]),
                Task.make("b", cpu_cycles=1e6, in_=[("x", 2, 6), "y"]),
            )

        rt = self._warm_runtime()
        a, b = pair()
        with pytest.raises(ValueError, match="already in graph"):
            rt.submit_all([a, b, a])
        failed = self._tracker_counters(rt)

        ref = self._warm_runtime()
        for t in pair():
            ref.submit(t)
        assert failed == self._tracker_counters(ref)
        assert failed[-1] > 0  # the pair really did add edges

    def test_mid_registration_failure_detaches_failing_task(self):
        """If dependence registration itself raises, the pre-extended
        array tail is trimmed AND the failing task's handle/index state
        is rolled back, so it is resubmittable and its properties don't
        index past the arrays."""
        machine = Machine(2, initial_level=2)
        rt = Runtime(machine, record_trace=False)
        good = Task.make("good", cpu_cycles=1e6, out=["x"])
        bad = Task.make("bad", cpu_cycles=1e6, in_=["x"])
        bad.deps.append("not a dependence")  # rejected by the tracker
        with pytest.raises(TypeError):
            rt.submit_all([good, bad])
        assert rt._unfinished == 1
        assert len(rt.graph) == 1
        assert bad.graph is None and bad.gid == -1
        assert bad.state is not None  # property reads detached fallback
        # Cleaned up and resubmittable once repaired.
        bad.deps.pop()
        rt.submit(bad)
        res = rt.run()
        assert res.n_tasks == 2


class TestMalformedAccessRollback:
    """A registration that raises on a malformed access records nothing:
    neither the failing task nor its earlier, well-formed accesses are
    left behind in the graph or the tracker."""

    @staticmethod
    def _bad_writer():
        bad = Task.make("bad", out=["x"])
        bad.deps.append("not a dependence")
        return bad

    def test_failed_batch_leaves_no_access_in_tracker(self):
        rt = Runtime(Machine(2))
        with pytest.raises(TypeError):
            rt.submit_all([self._bad_writer()])
        a = Task.make("a", out=["y"])
        c = Task.make("c", in_=["x"])
        rt.submit_all([a, c])
        # ``bad``'s write of x must not survive under the gid ``a`` got.
        assert c.predecessors == set()
        assert rt.run().makespan == pytest.approx(0.5e-3)

    def test_failed_submit_leaves_graph_unchanged(self):
        rt = Runtime(Machine(2))
        bad = self._bad_writer()
        with pytest.raises(TypeError):
            rt.submit(bad)
        assert len(rt.graph) == 0
        assert bad.graph is None and bad.gid == -1
        rt.submit(Task.make("r", in_=["x"]))
        res = rt.run()  # a stranded ``bad`` would deadlock this reader
        assert res.n_tasks == 1

    def test_string_kind_is_rejected(self):
        rt = Runtime(Machine(2))
        bad = Task("bad", deps=[Dependence("in", Region("x"))])
        with pytest.raises(TypeError):
            rt.submit(bad)
        rt.submit_all([Task.make("r1", in_=["x"]), Task.make("r2", in_=["x"])])
        assert len(rt.graph) == 2
        assert rt.graph.n_edges == 0
