"""``submit_all`` vs a plain ``submit()`` loop — batch-size equivalence.

Both entry points run
:meth:`~repro.core.deps.DependenceTracker.register_batch`: ``submit()``
is a one-task batch, ``submit_all`` hands over the whole batch (or, under
a submission model, one task per call so each registration is priced
on the serial master thread).  Batch size must be invisible: for any
program the result must be the graph a ``submit()`` loop produces —
same edges in the same adjacency order, same depths, ready counts and
submit times, same tracker member state and counters, bit for bit —
otherwise TDGs, and with them every simulated makespan, silently shift.
These suites drive both sides over hypothesis-fuzzed WAR/WAW/RAW
programs (overlapping intervals and whole-object regions), workload
families, mid-build completion windows, watermark pruning and a priced
submission model, and assert identical state.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.dag_workloads import WORKLOADS, make_workload
from repro.core.runtime import Runtime
from repro.core.schedulers import FifoScheduler
from repro.core.task import Task
from repro.sim.machine import Machine
from repro.sim.tdg_accel import SubmissionModel

#: "reference" submits task by task through ``submit()``; "batch"
#: submits whole batches through ``submit_all``.
SIDES = ("reference", "batch")

# Write-heavy kind mix: every pair of kinds below exercises one of the
# RAW (out->in), WAR (in->out) and WAW (out->out) hazard classes.
# CONCURRENT groups are covered separately below.
_KINDS = ("in_", "out", "inout", "commutative")

#: Submission-model axis: free registration, and a master thread that
#: prices every term (declared deps, tracker matches, inserted edges).
_MODELS = (
    None,
    SubmissionModel(1e-6, 2e-7, per_match_s=5e-8, per_edge_s=3e-8),
)


def _make_runtime(prune_every=0, submission=None):
    machine = Machine(8, initial_level=2)
    return Runtime(
        machine,
        scheduler=FifoScheduler(),
        record_trace=False,
        prune_every=prune_every,
        submission=submission,
    )


def _submit(rt, tasks, side):
    if side == "batch":
        rt.submit_all(tasks)
    else:
        for t in tasks:
            rt.submit(t)


def _build_tasks(specs):
    """Fresh Task objects from ``[(label, [(kind, spec), ...]), ...]``.

    Each side needs its own handles (registration mutates them), so
    the spec list — not the task list — is the shared input.
    """
    tasks = []
    for label, accesses in specs:
        kwargs = {k: [] for k in _KINDS}
        for kind, spec in accesses:
            kwargs[kind].append(spec)
        tasks.append(Task.make(label, **kwargs))
    return tasks


def _graph_snapshot(rt):
    """Order-sensitive structural state of the graph + tracker members."""
    g = rt.graph
    tr = rt.tracker
    members = {}
    for name, idx in tr._by_name.items():
        for h in idx.hists + idx.longs:
            members[(name, h.start, h.stop)] = (
                list(h.writers) if h.writers else None,
                list(h.readers) if h.readers else None,
            )
        members[(name, "shape")] = (
            len(idx.hists), len(idx.longs), len(idx.exact), idx.max_len
        )
    return {
        "labels": [t.label for t in g.tasks],
        "preds": list(g.pred_ids),
        "succs": list(g.succ_ids),
        "depth": list(g.depth),
        "unfinished": list(g.unfinished_preds),
        "submit_time": list(g.submit_time),
        "n_edges": g.n_edges,
        "members": members,
        "counters": (
            tr.scan_matches, tr.last_matches, tr.scan_probes,
        ),
    }


def _run_both(specs, prune_every=0, windows=1, submission=None):
    """Submit the same program through both sides; return snapshots.

    ``windows > 1`` splits the program into that many batches with a
    full drain (``taskwait``) between them, so later ``submit_all``
    windows land on a warm tracker with finished predecessors.
    """
    snaps = {}
    for side in SIDES:
        rt = _make_runtime(prune_every=prune_every, submission=submission)
        tasks = _build_tasks(specs)
        if windows == 1:
            _submit(rt, tasks, side)
        else:
            step = max(1, len(tasks) // windows)
            for i in range(0, len(tasks), step):
                _submit(rt, tasks[i:i + step], side)
                rt.taskwait()
        snap = _graph_snapshot(rt)
        rt.run()
        snap["makespan"] = rt.machine.sim.now
        snap["stats"] = rt.stats.as_dict()
        snaps[side] = snap
    return snaps


def _assert_sides_agree(snaps):
    ref, batch = snaps["reference"], snaps["batch"]
    for key in ref:
        assert batch[key] == ref[key], f"paths diverge on {key!r}"


# ----------------------------------------------------------------------
# hypothesis fuzz: WAR/WAW/RAW mixes with overlapping intervals
# ----------------------------------------------------------------------
_access = st.tuples(
    st.sampled_from(_KINDS),
    st.one_of(
        # Interval access: arbitrary extent in a small coordinate space,
        # so accesses overlap without matching exactly — the pattern
        # that takes the tracker off its ascending-disjoint append path
        # into the bisected window scan.
        st.tuples(
            st.sampled_from(("a", "b")),
            st.integers(0, 20),
            st.integers(1, 8),
        ).map(lambda t: (t[0], t[1], t[1] + t[2])),
        # Whole-object access: exercises the long-region tier.
        st.sampled_from(("a", "b")),
    ),
)
_program = st.lists(
    st.lists(_access, min_size=1, max_size=3), min_size=1, max_size=40
)


class TestFuzzedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(_program, st.sampled_from(_MODELS))
    def test_war_waw_raw_programs(self, program, submission):
        specs = [(f"t{i}", acc) for i, acc in enumerate(program)]
        _assert_sides_agree(_run_both(specs, submission=submission))

    @settings(max_examples=20, deadline=None)
    @given(_program, st.sampled_from(_MODELS))
    def test_two_submission_windows(self, program, submission):
        """Mid-build completions: a second ``submit_all`` window lands on
        a drained-but-warm tracker (the per-edge FINISHED probe has
        finished predecessors to skip) and must still agree with the
        reference."""
        specs = [(f"t{i}", acc) for i, acc in enumerate(program)]
        _assert_sides_agree(
            _run_both(specs, windows=2, submission=submission)
        )

    @settings(max_examples=20, deadline=None)
    @given(_program, st.sampled_from((0, 1, 17)))
    def test_prune_every_axis(self, program, prune_every):
        specs = [(f"t{i}", acc) for i, acc in enumerate(program)]
        _assert_sides_agree(_run_both(specs, prune_every=prune_every))


# ----------------------------------------------------------------------
# workload families
# ----------------------------------------------------------------------
class TestFamilyEquivalence:
    @pytest.mark.parametrize(
        "family,submission",
        [pytest.param(f, None, id=f) for f in sorted(WORKLOADS)]
        + [
            pytest.param(f, _MODELS[1], id=f"{f}-priced")
            for f in sorted(WORKLOADS)
        ],
    )
    def test_family_identical(self, family, submission):
        snaps = {}
        for side in SIDES:
            rt = _make_runtime(submission=submission)
            _submit(rt, make_workload(family, scale=2, seed=1), side)
            snap = _graph_snapshot(rt)
            rt.run()
            snap["makespan"] = rt.machine.sim.now
            snap["stats"] = rt.stats.as_dict()
            snaps[side] = snap
        _assert_sides_agree(snaps)

    @pytest.mark.parametrize("prune_every", (0, 1, 17))
    def test_family_prune_axis(self, prune_every):
        snaps = {}
        for side in SIDES:
            rt = _make_runtime(prune_every=prune_every)
            _submit(rt, make_workload("cholesky", scale=2, seed=1), side)
            rt.run()
            snaps[side] = (
                rt.machine.sim.now,
                rt.stats.as_dict(),
                rt.tracker.live_regions,
            )
        assert snaps["reference"] == snaps["batch"]


# ----------------------------------------------------------------------
# batch edge cases
# ----------------------------------------------------------------------
class TestBatchEdgeCases:
    def test_concurrent_batch_builds_edge(self):
        rt = _make_runtime()
        rt.submit_all([
            Task.make("w", out=["x"]),
            Task.make("c", concurrent=["x"]),
        ])
        assert rt.graph.n_edges == 1
        assert rt.graph.succ_ids[0] == [1]

    def test_second_window_takes_scalar_path(self):
        rt = _make_runtime()
        rt.submit_all([Task.make("a", out=["x"])])
        rt.taskwait()
        b = Task.make("b", in_=["x"])
        rt.submit_all([b])
        # The RAW edge against the finished writer still lands, and it
        # does not count towards readiness.
        assert rt.graph.n_edges == 1
        assert b.unfinished_preds == 0  # writer already finished

    def test_malformed_deps_roll_back_failing_task(self):
        # A broken dependence mid-batch surfaces the tracker's error and
        # rolls back exactly the failing task.
        good = Task.make("good", out=["x"])
        bad = Task.make("bad", in_=["x"])
        bad.deps.append("not a dependence")
        rt = _make_runtime()
        with pytest.raises(TypeError):
            rt.submit_all([good, bad])
        assert len(rt.graph) == 1  # good registered, bad rolled back
        assert bad.gid == -1
