"""Vectorised dependence kernel vs scalar path — path equivalence.

The numpy batch kernel (:mod:`repro.core.depkernel`) is a pure *speed*
change: for any submission batch ``submit_all`` through the kernel must
produce the graph a plain ``submit()`` loop produces — same edges in the
same adjacency order, same depths and ready counts, same tracker member
state and counters, bit for bit — otherwise TDGs, and with them every
simulated makespan, silently shift.  ``submit()`` registers one task at
a time through the scalar tracker and never takes the kernel, so it is
the reference side.  These suites drive both sides over
hypothesis-fuzzed WAR/WAW/RAW programs (overlapping intervals push the
kernel into its general tier), workload families, mid-build completion
windows, watermark pruning and the campaign engine, and assert identical
state.  They also pin *engagement*: the shipped families must actually
take the kernel (``kernel_batches``/``kernel_fallbacks`` say so).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.dag_workloads import WORKLOADS, make_workload
from repro.core.deps import DependenceTracker
from repro.core.runtime import Runtime
from repro.core.schedulers import FifoScheduler
from repro.core.task import Task
from repro.sim.machine import Machine

#: "reference" submits task by task (scalar tracker only); "kernel"
#: submits whole batches through ``submit_all``.
SIDES = ("reference", "kernel")

# Write-heavy kind mix: every pair of kinds below exercises one of the
# RAW (out->in), WAR (in->out) and WAW (out->out) hazard classes.
# CONCURRENT is deliberately absent — it is a documented kernel fallback
# (scalar-only semantics), covered separately below.
_KINDS = ("in_", "out", "inout", "commutative")


def _make_runtime(prune_every=0):
    machine = Machine(8, initial_level=2)
    return Runtime(
        machine,
        scheduler=FifoScheduler(),
        record_trace=False,
        prune_every=prune_every,
    )


def _submit(rt, tasks, side):
    if side == "kernel":
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
    base = g.task_ids[0] if g.task_ids else 0
    tr = rt.tracker
    tr._flush_members()
    members = {}
    for name, idx in tr._by_name.items():
        for h in idx.hists + idx.longs:
            members[(name, h.start, h.stop)] = (
                list(h.writers) if h.writers else None,
                list(h.readers) if h.readers else None,
            )
        members[(name, "tail")] = idx.append_tail
        members[(name, "shape")] = (
            len(idx.hists), len(idx.longs), len(idx.exact), idx.max_len
        )
    return {
        "task_ids": [t - base for t in g.task_ids],
        "preds": list(g.pred_ids),
        "succs": list(g.succ_ids),
        "depth": list(g.depth),
        "unfinished": list(g.unfinished_preds),
        "n_edges": g.n_edges,
        "members": members,
        "counters": (
            tr.scan_matches, tr.cache_hits, tr.last_matches,
            tr.edges_added, tr.scan_probes,
        ),
    }


def _run_both(specs, prune_every=0, windows=1):
    """Submit the same program through both sides; return snapshots.

    ``windows > 1`` splits the program into that many batches with a
    full drain (``taskwait``) between them — only the first window is
    kernel-eligible, later ``submit_all`` windows take the scalar loop.
    """
    snaps = {}
    for side in SIDES:
        rt = _make_runtime(prune_every=prune_every)
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
    ref, kern = snaps["reference"], snaps["kernel"]
    for key in ref:
        assert kern[key] == ref[key], f"paths diverge on {key!r}"


# ----------------------------------------------------------------------
# hypothesis fuzz: WAR/WAW/RAW mixes with overlapping intervals
# ----------------------------------------------------------------------
_access = st.tuples(
    st.sampled_from(_KINDS),
    st.one_of(
        # Interval access: arbitrary extent in a small coordinate space,
        # so accesses overlap without matching exactly — the pattern
        # that pushes the kernel off the disjoint fast tier into the
        # general (scalar-insertion) tier.
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
    @given(_program)
    def test_war_waw_raw_programs(self, program):
        specs = [(f"t{i}", acc) for i, acc in enumerate(program)]
        _assert_sides_agree(_run_both(specs))

    @settings(max_examples=20, deadline=None)
    @given(_program)
    def test_two_submission_windows(self, program):
        """Mid-build completions: a second ``submit_all`` window lands on
        a drained-but-warm tracker; the kernel must decline it and the
        scalar loop must still agree with the reference."""
        specs = [(f"t{i}", acc) for i, acc in enumerate(program)]
        _assert_sides_agree(_run_both(specs, windows=2))

    @settings(max_examples=20, deadline=None)
    @given(_program, st.sampled_from((0, 1, 17)))
    def test_prune_every_axis(self, program, prune_every):
        specs = [(f"t{i}", acc) for i, acc in enumerate(program)]
        _assert_sides_agree(_run_both(specs, prune_every=prune_every))


# ----------------------------------------------------------------------
# workload families: engagement + equivalence
# ----------------------------------------------------------------------
class TestFamilyEquivalence:
    @pytest.mark.parametrize("family", sorted(WORKLOADS))
    def test_family_backends_identical(self, family):
        snaps = {}
        for side in SIDES:
            rt = _make_runtime()
            _submit(rt, make_workload(family, scale=2, seed=1), side)
            snap = _graph_snapshot(rt)
            kern = (rt.tracker.kernel_batches, rt.tracker.kernel_fallbacks)
            rt.run()
            snap["makespan"] = rt.machine.sim.now
            snaps[side] = snap
            if side == "kernel":
                # The shipped families must actually take the kernel.
                assert kern == (1, 0), f"{family} fell back: {kern}"
            else:
                assert kern == (0, 0)
        _assert_sides_agree(snaps)

    def test_kernel_rows_counts_accesses(self):
        tasks = make_workload("layered", scale=1, seed=1)
        n_rows = sum(len(t.deps) for t in tasks)
        rt = _make_runtime()
        rt.submit_all(tasks)
        assert rt.tracker.kernel_rows == n_rows

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
        assert snaps["reference"] == snaps["kernel"]


# ----------------------------------------------------------------------
# fallback rules
# ----------------------------------------------------------------------
class TestFallbackRules:
    def test_concurrent_batch_falls_back(self):
        rt = _make_runtime()
        rt.submit_all([
            Task.make("w", out=["x"]),
            Task.make("c", concurrent=["x"]),
        ])
        assert rt.tracker.kernel_batches == 0
        assert rt.tracker.kernel_fallbacks == 1
        assert rt.graph.n_edges == 1  # scalar path still built the TDG

    def test_second_window_takes_scalar_path(self):
        rt = _make_runtime()
        rt.submit_all([Task.make("a", out=["x"])])
        assert rt.tracker.kernel_batches == 1
        rt.taskwait()
        b = Task.make("b", in_=["x"])
        rt.submit_all([b])
        # The runtime never attempts the kernel on a warm graph (so no
        # fallback is counted) — the scalar path simply carries on, and
        # the RAW edge still lands.
        assert rt.tracker.kernel_batches == 1
        assert rt.graph.n_edges == 1
        assert b.unfinished_preds == 0  # writer already finished

    def test_general_tier_engages_not_falls_back(self):
        # Overlapping-but-not-equal intervals leave the disjoint fast
        # tier; the general tier must still be a kernel batch, with the
        # deferred member stash carrying real histories.
        rt = _make_runtime()
        rt.submit_all([
            Task.make("w0", out=[("x", 0, 10)]),
            Task.make("w1", out=[("x", 5, 15)]),
            Task.make("r", in_=[("x", 0, 3)]),
        ])
        tr = rt.tracker
        assert tr.kernel_batches == 1 and tr.kernel_fallbacks == 0
        assert tr._pending is not None and tr._pending[0] == "members"
        edges = {
            (p, s)
            for p in range(3)
            for s in rt.graph.succ_ids[p]
        }
        assert edges == {(0, 1), (0, 2), (1, 2)}

    def test_malformed_deps_fall_back_with_scalar_semantics(self):
        # A broken dependence mid-batch must surface the scalar path's
        # error (and its rollback), not a kernel internal error.
        good = Task.make("good", out=["x"])
        bad = Task.make("bad", in_=["x"])
        bad.deps.append("not a dependence")
        rt = _make_runtime()
        with pytest.raises(AttributeError):
            rt.submit_all([good, bad])
        assert rt.tracker.kernel_fallbacks == 1
        assert len(rt.graph) == 1  # good registered, bad rolled back
        assert bad.gid == -1


# ----------------------------------------------------------------------
# campaign-level equivalence
# ----------------------------------------------------------------------
class TestCampaignEquivalence:
    def test_smoke_preset_records_match(self, monkeypatch):
        """Campaign records are the same whether the kernel or the
        scalar loop builds each TDG (the kernel declined by patching)."""
        from repro.campaign import run_campaign
        from repro.campaign.presets import build_preset

        def records():
            summary = run_campaign(build_preset("smoke"))
            assert summary.n_errors == 0
            return {
                r["id"]: (r["metrics"], r["stats"]) for r in summary.records
            }

        kernel = records()
        monkeypatch.setattr(
            DependenceTracker, "register_batch",
            lambda self, tasks, graph: None,
        )
        assert records() == kernel
