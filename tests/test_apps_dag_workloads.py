"""Tests for the synthetic DAG workload generators."""

import hashlib

import numpy as np
import pytest

from repro.apps import dag_workloads as dw
from repro.apps.kernels import critical_chain_with_fillers
from repro.apps.parsec import PARSEC_APPS, build_ompss, build_pthreads
from repro.campaign.presets import RSU_COMPARISON_KNOBS
from repro.core.runtime import Runtime
from repro.core.task import Task, TaskState
from repro.sim.machine import Machine


def signature(tasks):
    """Seed-independent structural fingerprint of a generated task list."""
    return [
        (
            t.label,
            t.cpu_cycles,
            t.mem_seconds,
            tuple((d.kind, d.region) for d in t.deps),
        )
        for t in tasks
    ]


def build_graph(tasks, n_cores=4):
    rt = Runtime(Machine(n_cores), record_trace=False)
    rt.submit_all(tasks)
    return rt


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(dw.WORKLOADS))
    def test_same_seed_same_workload(self, name):
        a = dw.make_workload(name, scale=1, seed=7)
        b = dw.make_workload(name, scale=1, seed=7)
        assert signature(a) == signature(b)

    def test_different_seed_differs(self):
        a = dw.random_layered(4, 6, fanin=2, jitter=0.5, seed=1)
        b = dw.random_layered(4, 6, fanin=2, jitter=0.5, seed=2)
        assert signature(a) != signature(b)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            dw.make_workload("nope")


class TestTopologyInvariants:
    @pytest.mark.parametrize("name", sorted(dw.WORKLOADS))
    def test_acyclic(self, name):
        rt = build_graph(dw.make_workload(name, scale=1, seed=3))
        order = rt.graph.topological_order()  # raises CycleError on cycles
        assert len(order) == len(rt.graph)

    def test_layered_width_and_depth(self):
        n_layers, width = 5, 7
        tasks = dw.random_layered(n_layers, width, fanin=3, seed=0)
        assert len(tasks) == n_layers * width
        rt = build_graph(tasks)
        by_depth = {}
        for t in rt.graph.tasks:
            by_depth.setdefault(t.depth, []).append(t)
        assert max(by_depth) == n_layers - 1
        for d in range(n_layers):
            assert len(by_depth[d]) == width

    def test_layered_fanin_respected(self):
        tasks = dw.random_layered(3, 8, fanin=3, seed=1)
        rt = build_graph(tasks)
        for t in rt.graph.tasks:
            if t.depth > 0:
                assert 1 <= len(t.predecessors) <= 3

    def test_cholesky_task_count(self):
        nt = 4
        tasks = dw.cholesky_tiles(nt)
        # nt potrf + nt(nt-1)/2 trsm + nt(nt-1)/2 syrk + C(nt,3) gemm
        expected = nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) // 6
        assert len(tasks) == expected

    def test_cholesky_final_potrf_is_sink(self):
        nt = 3
        rt = build_graph(dw.cholesky_tiles(nt))
        sinks = rt.graph.sinks()
        assert [t.label for t in sinks] == [f"potrf.{nt - 1}"]

    def test_lu_task_count(self):
        nt = 3
        tasks = dw.lu_tiles(nt)
        # nt getrf + 2 * sum(nt-1-k) trsm + sum (nt-1-k)^2 gemm
        trsm = nt * (nt - 1)
        gemm = sum((nt - 1 - k) ** 2 for k in range(nt))
        assert len(tasks) == nt + trsm + gemm

    def test_fork_join_rounds_serialise(self):
        rt = build_graph(dw.fork_join_ladder(width=4, depth=3, seed=0))
        joins = [t for t in rt.graph.tasks if t.label.startswith("join")]
        assert [t.depth for t in joins] == [1, 3, 5]

    def test_pipeline_stage_skew_costs(self):
        tasks = dw.pipeline_grid(3, 2, cpu_cycles=1e6, stage_skew=1.0)
        stage_costs = {
            t.label.split(".")[0]: t.cpu_cycles for t in tasks
        }
        assert stage_costs["stage1"] == pytest.approx(2 * stage_costs["stage0"] / 1)
        assert stage_costs["stage2"] == pytest.approx(3e6)

    def test_mem_ratio_splits_reference_budget(self):
        (t,) = dw.random_layered(1, 1, cpu_cycles=1e6, mem_ratio=0.25)
        # Total reference-frequency duration is preserved by the split.
        assert t.duration_at(dw.REFERENCE_HZ) == pytest.approx(1e6 / dw.REFERENCE_HZ)
        assert t.mem_seconds == pytest.approx(0.25e-3)

    def test_mem_ratio_validated(self):
        with pytest.raises(ValueError):
            dw.random_layered(2, 2, mem_ratio=1.5)


class TestExecution:
    @pytest.mark.parametrize("name", sorted(dw.WORKLOADS))
    def test_runs_to_completion_without_deadlock(self, name):
        tasks = dw.make_workload(name, scale=1, seed=5)
        rt = Runtime(Machine(4))
        rt.submit_all(tasks)
        res = rt.run()
        assert res.makespan > 0
        assert all(t.state is TaskState.FINISHED for t in tasks)
        res.trace.validate_no_overlap()


def stream_digest(tasks):
    """16-hex sha256 of each task's label, both costs (``repr``, so every
    float digit counts), priority and accesses, in stream order."""
    h = hashlib.sha256()
    for t in tasks:
        accesses = tuple(
            (d.kind.value, d.region.name, d.region.start, d.region.stop)
            for d in t.deps
        )
        row = (t.label, repr(t.cpu_cycles), repr(t.mem_seconds), t.priority,
               accesses)
        h.update(repr(row).encode())
    return h.hexdigest()[:16]


def _family(name, scale, seed, knobs):
    params = RSU_COMPARISON_KNOBS[name] if knobs == "rsu" else {}
    kw = {k[len("wl_"):]: v for k, v in params.items()}
    return lambda: dw.make_workload(name, scale=scale, seed=seed, **kw)


def _windows(**kw):
    return lambda: [t for w in range(4) for t in dw.stream_window(w, **kw)]


BUILDS = {
    f"{name}-x{scale}-s{seed}-{knobs}": _family(name, scale, seed, knobs)
    for name in sorted(dw.WORKLOADS)
    for scale in (1, 8)
    for seed in (0, 7)
    for knobs in ("default", "rsu")
}
BUILDS.update({
    "layered-fanin1": lambda: dw.random_layered(
        6, 8, fanin=1, mem_ratio=0.2, jitter=0.5, seed=7),
    "layered-fanin9-width8": lambda: dw.random_layered(
        6, 8, fanin=9, mem_ratio=0.2, jitter=0.5, seed=7),
    # No random() slot per task.
    "layered-jitter0": lambda: dw.random_layered(
        6, 8, fanin=3, jitter=0.0, seed=7),
    # At width 1, choice draws nothing: only the random() slots draw.
    "layered-width1": lambda: dw.random_layered(
        4, 1, fanin=2, jitter=0.5, seed=3),
    # A negative jitter is truthy, so it draws.
    "layered-jitter-neg0.5": lambda: dw.random_layered(
        4, 6, fanin=2, jitter=-0.5, seed=3),
    "fork_join-w5-d3-jitter0": lambda: dw.fork_join_ladder(
        5, 3, jitter=0.0, seed=7),
    "fork_join-w5-d3-jitter0.7": lambda: dw.fork_join_ladder(
        5, 3, jitter=0.7, seed=7),
    "chain-fillers-jitter0.3": lambda: critical_chain_with_fillers(
        3, 40, jitter=0.3, seed=5),
    "chain-fillers-jitter0": lambda: critical_chain_with_fillers(
        3, 40, jitter=0.0, seed=5),
    "stream-b64-n1536-s1": _windows(n_buffers=64, n_tasks=1536, seed=1),
    "stream-b16-n64-s7": _windows(n_buffers=16, n_tasks=64, seed=7),
    "stream-b2-n8-s3": _windows(n_buffers=2, n_tasks=8, seed=3),
    "stream-b16-n64-s7-fanin3": _windows(
        n_buffers=16, n_tasks=64, fanin=3, seed=7),
    "stream-b16-n64-s7-fanin0": _windows(
        n_buffers=16, n_tasks=64, fanin=0, seed=7),
})

#: Recorded before the builders' region and cost tables were hoisted out
#: of their loops, and the ``jitter``/``width1``/``chain-fillers`` cases
#: before the per-task draws were batched: a change to a builder's host
#: cost must keep each one.
BUILDER_DIGESTS = {
    "chain-fillers-jitter0": "88a84c4e30169e27",
    "chain-fillers-jitter0.3": "9f1d7824c29647e2",
    "cholesky-x1-s0-default": "f9a60cc3c61b4694",
    "cholesky-x1-s0-rsu": "3f8af61bebc476b9",
    "cholesky-x1-s7-default": "f9a60cc3c61b4694",
    "cholesky-x1-s7-rsu": "3f8af61bebc476b9",
    "cholesky-x8-s0-default": "9654b755fdc596df",
    "cholesky-x8-s0-rsu": "5c7322bb549e1cc7",
    "cholesky-x8-s7-default": "9654b755fdc596df",
    "cholesky-x8-s7-rsu": "5c7322bb549e1cc7",
    "fork_join-x1-s0-default": "401620ed04ba4f3a",
    "fork_join-x1-s0-rsu": "2ec051ef26dbb495",
    "fork_join-x1-s7-default": "a35d932ee1061d80",
    "fork_join-x1-s7-rsu": "5ed852dbee846f2b",
    "fork_join-x8-s0-default": "8163bced0170fdad",
    "fork_join-x8-s0-rsu": "b1feedb53ccdcb0f",
    "fork_join-x8-s7-default": "da482a981cdb06fc",
    "fork_join-x8-s7-rsu": "85c06ff99825bc82",
    "fork_join-w5-d3-jitter0": "35473a2563695079",
    "fork_join-w5-d3-jitter0.7": "56448cc7ea5d25df",
    "layered-fanin1": "6cb24411df058179",
    "layered-fanin9-width8": "ad94c0b9804e49b1",
    "layered-jitter-neg0.5": "77eb3140fa0a11b1",
    "layered-jitter0": "3c6b2d59ab4864e2",
    "layered-width1": "df136de9c812ca1d",
    "layered-x1-s0-default": "a202f46a9435223b",
    "layered-x1-s0-rsu": "dfc0feb976a4dc87",
    "layered-x1-s7-default": "6a6ee783f8c2a0a6",
    "layered-x1-s7-rsu": "bf274d9aff48fc26",
    "layered-x8-s0-default": "2bbc36289fd1840f",
    "layered-x8-s0-rsu": "623c9fe2a422b7b6",
    "layered-x8-s7-default": "73df33258ac1d5ce",
    "layered-x8-s7-rsu": "246db84207baba57",
    "lu-x1-s0-default": "3ed037345a127bc0",
    "lu-x1-s0-rsu": "4c3cbe533b4b113f",
    "lu-x1-s7-default": "3ed037345a127bc0",
    "lu-x1-s7-rsu": "4c3cbe533b4b113f",
    "lu-x8-s0-default": "f319d0e2e4528e25",
    "lu-x8-s0-rsu": "d7a8955e0a6a27d0",
    "lu-x8-s7-default": "f319d0e2e4528e25",
    "lu-x8-s7-rsu": "d7a8955e0a6a27d0",
    "pipeline-x1-s0-default": "66c7e5b2ede37db7",
    "pipeline-x1-s0-rsu": "78fe8f583408719b",
    "pipeline-x1-s7-default": "66c7e5b2ede37db7",
    "pipeline-x1-s7-rsu": "78fe8f583408719b",
    "pipeline-x8-s0-default": "58253ddc321a5011",
    "pipeline-x8-s0-rsu": "14f479caa391f4b6",
    "pipeline-x8-s7-default": "58253ddc321a5011",
    "pipeline-x8-s7-rsu": "14f479caa391f4b6",
    "stream-b16-n64-s7": "1bba6275e827bffa",
    "stream-b16-n64-s7-fanin0": "f57859a2e132247f",
    "stream-b16-n64-s7-fanin3": "e4612316a0cb3174",
    "stream-b2-n8-s3": "956cd0de6cfa402c",
    "stream-b64-n1536-s1": "a042963cba52892d",
}


@pytest.mark.parametrize("case", sorted(BUILDS))
def test_builder_output_is_pinned(case):
    assert stream_digest(BUILDS[case]()) == BUILDER_DIGESTS[case]


PARSEC_BUILDERS = {"pthreads": build_pthreads, "ompss": build_ompss}

#: Recorded before the PARSEC builders shared their access pairs: each
#: task's accesses must keep their values and their order.
PARSEC_DIGESTS = {
    "bodytrack-ompss-t1": "6176d7c5bf0fa5f5",
    "bodytrack-ompss-t4": "710bb747bfe67534",
    "bodytrack-ompss-t16": "66895da2162ee83f",
    "bodytrack-pthreads-t1": "294aa73881996347",
    "bodytrack-pthreads-t4": "5b8cf4de619097a5",
    "bodytrack-pthreads-t16": "27e16ff01b4728fc",
    "facesim-ompss-t1": "16072893a66e5662",
    "facesim-ompss-t4": "801187067fd8b0ca",
    "facesim-ompss-t16": "be58f38a16a5b8a3",
    "facesim-pthreads-t1": "96fefea7afe1ce1a",
    "facesim-pthreads-t4": "98eecf0e4e9b47a1",
    "facesim-pthreads-t16": "3db31e6b942d0045",
    "ferret-ompss-t1": "1c74326f9a87a52d",
    "ferret-ompss-t4": "2bbd1b04915d8507",
    "ferret-ompss-t16": "81560d6dc3d2d265",
    "ferret-pthreads-t1": "4bf9bc7d8fd50f73",
    "ferret-pthreads-t4": "630fb9ee762b3968",
    "ferret-pthreads-t16": "5e2f0308677b74ae",
    "streamcluster-ompss-t1": "84dd55dc53ae8651",
    "streamcluster-ompss-t4": "4686db12ac65514e",
    "streamcluster-ompss-t16": "59e96fcea0a38dee",
    "streamcluster-pthreads-t1": "7c643585a5f37460",
    "streamcluster-pthreads-t4": "ae6e9ea62a2d86af",
    "streamcluster-pthreads-t16": "1e3419b6f26bb8ee",
}


@pytest.mark.parametrize("case", sorted(PARSEC_DIGESTS))
def test_parsec_builder_output_is_pinned(case):
    app, variant, threads = case.split("-")
    tasks = PARSEC_BUILDERS[variant](PARSEC_APPS[app], int(threads[1:]))
    assert stream_digest(tasks) == PARSEC_DIGESTS[case]


SHARING_BUILDS = {
    **{
        f"{name}-x{scale}": _family(name, scale, 0, "default")
        for name in sorted(dw.WORKLOADS)
        for scale in (1, 8)
    },
    **{
        f"stream-w{w}": lambda w=w: dw.stream_window(w, n_buffers=16, n_tasks=64)
        for w in range(3)
    },
    "chain-fillers": lambda: critical_chain_with_fillers(
        8, 40, jitter=0.3, seed=5),
    **{
        f"parsec-{variant}": lambda b=builder: b(PARSEC_APPS["bodytrack"], 4)
        for variant, builder in PARSEC_BUILDERS.items()
    },
}


@pytest.mark.parametrize("case", sorted(SHARING_BUILDS))
def test_builders_share_one_dependence_per_pair(case):
    """A build makes one ``Dependence`` per distinct ``(kind, region)``
    and shares it among the tasks that declare it, while every task keeps
    an access list of its own."""
    tasks = SHARING_BUILDS[case]()
    deps = [d for t in tasks for d in t.deps]
    assert len({id(d) for d in deps}) == len({(d.kind, d.region) for d in deps})
    assert len({id(t.deps) for t in tasks}) == len(tasks)


class TestChoiceRows:
    """``stream_window`` and ``random_layered`` draw through
    ``_choice_rows``, which must replay numpy's own ``random()`` and
    ``choice``: a numpy release that changes how ``random``, ``choice`` or
    ``integers`` draws fails here by name, not only as a moved digest."""

    @staticmethod
    def _check(seed, pop, k, n, uniform=False):
        want_rng = np.random.default_rng((seed, pop, k))
        got_rng = np.random.default_rng((seed, pop, k))
        want_u, want = [], []
        for _ in range(n):
            if uniform:
                want_u.append(want_rng.random())
            want.append(want_rng.choice(pop, size=k, replace=False).tolist())
        picks, u = dw._choice_rows(got_rng, pop, k, n, uniform=uniform)
        assert picks.tolist() == want, (pop, k, uniform)
        if uniform:
            assert u.tolist() == want_u, (pop, k)
        else:
            assert u is None
        assert got_rng.random() == want_rng.random(), (pop, k, uniform)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_successive_choice_calls(self, seed):
        for pop in range(1, 71):
            for k in range(min(pop, 5) + 1):
                for uniform in (False, True):
                    self._check(seed, pop, k, n=40, uniform=uniform)

    @pytest.mark.parametrize("pop, k", [(10000, 300), (10001, 200)])
    def test_matches_choice_at_the_tail_shuffle_edge(self, pop, k):
        self._check(5, pop, k, n=5)
        self._check(5, pop, k, n=5, uniform=True)

    @pytest.mark.parametrize("fanin, match", [
        (201, "tail-shuffle"),
        (-1, "cannot choose"),
    ])
    def test_stream_window_rejects_what_it_cannot_replay(self, fanin, match):
        with pytest.raises(ValueError, match=match):
            dw.stream_window(0, n_buffers=10002, n_tasks=1, fanin=fanin)

    def test_random_layered_rejects_the_tail_shuffle_branch(self):
        # 201 > 10001 // 50: numpy's choice would shuffle a tail of
        # arange(10001) rather than run Floyd's algorithm.
        with pytest.raises(ValueError, match="tail-shuffle"):
            dw.random_layered(2, 10001, fanin=201, jitter=0.5)


class TestJitterRange:
    """A cost factor ``1 + jitter * (u - 0.5)`` is negative for some draws
    once ``|jitter| > 2``, so such a ``jitter`` must fail for every seed,
    not only for the seeds that draw a negative factor, and ``|jitter| ==
    2`` must build for every seed."""

    BUILDERS = {
        "layered": lambda jitter, seed: dw.random_layered(
            1, 1, jitter=jitter, seed=seed),
        "fork_join": lambda jitter, seed: dw.fork_join_ladder(
            1, 1, jitter=jitter, seed=seed),
        "chain_fillers": lambda jitter, seed: critical_chain_with_fillers(
            1, 1, jitter=jitter, seed=seed),
    }

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    @pytest.mark.parametrize("jitter", [2.5, 3.0, -2.5])
    def test_beyond_two_is_rejected_for_every_seed(self, builder, jitter):
        for seed in range(100):
            with pytest.raises(ValueError, match="jitter"):
                self.BUILDERS[builder](jitter, seed)

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    @pytest.mark.parametrize("jitter", [2.0, -2.0])
    def test_two_builds_for_every_seed(self, builder, jitter):
        for seed in range(100):
            assert self.BUILDERS[builder](jitter, seed)
