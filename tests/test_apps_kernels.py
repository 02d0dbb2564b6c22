"""Tests for the generic task-graph generators."""

import math

import pytest

from repro.apps.dag_workloads import pipeline_grid
from repro.apps.kernels import (
    chain,
    critical_chain_with_fillers,
    fork_join,
    independent,
    reduction_tree,
    wavefront,
)
from repro.core import Runtime
from repro.sim import Machine


def graph_of(tasks):
    rt = Runtime(Machine(4))
    for t in tasks:
        rt.submit(t)
    return rt


class TestShapes:
    def test_chain_is_serial(self):
        rt = graph_of(chain(5))
        assert rt.graph.width_profile() == [1, 1, 1, 1, 1]

    def test_independent_has_no_edges(self):
        rt = graph_of(independent(6))
        assert rt.graph.n_edges == 0

    def test_fork_join_width(self):
        rt = graph_of(fork_join(width=4, depth=2))
        profile = rt.graph.width_profile()
        assert max(profile) == 4
        assert len(rt.graph.tasks) == 2 * (4 + 1)

    def test_reduction_tree_depth(self):
        rt = graph_of(reduction_tree(8))
        # 8 leaves + 4 + 2 + 1 combiners
        assert len(rt.graph.tasks) == 15
        assert len(rt.graph.width_profile()) == 1 + math.ceil(math.log2(8))

    def test_reduction_tree_single_leaf(self):
        rt = graph_of(reduction_tree(1))
        assert len(rt.graph.tasks) == 1

    def test_reduction_rejects_zero_leaves(self):
        with pytest.raises(ValueError):
            reduction_tree(0)

    def test_wavefront_dependencies(self):
        rt = graph_of(wavefront(3, 3))
        assert len(rt.graph.tasks) == 9
        # anti-diagonal structure: width profile 1,2,3,2,1
        assert rt.graph.width_profile() == [1, 2, 3, 2, 1]

    def test_pipeline_stage_state_serialises_same_stage(self):
        rt = graph_of(pipeline_grid(n_stages=2, n_items=3))
        # stage s of item i depends on stage s of item i-1
        by_label = {t.label: t for t in rt.graph.tasks}
        s0i1 = by_label["stage0.item1"]
        s0i0 = by_label["stage0.item0"]
        assert s0i0 in s0i1.predecessors

    def test_pipeline_dataflow_across_stages(self):
        rt = graph_of(pipeline_grid(n_stages=3, n_items=2))
        by_label = {t.label: t for t in rt.graph.tasks}
        assert by_label["stage1.item0"] in by_label["stage2.item0"].predecessors

    def test_critical_chain_labels(self):
        tasks = critical_chain_with_fillers(3, 5)
        labels = [t.label for t in tasks]
        assert labels.count("critical") == 3
        assert sum(1 for l in labels if l.startswith("filler")) == 5

    def test_critical_chain_is_actually_critical(self):
        rt = graph_of(critical_chain_with_fillers(4, 10))
        rt.graph.mark_critical_tasks()
        for t in rt.graph.tasks:
            if t.label == "critical":
                assert t.critical

    def test_all_shapes_execute_to_completion(self):
        for tasks in (
            chain(4),
            fork_join(3, 2),
            reduction_tree(6),
            wavefront(3, 4),
            pipeline_grid(2, 4),
            critical_chain_with_fillers(2, 6),
        ):
            rt = graph_of(tasks)
            res = rt.run()
            assert res.n_tasks == len(tasks)
