"""Test helper: register one task on a graph-bound dependence tracker.

A :class:`~repro.core.deps.DependenceTracker` serves the graph it is built
with, and :meth:`~repro.core.deps.DependenceTracker.register_batch` is its
only way in.  :func:`register` runs the one-task batch ``Runtime.submit``
runs and reads the new edges back from ``graph.pred_lists()``.
"""


def register(tracker, task):
    """Register ``task``; return its edges as ``(predecessor, task)`` pairs."""
    graph = tracker.graph
    tracker.register_batch([task], 0.0)
    return {(graph.tasks[p], task) for p in graph.pred_lists()[task.gid]}
