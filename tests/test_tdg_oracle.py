"""TDG soundness against an oracle derived from the declared accesses alone.

The other equivalence suites compare one in-repo implementation with
another.  This one checks the dependence tracker against the definition
of a data hazard: two accesses *conflict* when they name the same object,
their ``[start, stop)`` intervals overlap, and they are not both ``IN``
(read/read) nor both ``CONCURRENT`` (members of one concurrent group).
The oracle finds every conflicting pair of tasks by brute-force O(n^2)
comparison of their declared accesses — no tracker, no graph — and
requires, for each earlier/later pair in submission order:

* the later task is reachable from the earlier one through
  ``graph.succ_ids`` (the TDG orders them, directly or transitively);
* the later task starts no earlier than the earlier one ends.

The tracker may add edges the oracle does not require (its region
histories over-approximate overlap); it must never drop one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import Runtime
from repro.core.task import DepKind, Task
from repro.sim.machine import Machine

_KIND_ARGS = {
    DepKind.IN: "in_",
    DepKind.OUT: "out",
    DepKind.INOUT: "inout",
    DepKind.CONCURRENT: "concurrent",
    DepKind.COMMUTATIVE: "commutative",
}

_region = st.one_of(
    # Interval access in a small coordinate space, so partial overlaps
    # are common.
    st.tuples(
        st.sampled_from(("a", "b")), st.integers(0, 16), st.integers(1, 6)
    ).map(lambda t: (t[0], t[1], t[1] + t[2])),
    # Whole-object access.
    st.sampled_from(("a", "b")),
)
_access = st.tuples(st.sampled_from(tuple(_KIND_ARGS)), _region)
_task = st.tuples(
    st.lists(_access, min_size=1, max_size=3),
    st.sampled_from((1e5, 1e6, 3e6)),
)
_program = st.tuples(
    st.lists(_task, min_size=1, max_size=14), st.integers(1, 3)
)


def _make_task(label, accesses, cycles):
    kwargs = {arg: [] for arg in _KIND_ARGS.values()}
    for kind, spec in accesses:
        kwargs[_KIND_ARGS[kind]].append(spec)
    return Task.make(label, cpu_cycles=cycles, **kwargs)


def _conflicts(a, b):
    """Do two tasks' declared accesses form a data hazard?"""
    for da in a.deps:
        for db in b.deps:
            if not da.region.overlaps(db.region):
                continue
            if da.kind is DepKind.IN and db.kind is DepKind.IN:
                continue
            if (
                da.kind is DepKind.CONCURRENT
                and db.kind is DepKind.CONCURRENT
            ):
                continue
            return True
    return False


def _reachable(succ_ids, src):
    seen = {src}
    stack = [src]
    while stack:
        for s in succ_ids[stack.pop()]:
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return seen


class TestTdgSoundness:
    @settings(max_examples=400, deadline=None)
    @given(_program)
    def test_every_hazard_is_ordered(self, program):
        specs, n_windows = program
        tasks = [
            _make_task(f"t{i}", accesses, cycles)
            for i, (accesses, cycles) in enumerate(specs)
        ]
        rt = Runtime(Machine(4, initial_level=2), record_trace=False)
        step = -(-len(tasks) // n_windows)
        for i in range(0, len(tasks), step):
            rt.submit_all(tasks[i:i + step])
            rt.taskwait()
        graph = rt.graph
        assert [t.gid for t in tasks] == list(range(len(tasks)))
        for later in range(len(tasks)):
            for earlier in range(later):
                if not _conflicts(tasks[earlier], tasks[later]):
                    continue
                assert later in _reachable(graph.succ_ids, earlier), (
                    f"hazard t{earlier} -> t{later} missing from the TDG"
                )
                assert graph.start_time[later] >= graph.end_time[earlier], (
                    f"t{later} started before t{earlier} ended"
                )
