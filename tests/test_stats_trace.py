"""Unit tests for the stats and trace infrastructure."""

import pytest

from repro.sim.stats import StatSet, geometric_mean
from repro.sim.trace import TraceRecord, TraceRecorder


class TestStatSet:
    def test_default_zero_and_add(self):
        s = StatSet("x")
        assert s.get("missing") == 0.0
        s.add("hits")
        s.add("hits", 2.5)
        assert s["hits"] == pytest.approx(3.5)

    def test_contains_and_keys(self):
        s = StatSet()
        s.add("a")
        assert "a" in s and "b" not in s
        assert list(s.keys()) == ["a"]

    def test_merge_and_scaled(self):
        a, b = StatSet(), StatSet()
        a.add("x", 1)
        b.add("x", 2)
        b.add("y", 3)
        a.merge(b)
        assert a["x"] == 3 and a["y"] == 3

    def test_empty_set_report(self):
        """An untouched StatSet reports cleanly from every accessor."""
        s = StatSet("empty")
        assert s.as_dict() == {}
        assert list(s.keys()) == []
        target = StatSet()
        target.merge(s)  # merging an empty set is a no-op
        assert target.as_dict() == {}

    def test_of_counts_keeps_nonzero_counts_as_given(self):
        """A snapshot carries a key iff its count is non-zero, with the
        count's own type (``1`` and ``1.0`` serialise differently)."""
        s = StatSet.of_counts("c", [("a", 2.0), ("b", 0.0), ("n", 3), ("z", 0)])
        assert s.name == "c" and s.as_dict() == {"a": 2.0, "n": 3}
        assert type(s["a"]) is float and type(s["n"]) is int
        assert "b" not in s and s.get("b") == 0.0

    def test_add_many_equivalent_to_add_loop(self):
        """Bulk and per-key accumulation must land on identical totals,
        including repeated keys inside one batch."""
        pairs = [("a", 1.0), ("b", 0.25), ("a", 2.0), ("c", -1.0), ("b", 0.75)]
        bulk, loop = StatSet(), StatSet()
        bulk.add_many(pairs)
        for key, value in pairs:
            loop.add(key, value)
        assert bulk.as_dict() == loop.as_dict()


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([])


def rec(gid, core, start, end, critical=False):
    return TraceRecord(gid, f"t{gid}", core, start, end, 2.0, critical)


class TestTraceRecorder:
    def test_makespan_and_busy(self):
        tr = TraceRecorder([
            rec(0, 0, 0.0, 1.0),
            rec(1, 1, 0.5, 2.0),
        ])
        assert tr.makespan() == pytest.approx(2.0)
        assert len(tr) == 2

    def test_utilisation(self):
        tr = TraceRecorder([
            rec(0, 0, 0.0, 2.0),
            rec(1, 1, 0.0, 1.0),
        ])
        assert tr.utilisation(2) == pytest.approx(0.75)

    def test_validate_overlap_detection(self):
        tr = TraceRecorder([
            rec(0, 0, 0.0, 1.0),
            rec(1, 0, 0.5, 2.0),  # overlaps on core 0
        ])
        with pytest.raises(AssertionError):
            tr.validate_no_overlap()

    def test_gantt_renders_all_cores(self):
        tr = TraceRecorder([
            rec(0, 0, 0.0, 1.0),
            rec(1, 1, 1.0, 2.0, critical=True),
        ])
        art = tr.gantt(width=20)
        assert "core   0" in art and "core   1" in art
        assert "#" in art  # critical marker

    def test_empty_gantt(self):
        assert TraceRecorder().gantt() == "(empty trace)"

    def test_empty_trace_utilisation_zero(self):
        tr = TraceRecorder()
        assert tr.utilisation(4) == 0.0
        assert tr.makespan() == 0.0

    def test_single_record_gantt_and_utilisation(self):
        tr = TraceRecorder([
            rec(0, 2, 1.0, 3.0),
        ])
        art = tr.gantt(width=20)
        assert "core   2" in art
        assert "=" in art  # the lone task renders as a bar
        # One core fully busy over the makespan; the other three idle.
        assert tr.utilisation(1) == pytest.approx(1.0)
        assert tr.utilisation(4) == pytest.approx(0.25)

    def test_zero_duration_record_utilisation_zero(self):
        tr = TraceRecorder([
            rec(0, 0, 1.0, 1.0),  # instantaneous task: span == 0
        ])
        assert tr.utilisation(4) == 0.0

    def test_by_core_sorted_by_start(self):
        tr = TraceRecorder([
            rec(1, 0, 2.0, 3.0),
            rec(0, 0, 0.0, 1.0),
        ])
        recs = tr.by_core()[0]
        assert [r.gid for r in recs] == [0, 1]


class TestStatSetFastPath:
    """Plain-dict counter path and the bulk add_many/merge API."""

    def test_add_many_from_mapping(self):
        s = StatSet()
        s.add("x", 1.0)
        s.add_many({"x": 2.0, "y": 3.0})
        assert s["x"] == 3.0 and s["y"] == 3.0

    def test_add_many_from_pairs(self):
        s = StatSet()
        s.add_many([("a", 1.0), ("a", 2.0), ("b", 0.5)])
        assert s["a"] == 3.0 and s["b"] == 0.5

    def test_merge_matches_add_many(self):
        a, b = StatSet(), StatSet()
        b.add("k", 4.0)
        b.add("j", 1.0)
        a.merge(b)
        c = StatSet()
        c.add_many(b.as_dict())
        assert a.as_dict() == c.as_dict()

    def test_statset_is_slotted(self):
        s = StatSet("x")
        assert not hasattr(s, "__dict__")

    def test_missing_key_still_defaults_to_zero(self):
        s = StatSet()
        assert s.get("nope") == 0.0
        assert "nope" not in s  # get() must not materialise the key
