"""Unit tests for the MSI coherence directory."""

from repro.memory.coherence import CoherenceDirectory


class TestReads:
    def test_first_read_registers_sharer(self):
        d = CoherenceDirectory()
        out = d.read(0, core=1)
        assert out.invalidations == 0
        assert out.owner_forward is None
        assert d.copies_of(0) == {1}

    def test_many_readers_share(self):
        d = CoherenceDirectory()
        for c in range(4):
            d.read(0, c)
        assert d.copies_of(0) == {0, 1, 2, 3}

    def test_read_after_remote_write_forwards_from_owner(self):
        d = CoherenceDirectory()
        d.write(0, core=2)
        out = d.read(0, core=5)
        assert out.owner_forward == 2
        # Owner is downgraded to sharer.
        assert d.copies_of(0) == {2, 5}
        assert d.peek(0).owner is None

    def test_read_by_owner_does_not_forward(self):
        d = CoherenceDirectory()
        d.write(0, core=2)
        out = d.read(0, core=2)
        assert out.owner_forward is None


class TestWrites:
    def test_write_invalidates_sharers(self):
        d = CoherenceDirectory()
        d.read(0, 1)
        d.read(0, 2)
        out = d.write(0, core=3)
        assert out.invalidations == 2
        assert d.copies_of(0) == {3}
        assert d.peek(0).owner == 3

    def test_write_after_write_forwards_and_invalidates(self):
        d = CoherenceDirectory()
        d.write(0, core=1)
        out = d.write(0, core=2)
        assert out.owner_forward == 1
        assert out.invalidations == 1
        assert d.peek(0).owner == 2

    def test_upgrade_by_sharer_excludes_self(self):
        d = CoherenceDirectory()
        d.read(0, 1)
        d.read(0, 2)
        out = d.write(0, core=1)
        assert out.invalidations == 1  # only core 2
        assert d.copies_of(0) == {1}

    def test_victims_are_every_other_copy_in_ascending_core_order(self):
        d = CoherenceDirectory()
        for c in (6, 2, 9):
            d.read(0, c)
        out = d.write(0, core=9)
        assert out.victims == (2, 6)
        assert out.invalidations == 2
        out = d.write(0, core=0)
        assert out.victims == (9,) and out.owner_forward == 9

    def test_rewrite_by_owner_is_free(self):
        d = CoherenceDirectory()
        d.write(0, 1)
        out = d.write(0, 1)
        assert out.invalidations == 0
        assert out.owner_forward is None


class TestEvictions:
    def test_eviction_removes_sharer(self):
        d = CoherenceDirectory()
        d.read(0, 1)
        d.read(0, 2)
        d.evicted(0, 1, dirty=False)
        assert d.copies_of(0) == {2}

    def test_eviction_of_owner_clears_ownership(self):
        d = CoherenceDirectory()
        d.write(0, 1)
        d.evicted(0, 1, dirty=True)
        assert d.copies_of(0) == set()
        assert d.stats.get("dirty_writebacks") == 1

    def test_entry_garbage_collected_when_empty(self):
        d = CoherenceDirectory()
        d.read(0, 1)
        d.evicted(0, 1, dirty=False)
        assert d.tracked_lines == 0

    def test_eviction_of_untracked_line_is_noop(self):
        d = CoherenceDirectory()
        d.evicted(12345, 0, dirty=False)
        assert d.tracked_lines == 0


def test_private_data_never_invalidates():
    """A single core reading and writing its own lines should produce no
    coherence actions — the property that makes SPM-served strided data
    'coherence-free' meaningful as a comparison."""
    d = CoherenceDirectory()
    for line in range(0, 64 * 100, 64):
        d.read(line, 7)
        out = d.write(line, 7)
        assert out.invalidations == 0
    assert d.stats.get("invalidations", ) == 0
