"""Property-based tests on the memory models (hypothesis).

The cache is checked against an executable reference model (a plain dict
of per-set LRU lists) and against LRU's inclusion property; the coherence
directory against a global invariant (at most one modified copy, never a
modified copy alongside sharers) and against the L1s it tracks; the
hierarchy against conservation-style accounting invariants.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.memory.access import RefClass
from repro.memory.cache import SetAssocCache
from repro.memory.coherence import CoherenceDirectory
from repro.memory.directory import SpmDirectory
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.params import MemoryParams

# ---------------------------------------------------------------------------
# cache vs reference model
# ---------------------------------------------------------------------------

_addrs = st.integers(0, 2047)
_ops = st.lists(st.tuples(_addrs, st.booleans()), max_size=300)


class _RefCache:
    """Straight-line reference implementation of a set-assoc LRU cache."""

    def __init__(self, size, line, ways):
        self.line = line
        self.ways = ways
        self.n_sets = size // (line * ways)
        self.sets = [OrderedDict() for _ in range(self.n_sets)]

    def access(self, addr, write):
        line = addr - addr % self.line
        s = self.sets[(line // self.line) % self.n_sets]
        hit = line in s
        if hit:
            s.move_to_end(line)
            s[line] = s[line] or write
        else:
            if len(s) >= self.ways:
                s.popitem(last=False)
            s[line] = write
        return hit


@given(_ops)
@settings(max_examples=80, deadline=None)
def test_cache_matches_reference_model(ops):
    cache = SetAssocCache(1024, 64, 2)
    ref = _RefCache(1024, 64, 2)
    for addr, write in ops:
        got = cache.access(addr, write).hit
        want = ref.access(addr, write)
        assert got == want


@given(_ops)
@settings(max_examples=80, deadline=None)
def test_cache_results_match_reference_model(ops):
    """Every field of a result: a hit reports the line's prior dirty bit,
    a miss the LRU victim (if the set was full) and whether it was dirty."""
    cache = SetAssocCache(1024, 64, 2)
    ref = _RefCache(1024, 64, 2)
    for addr, write in ops:
        line = addr - addr % 64
        s = ref.sets[(line // 64) % ref.n_sets]
        was_dirty = bool(s.get(line, False))
        victim = None
        if line not in s and len(s) >= ref.ways:
            victim = next(iter(s.items()))
        hit = ref.access(addr, write)
        want = (
            (True, None, False, was_dirty) if hit
            else (False, None, False, False) if victim is None
            else (False, victim[0], bool(victim[1]), False)
        )
        got = cache.access(addr, write)
        assert (got.hit, got.victim_addr, got.victim_dirty, got.was_dirty) == want


# ---------------------------------------------------------------------------
# SPM directory vs a linear scan
# ---------------------------------------------------------------------------


class _ScanDirectory:
    """Reference SPM directory: every lookup scans the ranges in insertion
    order and answers with the first that holds the address."""

    def __init__(self):
        self.ranges = {}
        self.inserts = self.removes = self.lookups = 0.0

    def insert(self, base, nbytes, core):
        self.ranges[(base, nbytes)] = core
        self.inserts += 1.0

    def remove(self, base, nbytes):
        self.ranges.pop((base, nbytes), None)
        self.removes += 1.0

    def lookup(self, addr):
        self.lookups += 1.0
        for (base, nbytes), core in self.ranges.items():
            if base <= addr < base + nbytes:
                return core
        return None


# Few distinct keys, so removes and re-inserts (also with another core) hit
# present ranges; bases and sizes are aligned and not, and span granules.
_bases = st.sampled_from([0, 8, 1000, 4090, 4096, 6000, 8192, 12000])
_sizes = st.sampled_from([1, 8, 64, 1024, 4096, 5000, 9000])
_dir_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _bases, _sizes, st.integers(0, 3)),
        st.tuples(st.just("remove"), _bases, _sizes),
        st.tuples(st.just("lookup"), st.integers(0, 22000)),
    ),
    max_size=120,
)
_PROBES = (0, 7, 8, 999, 1000, 4089, 4095, 4096, 4097, 5095, 6000, 8191,
           8192, 9095, 10096, 12000, 13023, 16095, 17191, 21000)


@given(_dir_ops)
@example([  # overlapping, unaligned, granule-spanning: the first wins
    ("insert", 4090, 5000, 1), ("insert", 4096, 64, 2), ("lookup", 4100),
])
@example([  # removed and re-inserted: the range goes last
    ("insert", 0, 9000, 1), ("insert", 4096, 64, 2), ("remove", 0, 9000),
    ("insert", 0, 9000, 3), ("lookup", 4100), ("lookup", 8200),
])
@example([  # re-inserted with another core: it keeps its place
    ("insert", 0, 9000, 1), ("insert", 4096, 64, 2), ("insert", 0, 9000, 3),
    ("lookup", 4100), ("remove", 0, 9000), ("lookup", 4100), ("remove", 0, 9000),
])
@settings(max_examples=150, deadline=None)
def test_spm_directory_matches_linear_scan(ops):
    """Lookups, counters and range counts equal the reference's after
    every operation, probed across granule boundaries."""
    d = SpmDirectory()
    ref = _ScanDirectory()
    for op, *args in ops:
        assert getattr(d, op)(*args) == getattr(ref, op)(*args)
        for addr in _PROBES:
            assert d.lookup(addr) == ref.lookup(addr), addr
        assert d.n_ranges == len(ref.ranges)
        assert d.stats.as_dict() == {
            k: v for k, v in (("inserts", ref.inserts), ("removes", ref.removes),
                              ("lookups", ref.lookups)) if v
        }


@given(_ops)
@settings(max_examples=50, deadline=None)
def test_cache_occupancy_bounded(ops):
    cache = SetAssocCache(1024, 64, 2)
    for addr, write in ops:
        cache.access(addr, write)
    assert cache.occupancy() <= 1024 // 64


@given(_ops)
@settings(max_examples=50, deadline=None)
def test_cache_hits_plus_misses_equals_accesses(ops):
    cache = SetAssocCache(2048, 64, 4)
    for addr, write in ops:
        cache.access(addr, write)
    assert cache.stats.get("hits") + cache.stats.get("misses") == len(ops)


@given(_ops, st.integers(1, 16), st.integers(1, 16))
@settings(max_examples=80, deadline=None)
def test_lru_misses_never_grow_with_capacity(ops, small, extra):
    """LRU's inclusion property: a fully-associative LRU cache of ``k``
    lines always holds the ``k`` most recently used lines, a subset of
    what a larger one holds, so more capacity never adds a miss."""
    misses = []
    for ways in (small, small + extra):
        cache = SetAssocCache(ways * 64, 64, ways)  # one set
        for addr, write in ops:
            cache.access(addr, write)
        misses.append(cache.stats.get("misses"))
    assert misses[1] <= misses[0]


# ---------------------------------------------------------------------------
# coherence directory invariants
# ---------------------------------------------------------------------------

_coherence_ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "evict"]),
        st.integers(0, 3),  # line id (scaled by 64)
        st.integers(0, 3),  # core
    ),
    max_size=200,
)


@given(_coherence_ops)
@settings(max_examples=80, deadline=None)
def test_directory_single_writer_invariant(ops):
    """After any operation sequence: an owned line has no other sharers."""
    d = CoherenceDirectory()
    for op, line_id, core in ops:
        line = line_id * 64
        if op == "read":
            d.read(line, core)
        elif op == "write":
            d.write(line, core)
        else:
            d.evicted(line, core, dirty=False)
        e = d.peek(line)
        if e is not None and e.owner is not None:
            assert e.sharers - {e.owner} == set(), (
                "modified copy coexists with sharers"
            )


@given(_coherence_ops)
@settings(max_examples=50, deadline=None)
def test_directory_copies_match_membership(ops):
    d = CoherenceDirectory()
    for op, line_id, core in ops:
        line = line_id * 64
        if op == "read":
            out = d.read(line, core)
            assert core in d.copies_of(line)
        elif op == "write":
            out = d.write(line, core)
            assert d.copies_of(line) == {core}
        else:
            d.evicted(line, core, dirty=False)
            assert core not in d.copies_of(line)


# ---------------------------------------------------------------------------
# hierarchy accounting invariants
# ---------------------------------------------------------------------------

_access_seq = st.lists(
    st.tuples(
        st.integers(0, 3),  # core
        st.integers(0, 1 << 22),  # addr
        st.booleans(),  # write
        st.sampled_from(list(RefClass)),
    ),
    min_size=1,
    max_size=150,
)


@given(_access_seq, st.sampled_from(["cache", "hybrid"]))
@settings(max_examples=40, deadline=None)
def test_hierarchy_accounting_invariants(seq, mode):
    params = MemoryParams(tile_bytes=256)
    h = MemoryHierarchy(4, mode=mode, params=params)
    h.register_filter_region(0, 1 << 20)
    for core, addr, write, cls in seq:
        lat = h.access(core, addr, write, cls)
        assert lat > 0  # every access takes time
        assert np.isfinite(lat)
    h.finish()
    # Energy and traffic are non-negative and monotone accumulators.
    assert h.energy_j >= 0
    assert h.noc_flit_hops() >= 0
    assert h.stats.get("accesses") == len(seq)
    # Per-core latency totals sum to the global total.
    assert sum(h.mem_cycles) == h.total_mem_cycles()


@given(_access_seq)
@settings(max_examples=30, deadline=None)
def test_hierarchy_deterministic(seq):
    def run():
        h = MemoryHierarchy(4, mode="hybrid", params=MemoryParams(tile_bytes=256))
        for core, addr, write, cls in seq:
            h.access(core, addr, write, cls)
        h.finish()
        return h.energy_j, h.noc_flit_hops(), h.total_mem_cycles()

    assert run() == run()


# small L1s and L2 banks, few lines: evictions, sharing and upgrades are
# common, so the coherence paths all run
_SMALL = MemoryParams(l1_bytes=256, l1_ways=2, l2_bank_bytes=1024, l2_ways=2,
                      tile_bytes=256)
_shared_seq = st.lists(
    st.tuples(
        st.integers(0, 3),  # core
        st.integers(0, 31),  # line id (scaled by 64, plus an offset)
        st.booleans(),  # write
        st.sampled_from(list(RefClass)),
    ),
    min_size=1,
    max_size=200,
)


@given(_shared_seq, st.sampled_from(["cache", "hybrid"]))
@settings(max_examples=60, deadline=None)
def test_directory_copies_are_the_l1s_holding_the_line(seq, mode):
    """After every access, the full-map directory names exactly the L1s
    that hold each line: no L1 holds a line the directory does not list,
    and the directory lists no core whose L1 lacks it.  Invalidation
    relies on this, since it visits only the cores the directory names."""
    h = MemoryHierarchy(4, mode=mode, params=_SMALL)
    h.register_filter_region(0, 16 * 64)  # unknown accesses probe the SPM side
    h.pin_region(1, 0, 4 * 64)
    lines = sorted({line_id * 64 for _, line_id, _, _ in seq})
    for core, line_id, write, cls in seq:
        h.access(core, line_id * 64 + 8 * (line_id % 8), write, cls)
        for line in lines:
            holders = {c for c in range(4) if h.l1[c].contains(line)}
            assert h.coherence.copies_of(line) == holders, line


@given(_shared_seq, st.sampled_from(["cache", "hybrid"]))
@settings(max_examples=60, deadline=None)
def test_cache_levels_conserve_accesses(seq, mode):
    """L1 hits + misses = the accesses that took the cache path, and L2
    hits + misses = the L1 misses, in the hierarchy's counters and in the
    caches' own."""
    h = MemoryHierarchy(4, mode=mode, params=_SMALL)
    h.register_filter_region(0, 16 * 64)
    h.pin_region(1, 0, 4 * 64)
    for core, line_id, write, cls in seq:
        h.access(core, line_id * 64, write, cls)
    h.finish()
    s = h.stats
    cache_path = s.get("accesses") - s.get("spm_hits") - s.get("unknown_spm_served")
    l1 = s.get("l1_hits") + s.get("l1_misses")
    assert l1 == cache_path
    assert s.get("l2_hits") + s.get("l2_misses") == s.get("l1_misses")
    assert sum(c.stats.get("hits") + c.stats.get("misses") for c in h.l1) == l1
    assert (
        sum(c.stats.get("hits") + c.stats.get("misses") for c in h.l2)
        == s.get("l1_misses")
    )
