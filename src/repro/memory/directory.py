"""SPM directory and per-core filters for unknown-alias accesses.

The hardware side of Section 2's co-designed protocol: *"the hybrid memory
hierarchy is extended with a set of directories and filters that track what
part of the data set is mapped and not mapped to the SPMs.  These new
elements are consulted at the execution of memory accesses with unknown
aliases, so all memory accesses can be correctly and efficiently served by
the appropriate memory."*

* The :class:`SpmFilter` is a cheap, core-local structure probed by every
  unknown-alias access.  It conservatively answers "possibly mapped to some
  SPM?"; a negative answer (the common case for truly random data) lets the
  access go straight to the cache hierarchy without any global lookup.
* The :class:`SpmDirectory` is the precise, distributed structure consulted
  only on filter hits; it names the owning core so the access can be routed
  to that SPM.

The filter is modelled as a set of coarse address segments with a
configurable false-positive rate contributed by segment granularity (a real
implementation would be a Bloom-like range filter).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.stats import StatSet

__all__ = ["SpmDirectory", "SpmFilter"]


#: ``SpmDirectory`` indexes its ranges by ``2**_GRANULE_BITS``-byte
#: address granules (4 KiB).
_GRANULE_BITS = 12


class SpmDirectory:
    """Precise map from global address ranges to the SPM holding them.

    ``_ranges`` maps each ``(base, nbytes)`` to its core in insertion order,
    and ``lookup`` answers with the first range in that order that holds
    the address.  So that it scans no unrelated range, ``_index`` lists the
    key of every range under each address granule the range covers, in
    ``_ranges`` order: a new key is appended to its granules' lists (it is
    last in ``_ranges``), re-inserting a present key changes only its core,
    and removing one deletes it from its lists, keeping the others' order.
    """

    def __init__(self) -> None:
        self._ranges: Dict[Tuple[int, int], int] = {}  # (base, nbytes) -> core
        self._index: Dict[int, List[Tuple[int, int]]] = {}  # granule -> keys
        # Counters (floats); ``stats`` reads them.
        self.inserts = 0.0
        self.removes = 0.0
        self.lookups = 0.0

    @staticmethod
    def _granules(base: int, nbytes: int) -> range:
        return range(base >> _GRANULE_BITS, ((base + nbytes - 1) >> _GRANULE_BITS) + 1)

    def insert(self, base: int, nbytes: int, core: int) -> None:
        key = (base, nbytes)
        if key not in self._ranges:
            index = self._index
            for g in self._granules(base, nbytes):
                keys = index.get(g)
                if keys is None:
                    index[g] = [key]
                else:
                    keys.append(key)
        self._ranges[key] = core
        self.inserts += 1.0

    def remove(self, base: int, nbytes: int) -> None:
        key = (base, nbytes)
        if key in self._ranges:
            del self._ranges[key]
            index = self._index
            for g in self._granules(base, nbytes):
                keys = index[g]
                keys.remove(key)
                if not keys:
                    del index[g]
        self.removes += 1.0

    def lookup(self, addr: int) -> Optional[int]:
        """Owning core of ``addr``, or ``None`` if not SPM-mapped."""
        self.lookups += 1.0
        for key in self._index.get(addr >> _GRANULE_BITS, ()):
            base, nbytes = key
            if base <= addr < base + nbytes:
                return self._ranges[key]
        return None

    @property
    def stats(self) -> StatSet:
        """A fresh snapshot of the counters; a zero count has no key."""
        return StatSet.of_counts("spm_directory", (
            ("inserts", self.inserts),
            ("removes", self.removes),
            ("lookups", self.lookups),
        ))

    @property
    def n_ranges(self) -> int:
        return len(self._ranges)


class SpmFilter:
    """Core-local conservative "is this address possibly in an SPM?" probe.

    Tracks mapped ranges at ``segment_bytes`` granularity; coarse segments
    make the filter small and fast at the cost of false positives (an
    address sharing a segment with mapped data probes the directory in
    vain).  False negatives are impossible — required for correctness.
    """

    def __init__(self, segment_bytes: int = 4 * 1024) -> None:
        if segment_bytes <= 0:
            raise ValueError("segment size must be positive")
        self.segment_bytes = segment_bytes
        self._segments: Dict[int, int] = {}  # segment -> refcount
        # Counters (floats); ``stats`` reads them.
        self.probes = 0.0
        self.hits = 0.0

    def _segments_of(self, base: int, nbytes: int) -> range:
        seg = self.segment_bytes
        return range(base // seg, (base + nbytes - 1) // seg + 1)

    def insert(self, base: int, nbytes: int) -> None:
        for seg in self._segments_of(base, nbytes):
            self._segments[seg] = self._segments.get(seg, 0) + 1

    def remove(self, base: int, nbytes: int) -> None:
        for seg in self._segments_of(base, nbytes):
            c = self._segments.get(seg, 0) - 1
            if c <= 0:
                self._segments.pop(seg, None)
            else:
                self._segments[seg] = c

    def maybe_mapped(self, addr: int) -> bool:
        self.probes += 1.0
        hit = addr // self.segment_bytes in self._segments
        if hit:
            self.hits += 1.0
        return hit

    @property
    def stats(self) -> StatSet:
        """A fresh snapshot of the counters; a zero count has no key."""
        return StatSet.of_counts(
            "spm_filter", (("probes", self.probes), ("hits", self.hits))
        )
