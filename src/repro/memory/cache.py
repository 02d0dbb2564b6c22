"""Set-associative write-back caches with true LRU replacement.

Tag-only simulation: the model tracks which lines are resident and dirty but
stores no data.  ``access`` returns what happened (hit / miss) plus any
dirty victim that must be written back, so the caller (the hierarchy) can
generate the corresponding refill and writeback traffic.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from ..sim.stats import StatSet

__all__ = ["SetAssocCache", "CacheAccessResult"]


class CacheAccessResult:
    """Outcome of one cache access."""

    __slots__ = ("hit", "victim_addr", "victim_dirty")

    def __init__(self, hit: bool, victim_addr: Optional[int], victim_dirty: bool):
        self.hit = hit
        self.victim_addr = victim_addr
        self.victim_dirty = victim_dirty

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CacheAccessResult(hit={self.hit}, victim={self.victim_addr}, "
            f"dirty={self.victim_dirty})"
        )


#: The result of every hit.
_HIT = CacheAccessResult(True, None, False)


class SetAssocCache:
    """A ``size_bytes`` cache of ``ways``-way sets with ``line_bytes`` lines.

    LRU state per set is an :class:`~collections.OrderedDict` mapping line
    address to its dirty bit; the most recently used line sits at the end.
    """

    def __init__(
        self, size_bytes: int, line_bytes: int, ways: int, name: str = "cache"
    ) -> None:
        if size_bytes <= 0 or line_bytes <= 0 or ways <= 0:
            raise ValueError("cache geometry must be positive")
        if size_bytes % (line_bytes * ways) != 0:
            raise ValueError("size must be a multiple of line_bytes * ways")
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = size_bytes // (line_bytes * ways)
        self.name = name
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.n_sets)]
        # Counters (floats, as the pinned snapshots hold them); ``stats``
        # reads them.
        self.hits = 0.0
        self.write_hits = 0.0
        self.misses = 0.0
        self.write_misses = 0.0
        self.evictions = 0.0
        self.dirty_evictions = 0.0
        self.invalidations = 0.0

    # ------------------------------------------------------------------
    def line_addr(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def _set_index(self, line: int) -> int:
        return (line // self.line_bytes) % self.n_sets

    def contains(self, addr: int) -> bool:
        line = self.line_addr(addr)
        return line in self._sets[self._set_index(line)]

    def is_dirty(self, addr: int) -> bool:
        line = self.line_addr(addr)
        return bool(self._sets[self._set_index(line)].get(line, False))

    # ------------------------------------------------------------------
    def access(self, addr: int, write: bool) -> CacheAccessResult:
        """Look up ``addr``; on a miss, allocate (write-allocate policy).

        Returns the result including any dirty victim evicted to make room.
        Every hit returns the same shared result object (treat it as
        read-only).
        """
        lb = self.line_bytes
        line = addr - addr % lb
        s = self._sets[(line // lb) % self.n_sets]
        if line in s:
            s.move_to_end(line)
            self.hits += 1.0
            if write:
                s[line] = True
                self.write_hits += 1.0
            return _HIT

        self.misses += 1.0
        if write:
            self.write_misses += 1.0
        victim_addr = None
        victim_dirty = False
        if len(s) >= self.ways:
            victim_addr, victim_dirty = s.popitem(last=False)  # LRU
            self.evictions += 1.0
            if victim_dirty:
                self.dirty_evictions += 1.0
        s[line] = bool(write)
        return CacheAccessResult(False, victim_addr, victim_dirty)

    def fill(self, addr: int, dirty: bool = False) -> Tuple[Optional[int], bool]:
        """Install a line without counting a demand access (DMA / prefetch).

        Returns ``(victim_addr, victim_dirty)``.
        """
        line = self.line_addr(addr)
        s = self._sets[self._set_index(line)]
        if line in s:
            s.move_to_end(line)
            s[line] = s[line] or dirty
            return None, False
        victim_addr, victim_dirty = None, False
        if len(s) >= self.ways:
            victim_addr, victim_dirty = s.popitem(last=False)
        s[line] = dirty
        return victim_addr, victim_dirty

    def invalidate(self, addr: int) -> bool:
        """Drop a line (coherence invalidation); returns True if present."""
        line = self.line_addr(addr)
        s = self._sets[self._set_index(line)]
        if line in s:
            del s[line]
            self.invalidations += 1.0
            return True
        return False

    def flush_dirty(self) -> List[int]:
        """Return and clean all dirty lines (end-of-phase writeback)."""
        out = []
        for s in self._sets:
            for line, dirty in s.items():
                if dirty:
                    out.append(line)
                    s[line] = False
        return out

    # ------------------------------------------------------------------
    @property
    def stats(self) -> StatSet:
        """A fresh snapshot of the counters; a zero count has no key."""
        return StatSet.of_counts(self.name, (
            ("hits", self.hits),
            ("write_hits", self.write_hits),
            ("misses", self.misses),
            ("write_misses", self.write_misses),
            ("evictions", self.evictions),
            ("dirty_evictions", self.dirty_evictions),
            ("invalidations", self.invalidations),
        ))

    @property
    def hit_rate(self) -> float:
        h, m = self.hits, self.misses
        return h / (h + m) if h + m else 0.0

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)
