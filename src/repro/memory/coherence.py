"""Directory-based MSI coherence for the cache hierarchy.

Every L2 bank is the *home* of the lines that map to it and keeps a
directory entry per tracked line: the set of cores with a copy and, when a
core holds the line modified, that owner.  The protocol generates exactly
the message pattern whose elimination for strided data is one of Figure 1's
three wins:

* read miss with a remote modified owner → fetch-from-owner + downgrade,
* write (hit on shared, or miss) → invalidations to all sharers + acks,
* dirty L1 eviction → writeback to home.

The directory is *full-map precise*: stale entries are cleaned when L1
evictions are reported (the hierarchy reports them, as silent-drop clean
evictions would otherwise inflate invalidation traffic forever).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..sim.stats import StatSet

__all__ = ["DirectoryEntry", "CoherenceDirectory", "CoherenceOutcome"]


@dataclass
class DirectoryEntry:
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None  # core holding the line Modified


class CoherenceOutcome:
    """What the protocol had to do to satisfy one request (read-only).

    ``victims`` — the other cores whose copies must be invalidated
    (control msg + ack each), in ascending core order.
    ``invalidations`` — how many: ``len(victims)``.
    ``owner_forward`` — core that had the line Modified and supplied data.
    """

    __slots__ = ("victims", "owner_forward")

    def __init__(self, victims: Tuple[int, ...], owner_forward: Optional[int]) -> None:
        self.victims = victims
        self.owner_forward = owner_forward

    @property
    def invalidations(self) -> int:
        return len(self.victims)


#: The outcome of every request that needs no protocol action.
_NO_ACTION = CoherenceOutcome((), None)


class CoherenceDirectory:
    """Full-map MSI directory for the lines of one (logical) home L2."""

    def __init__(self) -> None:
        self._entries: Dict[int, DirectoryEntry] = {}
        # Counters; ``stats`` reads them.  ``invalidations`` sums
        # ``len(victims)``, so it is an int.
        self.owner_forwards = 0.0
        self.invalidations = 0
        self.dirty_writebacks = 0.0

    def entry(self, line: int) -> DirectoryEntry:
        e = self._entries.get(line)
        if e is None:
            e = DirectoryEntry()
            self._entries[line] = e
        return e

    def peek(self, line: int) -> Optional[DirectoryEntry]:
        return self._entries.get(line)

    # ------------------------------------------------------------------
    def read(self, line: int, core: int) -> CoherenceOutcome:
        """Core ``core`` read-misses on ``line``."""
        e = self.entry(line)
        owner = e.owner
        if owner is None or owner == core:
            e.sharers.add(core)
            return _NO_ACTION
        # Owner must write back / forward; it stays on as a sharer.
        e.sharers.add(owner)
        e.owner = None
        self.owner_forwards += 1.0
        e.sharers.add(core)
        return CoherenceOutcome((), owner)

    def write(self, line: int, core: int) -> CoherenceOutcome:
        """Core ``core`` writes ``line`` (miss or upgrade).

        Every other core with a copy, sharer or owner, is a victim; the
        outcome lists them in ascending core order, which is the order the
        hierarchy sends their invalidations in.  The directory is precise
        (evictions are reported), so the victims are exactly the other L1s
        that hold the line.
        """
        e = self.entry(line)
        owner = e.owner
        forward = None
        copies = e.sharers
        if owner is not None:
            if owner != core:
                forward = owner
                self.owner_forwards += 1.0
            copies.add(owner)
        copies.discard(core)
        e.sharers = set()
        e.owner = core
        victims = tuple(sorted(copies))
        if victims:
            self.invalidations += len(victims)
        return CoherenceOutcome(victims, forward)

    def evicted(self, line: int, core: int, dirty: bool) -> None:
        """An L1 dropped its copy; keep the directory precise."""
        e = self._entries.get(line)
        if e is None:
            return
        e.sharers.discard(core)
        if e.owner == core:
            e.owner = None
            if dirty:
                self.dirty_writebacks += 1.0
        if not e.sharers and e.owner is None:
            del self._entries[line]

    # ------------------------------------------------------------------
    def copies_of(self, line: int) -> Set[int]:
        e = self._entries.get(line)
        if e is None:
            return set()
        out = set(e.sharers)
        if e.owner is not None:
            out.add(e.owner)
        return out

    @property
    def stats(self) -> StatSet:
        """A fresh snapshot of the counters; a zero count has no key."""
        return StatSet.of_counts("coherence", (
            ("owner_forwards", self.owner_forwards),
            ("invalidations", self.invalidations),
            ("dirty_writebacks", self.dirty_writebacks),
        ))

    @property
    def tracked_lines(self) -> int:
        return len(self._entries)
