"""Scratchpad memories and the tiling software cache that feeds them.

Section 2: the compiler transforms strided references *"to map them to the
SPMs using tiling software caches"*.  The model captures the steady state of
that transformation:

* a strided stream is consumed tile by tile (``tile_bytes`` at a time);
* each new tile costs one DMA transfer (bulk NoC traffic + DRAM access +
  programming overhead), largely hidden by double buffering;
* every access within the tile is a cheap, coherence-free SPM access;
* output streams are written back with one bulk DMA per tile instead of a
  per-line write-allocate + eviction round trip.

The :class:`Scratchpad` also tracks which global address ranges are
currently resident so the SPM directory/filter can answer alias queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.stats import StatSet
from .params import MemoryParams

__all__ = ["Scratchpad", "DmaTransfer", "TilingStream"]


@dataclass(frozen=True)
class DmaTransfer:
    """One bulk SPM<->memory transfer the hierarchy must account."""

    core: int
    base_addr: int
    nbytes: int
    to_spm: bool  # True: fill (memory -> SPM); False: writeback


class Scratchpad:
    """One core's SPM: a set of resident address ranges, capacity-checked."""

    def __init__(self, core_id: int, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise ValueError("SPM size must be positive")
        self.core_id = core_id
        self.size_bytes = size_bytes
        self._ranges: Dict[int, int] = {}  # base -> nbytes
        # Counters (floats); ``stats`` reads them.
        self.maps = 0.0
        self.unmaps = 0.0
        self.accesses = 0.0
        self.writes = 0.0

    @property
    def used_bytes(self) -> int:
        return sum(self._ranges.values())

    def map_range(self, base: int, nbytes: int) -> None:
        if nbytes <= 0:
            raise ValueError("cannot map an empty range")
        if self.used_bytes + nbytes > self.size_bytes:
            raise MemoryError(
                f"SPM {self.core_id} overflow: {self.used_bytes}+{nbytes} "
                f"> {self.size_bytes}"
            )
        self._ranges[base] = nbytes
        self.maps += 1.0

    def unmap_range(self, base: int) -> None:
        self._ranges.pop(base, None)
        self.unmaps += 1.0

    def holds(self, addr: int) -> bool:
        for base, n in self._ranges.items():
            if base <= addr < base + n:
                return True
        return False

    def access(self, addr: int, write: bool) -> None:
        self.accesses += 1.0
        if write:
            self.writes += 1.0

    @property
    def stats(self) -> StatSet:
        """A fresh snapshot of the counters; a zero count has no key."""
        return StatSet.of_counts(f"spm{self.core_id}", (
            ("maps", self.maps),
            ("unmaps", self.unmaps),
            ("accesses", self.accesses),
            ("writes", self.writes),
        ))


#: What ``TilingStream.advance`` returns for an access that needs no
#: transfer inside the current tile.
_NO_TRANSFERS: Tuple[DmaTransfer, ...] = ()


class TilingStream:
    """The software cache managing one strided stream through one SPM.

    ``advance(addr, write)`` is called for every strided access in program
    order; it returns the :class:`DmaTransfer` objects (writeback of the
    previous dirty tile, fill of the next one) that the access triggered,
    and a shared empty tuple for a steady-state in-tile access.
    ``tile_base`` is the base of the mapped tile (``None`` before the first
    access and after :meth:`finish`).

    The fill is *lazy*: a tile is only DMA-filled on its first **read**.  A
    tile that is exclusively written (an output stream — the compiler knows
    this from the OUT dependence annotation) skips the fill entirely,
    avoiding the write-allocate round trip a cache would pay.  Moving to
    another tile therefore need not transfer anything: a write that leaves
    a clean tile returns no transfer, yet ``tile_base`` changes.
    """

    def __init__(self, spm: Scratchpad, params: MemoryParams) -> None:
        self.spm = spm
        self.tile_base: Optional[int] = None
        self._tile_bytes = params.tile_bytes
        self._dirty = False
        self._filled = False

    def _close_tile(self) -> List[DmaTransfer]:
        transfers: List[DmaTransfer] = []
        if self.tile_base is not None:
            if self._dirty:
                transfers.append(
                    DmaTransfer(
                        self.spm.core_id,
                        self.tile_base,
                        self._tile_bytes,
                        to_spm=False,
                    )
                )
            self.spm.unmap_range(self.tile_base)
            self.tile_base = None
            self._dirty = False
            self._filled = False
        return transfers

    def advance(self, addr: int, write: bool) -> Sequence[DmaTransfer]:
        tile_bytes = self._tile_bytes
        tile = addr - addr % tile_bytes
        if tile == self.tile_base:
            self.spm.access(addr, write)
            if write:
                self._dirty = True
                return _NO_TRANSFERS
            if self._filled:
                return _NO_TRANSFERS
            self._filled = True
            # First read of the tile: bring the data in.
            return [DmaTransfer(self.spm.core_id, tile, tile_bytes, to_spm=True)]
        transfers = self._close_tile()
        self.spm.map_range(tile, tile_bytes)
        self.tile_base = tile
        if write:
            self._dirty = True
        else:
            transfers.append(
                DmaTransfer(self.spm.core_id, tile, tile_bytes, to_spm=True)
            )
            self._filled = True
        self.spm.access(addr, write)
        return transfers

    def finish(self) -> List[DmaTransfer]:
        """Flush the final tile (end of the stream)."""
        return self._close_tile()
