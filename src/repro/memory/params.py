"""Latency and energy constants for the memory hierarchy.

The absolute values follow the magnitudes used in the methodology of the
ISCA'15 hybrid-memory paper this figure summarises (CACTI-class tables for
32 nm SRAM arrays, standard DDR access energies).  What matters for the
reproduction is the *ratios*:

* an SPM access is cheaper than a cache hit (no tag array, no TLB-coherent
  lookup, no coherence state) — here 8 pJ vs 20 pJ, 1 vs 2 cycles;
* a DRAM line access dwarfs everything on-chip (~20 nJ per 64 B line);
* bulk DMA transfers amortise control overhead that per-line cache refills
  pay repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["MemoryParams"]


@dataclass(frozen=True)
class MemoryParams:
    """All tunable constants of the memory system, in one place."""

    # geometry -----------------------------------------------------------
    line_bytes: int = 64
    l1_bytes: int = 32 * 1024
    l1_ways: int = 4
    l2_bank_bytes: int = 256 * 1024
    l2_ways: int = 8
    spm_bytes: int = 64 * 1024
    tile_bytes: int = 1024  # SPM tiling software-cache tile
    access_bytes: int = 8  # one double per reference

    # latencies (cycles at the core clock) --------------------------------
    l1_hit_cycles: float = 2.0
    spm_hit_cycles: float = 1.0
    filter_cycles: float = 1.0  # SPM-map filter probe (local)
    directory_cycles: float = 3.0  # SPM directory consult (at home node)
    l2_hit_cycles: float = 12.0
    dram_cycles: float = 120.0
    dma_setup_cycles: float = 40.0  # per-tile DMA programming cost

    # energies (picojoules) -----------------------------------------------
    l1_access_pj: float = 20.0
    spm_access_pj: float = 8.0
    filter_pj: float = 1.0
    directory_pj: float = 4.0
    l2_access_pj: float = 100.0
    dram_line_pj: float = 12000.0
    dma_per_line_pj: float = 4.0  # engine overhead per line moved

    # system --------------------------------------------------------------
    core_freq_ghz: float = 1.0  # memory experiments use a fixed 1 GHz clock
    static_power_w_per_core: float = 1.50  # core+L2-slice+router leakage
    mlp: float = 4.0  # memory-level parallelism: how many misses overlap
    dma_hidden_fraction: float = 0.9  # double buffering hides most DMA time

    @property
    def l1_sets(self) -> int:
        return self.l1_bytes // (self.line_bytes * self.l1_ways)
