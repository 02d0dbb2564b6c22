"""The memory hierarchy: cache-only baseline vs. hybrid SPM+cache design.

This module assembles the Figure 1 experiment's two machines:

* ``mode="cache"`` — per-core L1s over a banked shared L2 with a full-map
  MSI directory, DRAM behind corner memory controllers, everything on a 2-D
  mesh.  Every reference, strided or not, goes through the caches and pays
  coherence.
* ``mode="hybrid"`` — the same, plus a per-core scratchpad managed by
  tiling software caches (strided references), per-core SPM filters and a
  distributed SPM directory (unknown-alias references).

Accounting model
----------------
Each access returns its latency in cycles; the workload layer combines the
per-core latency totals with compute cycles and a memory-level-parallelism
divisor to obtain execution time.  Energy is accumulated in joules across
SRAM/DRAM/DMA accesses; NoC traffic in flit-hops via
:class:`~repro.sim.noc.MeshNoC`, which is the "NoC traffic" bar of Fig. 1.

:meth:`MemoryHierarchy.access` runs once per simulated reference, so it
builds no enum or string and searches no topology per access: counter
names are constants (the ``accesses.<class>`` ones in a tuple indexed by
class value), the nearest memory controller of every node is tabled at
construction, and :meth:`MemoryHierarchy.run_batch` converts a batch's
columns once.  The checked-in Fig. 1 baseline and the component-counter
digests pin every number bit for bit, which fixes three rules:

* Float sums keep their order and grouping.  ``energy_j``, each
  ``energy_pj.<kind>``, the NoC's ``energy_j``, ``mem_cycles`` and each
  latency add one term at a time, in the same order.  A NoC latency stays
  in seconds, and paired latencies (request + data, invalidation + ack)
  are summed in seconds before ``* core_freq_ghz * 1e9``: converting each
  one first rounds differently (``(15 / 1e9) * 1e9 != 15``).
* Counters keep their Python types.  The NoC's flit, flit-hop and byte
  counters are ints, and ``1`` and ``1.0`` hash differently.
* A write invalidates only the cores the full-map directory names, in
  ascending core order, because the NoC's energy sum follows message
  order.  The directory's copies of a line always equal the L1s holding
  it; a named core whose L1 lacks the line raises ``RuntimeError``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.noc import MeshNoC
from ..sim.stats import StatSet
from .access import RefClass
from .cache import SetAssocCache
from .coherence import CoherenceDirectory
from .directory import SpmDirectory, SpmFilter
from .params import MemoryParams
from .spm import DmaTransfer, Scratchpad, TilingStream

__all__ = ["MemoryHierarchy", "STREAM_REGION_BITS"]

#: Workload generators allocate each logical array in its own region of
#: ``2**STREAM_REGION_BITS`` bytes; the region id identifies the stream a
#: strided access belongs to (stands in for the compiler's array identity).
STREAM_REGION_BITS = 30

_CTRL_BYTES = 8  # a request / ack / invalidation message
_DATA_EXTRA = 8  # header on a data message

#: The ``accesses.<class>`` counter of each reference class, by class value.
_CLASS_COUNTERS = tuple(f"accesses.{c.name.lower()}" for c in RefClass)
_STRIDED = RefClass.STRIDED.value
_UNKNOWN = RefClass.RANDOM_UNKNOWN.value


class MemoryHierarchy:
    """A 64-byte-line memory system for ``n_cores`` cores.

    Parameters
    ----------
    n_cores:
        Number of cores (one L1 — and in hybrid mode one SPM — each).
    mode:
        ``"cache"`` or ``"hybrid"``.
    params:
        All latency/energy/geometry constants.
    """

    def __init__(
        self,
        n_cores: int,
        mode: str = "hybrid",
        params: Optional[MemoryParams] = None,
        use_filter: bool = True,
    ) -> None:
        """``use_filter=False`` is the ablation of Section 2's filters:
        every unknown-alias access then consults the (remote) SPM
        directory, paying the control message even for data that was never
        SPM-mapped."""
        if mode not in ("cache", "hybrid"):
            raise ValueError(f"unknown mode {mode!r}")
        self.use_filter = use_filter
        if n_cores < 1:
            raise ValueError("need at least one core")
        self.n_cores = n_cores
        self.mode = mode
        self.params = params if params is not None else MemoryParams()
        p = self.params

        self.noc = MeshNoC.square_for(n_cores)
        self.l1 = [
            SetAssocCache(p.l1_bytes, p.line_bytes, p.l1_ways, f"l1.{i}")
            for i in range(n_cores)
        ]
        self.n_banks = n_cores
        self.l2 = [
            SetAssocCache(p.l2_bank_bytes, p.line_bytes, p.l2_ways, f"l2.{b}")
            for b in range(self.n_banks)
        ]
        self.coherence = CoherenceDirectory()
        # Memory controllers at the mesh corners; the nearest one to each
        # node (ties to the lower node) is tabled once.
        noc = self.noc
        w, h = noc.width, noc.height
        self.mc_nodes = sorted({0, w - 1, (h - 1) * w, h * w - 1})
        self._nearest_mc = [
            min(self.mc_nodes, key=lambda m: (noc.hops(node, m), m))
            for node in range(noc.n_nodes)
        ]

        if mode == "hybrid":
            self.spm = [Scratchpad(i, p.spm_bytes) for i in range(n_cores)]
            self.spm_directory = SpmDirectory()
            self.filters = [SpmFilter() for _ in range(n_cores)]
            self._streams: Dict[Tuple[int, int], TilingStream] = {}
            # core -> list of (base, nbytes, dirty) pinned SPM ranges
            self._pinned: Dict[int, List[list]] = {i: [] for i in range(n_cores)}

        self.stats = StatSet(f"hierarchy.{mode}")
        self.energy_j = 0.0
        self.mem_cycles = [0.0] * n_cores

    # ------------------------------------------------------------------
    # topology helpers
    # ------------------------------------------------------------------
    def home_bank(self, line: int) -> int:
        return (line // self.params.line_bytes) % self.n_banks

    def _noc_cycles(self, latency_s: float) -> float:
        return latency_s * self.params.core_freq_ghz * 1e9

    # ------------------------------------------------------------------
    # energy helpers
    # ------------------------------------------------------------------
    def _spend(self, pj: float, counter: str) -> None:
        """Charge ``pj`` to the total and to ``counter``, an
        ``energy_pj.<kind>`` name (a constant: no string is built per
        access)."""
        self.energy_j += pj * 1e-12
        self.stats.add(counter, pj)

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def access(self, core: int, addr: int, write: bool, cls: int) -> float:
        """Process one reference; returns its latency in cycles.

        Raises ``ValueError``, before any counter, cache or NoC state
        changes, for a core outside ``0..n_cores-1`` or a class that is not
        a :class:`~repro.memory.access.RefClass` value.
        """
        if not 0 <= core < self.n_cores:
            raise ValueError(f"core {core} outside 0..{self.n_cores - 1}")
        if not 0 <= cls < len(_CLASS_COUNTERS):
            raise ValueError(f"unknown reference class {cls!r}")
        stats = self.stats
        stats.add("accesses")
        stats.add(_CLASS_COUNTERS[cls])
        if self.mode == "hybrid":
            if cls == _STRIDED:
                lat = self._spm_access(core, addr, write)
            elif cls == _UNKNOWN:
                lat = self._unknown_access(core, addr, write)
            else:
                lat = self._cache_access(core, addr, write)
        else:
            lat = self._cache_access(core, addr, write)
        self.mem_cycles[core] += lat
        return lat

    def run_batch(self, batch) -> None:
        """Process every record of an :class:`~repro.memory.access.AccessBatch`."""
        rec = batch.records
        access = self.access
        for core, addr, write, cls in zip(
            rec["core"].tolist(),
            rec["addr"].tolist(),
            rec["write"].tolist(),
            rec["cls"].tolist(),
        ):
            access(core, addr, write, cls)

    def finish(self) -> None:
        """End of workload: flush SPM streams, pinned ranges, dirty L1s."""
        if self.mode == "hybrid":
            for stream in self._streams.values():
                for t in stream.finish():
                    self._account_dma(t)
            for core, entries in self._pinned.items():
                for base, nbytes, dirty in entries:
                    if dirty:
                        self._account_dma(
                            DmaTransfer(core, base, nbytes, to_spm=False)
                        )
        for core, l1 in enumerate(self.l1):
            for line in l1.flush_dirty():
                self._writeback_l1_line(core, line)

    # ------------------------------------------------------------------
    # SPM (strided) path
    # ------------------------------------------------------------------
    def pin_region(self, core: int, base: int, nbytes: int) -> None:
        """Permanently map [base, base+nbytes) into ``core``'s SPM.

        Models the tiling software cache's treatment of arrays small enough
        to live in the scratchpad for the whole phase (e.g. a core's
        partition of CG's x vector): one bulk fill up front, coherence-free
        accesses throughout, one writeback at :meth:`finish` if dirtied.
        """
        if self.mode != "hybrid":
            return
        self.spm[core].map_range(base, nbytes)
        self.spm_directory.insert(base, nbytes, core)
        for f in self.filters:
            f.insert(base, nbytes)
        self._account_dma(DmaTransfer(core, base, nbytes, to_spm=True))
        self._pinned[core].append([base, nbytes, False])
        self.stats.add("pinned_regions")

    def _pinned_entry(self, core: int, addr: int):
        for entry in self._pinned[core]:
            if entry[0] <= addr < entry[0] + entry[1]:
                return entry
        return None

    def _spm_access(self, core: int, addr: int, write: bool) -> float:
        p = self.params
        pinned = self._pinned_entry(core, addr)
        if pinned is not None:
            if write:
                pinned[2] = True
            self.spm[core].access(addr, write)
            self._spend(p.spm_access_pj, "energy_pj.spm")
            self.stats.add("spm_hits")
            self.stats.add("spm_pinned_hits")
            return p.spm_hit_cycles
        key = (core, addr >> STREAM_REGION_BITS)
        stream = self._streams.get(key)
        if stream is None:
            stream = TilingStream(self.spm[core], p)
            self._streams[key] = stream
        old_tile = stream.current_tile
        transfers = stream.advance(addr, write)
        visible = 0.0
        for t in transfers:
            visible += self._account_dma(t)
        if stream.current_tile != old_tile:
            self._update_spm_mapping(core, old_tile, stream.current_tile)
        self._spend(p.spm_access_pj, "energy_pj.spm")
        self.stats.add("spm_hits")
        return p.spm_hit_cycles + visible

    def _update_spm_mapping(
        self, core: int, old_tile: Optional[int], new_tile: Optional[int]
    ) -> None:
        """Keep directory precise across a tile swap (one control message)."""
        p = self.params
        if old_tile is not None:
            self.spm_directory.remove(old_tile, p.tile_bytes)
        if new_tile is not None:
            self.spm_directory.insert(new_tile, p.tile_bytes, core)
            home = self.home_bank(new_tile)
            self.noc.send(core, home, _CTRL_BYTES, kind="spm_dir")

    def _account_dma(self, t: DmaTransfer) -> float:
        """Charge one bulk transfer; returns *visible* latency in cycles."""
        p = self.params
        mc = self._nearest_mc[t.core]
        if t.to_spm:
            lat_s = self.noc.send(mc, t.core, t.nbytes + _DATA_EXTRA, kind="dma")
            self.stats.add("dma_fills")
        else:
            lat_s = self.noc.send(t.core, mc, t.nbytes + _DATA_EXTRA, kind="dma")
            self.stats.add("dma_writebacks")
        lines = max(1, t.nbytes // p.line_bytes)
        self._spend(p.dram_line_pj * lines, "energy_pj.dram_dma")
        self._spend(p.dma_per_line_pj * lines, "energy_pj.dma_engine")
        raw = p.dma_setup_cycles + p.dram_cycles + self._noc_cycles(lat_s)
        if not t.to_spm:
            return 0.0  # writebacks are fire-and-forget
        return raw * (1.0 - p.dma_hidden_fraction)

    # ------------------------------------------------------------------
    # unknown-alias path (hybrid only)
    # ------------------------------------------------------------------
    def _unknown_access(self, core: int, addr: int, write: bool) -> float:
        p = self.params
        cycles = 0.0
        if self.use_filter:
            cycles += p.filter_cycles
            self._spend(p.filter_pj, "energy_pj.filter")
            if not self.filters[core].maybe_mapped(addr):
                self.stats.add("unknown_filtered")
                return cycles + self._cache_access(core, addr, write)
        # Possibly SPM-mapped: consult the distributed directory at the
        # address's home node.
        home = self.home_bank(addr)
        lat_req = self.noc.send(core, home, _CTRL_BYTES, kind="spm_dir")
        self._spend(p.directory_pj, "energy_pj.spm_dir")
        cycles += self._noc_cycles(lat_req) + p.directory_cycles
        owner = self.spm_directory.lookup(addr)
        if owner is None:
            self.stats.add("unknown_dir_miss")
            return cycles + self._cache_access(core, addr, write)
        # Served by the owning SPM (possibly remote).
        self.stats.add("unknown_spm_served")
        self._spend(p.spm_access_pj, "energy_pj.spm")
        cycles += p.spm_hit_cycles
        if owner != core:
            lat_fwd = self.noc.send(home, owner, _CTRL_BYTES, kind="spm_dir")
            lat_data = self.noc.send(
                owner, core, p.access_bytes + _DATA_EXTRA, kind="data"
            )
            cycles += self._noc_cycles(lat_fwd + lat_data)
        if write:
            self.spm[owner].access(addr, True)
            entry = self._pinned_entry(owner, addr)
            if entry is not None:
                entry[2] = True
        return cycles

    # ------------------------------------------------------------------
    # cache path (both modes)
    # ------------------------------------------------------------------
    def register_filter_region(self, base: int, nbytes: int) -> None:
        """Tell every core's filter that [base, base+nbytes) is strided data
        that may at any time be SPM-mapped.  Done once per array by the
        compiler-generated setup code; no runtime traffic."""
        if self.mode != "hybrid":
            return
        for f in self.filters:
            f.insert(base, nbytes)

    def _writeback_l1_line(self, core: int, line: int) -> None:
        """Dirty L1 victim travels to its home L2 bank."""
        p = self.params
        home = self.home_bank(line)
        self.noc.send(core, home, p.line_bytes + _DATA_EXTRA, kind="writeback")
        self._spend(p.l2_access_pj, "energy_pj.l2")
        v_addr, v_dirty = self.l2[home].fill(line, dirty=True)
        self._l2_victim(home, v_addr, v_dirty)
        self.stats.add("l1_writebacks")

    def _l2_victim(self, bank: int, v_addr: Optional[int], v_dirty: bool) -> None:
        if v_addr is not None and v_dirty:
            p = self.params
            mc = self._nearest_mc[bank]
            self.noc.send(bank, mc, p.line_bytes + _DATA_EXTRA, kind="writeback")
            self._spend(p.dram_line_pj, "energy_pj.dram")
            self.stats.add("l2_writebacks")

    def _cache_access(self, core: int, addr: int, write: bool) -> float:
        p = self.params
        l1 = self.l1[core]
        self._spend(p.l1_access_pj, "energy_pj.l1")
        # Only a write hit reads the line's prior dirty bit.
        was_dirty = write and l1.is_dirty(addr)
        res = l1.access(addr, write)

        if res.victim_addr is not None:
            self.coherence.evicted(res.victim_addr, core, res.victim_dirty)
            if res.victim_dirty:
                self._writeback_l1_line(core, res.victim_addr)

        if res.hit:
            self.stats.add("l1_hits")
            if write and not was_dirty:
                # Upgrade: the copy was Shared; invalidate other sharers.
                return p.l1_hit_cycles + self._coherent_write_upgrade(
                    core, l1.line_addr(addr)
                )
            return p.l1_hit_cycles

        # ---- L1 miss ---------------------------------------------------
        self.stats.add("l1_misses")
        send = self.noc.send
        line = l1.line_addr(addr)
        home = self.home_bank(line)
        lat_req = send(core, home, _CTRL_BYTES, kind="control")
        cycles = p.l1_hit_cycles + self._noc_cycles(lat_req)

        outcome = (
            self.coherence.write(line, core)
            if write
            else self.coherence.read(line, core)
        )
        cycles += self._coherence_cost(home, line, outcome)

        self._spend(p.l2_access_pj, "energy_pj.l2")
        cycles += p.l2_hit_cycles
        l2res = self.l2[home].access(line, False)
        self._l2_victim(home, l2res.victim_addr, l2res.victim_dirty)
        if l2res.hit or outcome.owner_forward is not None:
            self.stats.add("l2_hits")
        else:
            self.stats.add("l2_misses")
            mc = self._nearest_mc[home]
            lat_mreq = send(home, mc, _CTRL_BYTES, kind="control")
            lat_mdat = send(mc, home, p.line_bytes + _DATA_EXTRA, kind="data")
            self._spend(p.dram_line_pj, "energy_pj.dram")
            cycles += p.dram_cycles + self._noc_cycles(lat_mreq + lat_mdat)

        lat_data = send(home, core, p.line_bytes + _DATA_EXTRA, kind="data")
        return cycles + self._noc_cycles(lat_data)

    def _coherent_write_upgrade(self, core: int, line: int) -> float:
        home = self.home_bank(line)
        lat = self.noc.send(core, home, _CTRL_BYTES, kind="coherence")
        outcome = self.coherence.write(line, core)
        self.stats.add("upgrades")
        return self._noc_cycles(lat) + self._coherence_cost(home, line, outcome)

    def _coherence_cost(self, home: int, line: int, outcome) -> float:
        """Invalidation fan-out and owner forwarding for one request.

        Only the cores the directory names as victims are invalidated, in
        ascending core order (the NoC's energy sum follows message order).
        A victim whose L1 lacks the line means the directory and the L1s
        disagree, and raises.
        """
        p = self.params
        send = self.noc.send
        cycles = 0.0
        if outcome.owner_forward is not None:
            owner = outcome.owner_forward
            lat_f = send(home, owner, _CTRL_BYTES, kind="coherence")
            lat_d = send(owner, home, p.line_bytes + _DATA_EXTRA, kind="coherence")
            self._spend(p.l1_access_pj, "energy_pj.l1")
            cycles += self._noc_cycles(lat_f + lat_d)
        if outcome.victims:
            # Invalidate every remote copy; the slowest ack gates completion.
            worst = 0.0
            for c in outcome.victims:
                if not self.l1[c].invalidate(line):
                    raise RuntimeError(
                        f"coherence directory names core {c} for line "
                        f"{line:#x}, but its L1 does not hold the line"
                    )
                lat_i = send(home, c, _CTRL_BYTES, kind="coherence")
                lat_a = send(c, home, _CTRL_BYTES, kind="coherence")
                worst = max(worst, self._noc_cycles(lat_i + lat_a))
            cycles += worst
        return cycles

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def total_mem_cycles(self) -> float:
        return sum(self.mem_cycles)

    def max_core_mem_cycles(self) -> float:
        return max(self.mem_cycles)

    def noc_flit_hops(self) -> float:
        return self.noc.total_flit_hops

    def summary(self) -> Dict[str, float]:
        out = dict(self.stats.as_dict())
        out["energy_j"] = self.energy_j
        out["noc_flit_hops"] = self.noc_flit_hops()
        out["noc_energy_j"] = self.noc.total_energy_j
        return out
