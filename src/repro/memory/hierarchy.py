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
builds no enum or string and searches no topology per access: every
counter of the hierarchy, its caches, coherence directory, SPM directory,
filters, SPMs and NoC is a plain numeric field updated with ``+=``
(accesses are counted per class value), the nearest memory controller of
every node is tabled at construction, and :meth:`MemoryHierarchy.run_batch`
converts a batch's columns once.  Each component's ``stats`` is a
read-only property that builds a fresh :class:`~repro.sim.stats.StatSet`
from those fields, so a ``StatSet`` read earlier does not follow later
accesses.  The checked-in Fig. 1 baseline and the component-counter
digests pin every number bit for bit, which fixes these rules:

* Key presence.  A count's key exists iff the count is non-zero.  An
  ``energy_pj.<kind>`` key exists iff an event that spends that kind has
  happened, even at 0.0 pJ; :attr:`MemoryHierarchy.stats` tells that from
  the event counts.  Reading a key that was never created returns
  ``0.0``.
* Counters keep their Python types.  Counts are floats; the NoC's flit,
  flit-hop and byte counters and the coherence ``invalidations`` are
  ints, and ``1`` and ``1.0`` hash differently.
* Float sums keep their order and grouping.  ``energy_j``, each
  ``energy_pj.<kind>``, the NoC's ``energy_j``, ``mem_cycles`` and each
  latency add one term at a time, in the same order.  A NoC latency
  stays in seconds and converts as ``lat * core_freq_ghz * 1e9``, left to
  right; paired latencies (request + data, invalidation + ack) are summed
  in seconds before that: converting each one first rounds differently
  (``(15 / 1e9) * 1e9 != 15``).
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

        self.energy_j = 0.0
        self.mem_cycles = [0.0] * n_cores
        # Counters, read through ``stats``.  Counts are floats because the
        # pinned snapshots hold floats; accesses are counted per class value.
        self.accesses_by_class = [0.0] * len(_CLASS_COUNTERS)
        self.pinned_regions = 0.0
        self.spm_hits = 0.0
        self.spm_pinned_hits = 0.0
        self.dma_fills = 0.0
        self.dma_writebacks = 0.0
        self.unknown_filtered = 0.0
        self.unknown_dir_miss = 0.0
        self.unknown_spm_served = 0.0
        self.l1_hits = 0.0
        self.l1_misses = 0.0
        self.l2_hits = 0.0
        self.l2_misses = 0.0
        self.l1_writebacks = 0.0
        self.l2_writebacks = 0.0
        self.upgrades = 0.0
        # pJ spent per kind (``energy_pj.<kind>``), each also added to
        # ``energy_j``.
        self.pj_l1 = 0.0
        self.pj_l2 = 0.0
        self.pj_dram = 0.0
        self.pj_spm = 0.0
        self.pj_dram_dma = 0.0
        self.pj_dma_engine = 0.0
        self.pj_filter = 0.0
        self.pj_spm_dir = 0.0

    # ------------------------------------------------------------------
    # topology helpers
    # ------------------------------------------------------------------
    def home_bank(self, line: int) -> int:
        return (line // self.params.line_bytes) % self.n_banks

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
        self.accesses_by_class[cls] += 1.0
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
        self.pinned_regions += 1.0

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
            self.energy_j += p.spm_access_pj * 1e-12
            self.pj_spm += p.spm_access_pj
            self.spm_hits += 1.0
            self.spm_pinned_hits += 1.0
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
        self.energy_j += p.spm_access_pj * 1e-12
        self.pj_spm += p.spm_access_pj
        self.spm_hits += 1.0
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
            self.dma_fills += 1.0
        else:
            lat_s = self.noc.send(t.core, mc, t.nbytes + _DATA_EXTRA, kind="dma")
            self.dma_writebacks += 1.0
        lines = max(1, t.nbytes // p.line_bytes)
        pj = p.dram_line_pj * lines
        self.energy_j += pj * 1e-12
        self.pj_dram_dma += pj
        pj = p.dma_per_line_pj * lines
        self.energy_j += pj * 1e-12
        self.pj_dma_engine += pj
        raw = p.dma_setup_cycles + p.dram_cycles + lat_s * p.core_freq_ghz * 1e9
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
            self.energy_j += p.filter_pj * 1e-12
            self.pj_filter += p.filter_pj
            if not self.filters[core].maybe_mapped(addr):
                self.unknown_filtered += 1.0
                return cycles + self._cache_access(core, addr, write)
        # Possibly SPM-mapped: consult the distributed directory at the
        # address's home node.
        home = self.home_bank(addr)
        lat_req = self.noc.send(core, home, _CTRL_BYTES, kind="spm_dir")
        self.energy_j += p.directory_pj * 1e-12
        self.pj_spm_dir += p.directory_pj
        cycles += lat_req * p.core_freq_ghz * 1e9 + p.directory_cycles
        owner = self.spm_directory.lookup(addr)
        if owner is None:
            self.unknown_dir_miss += 1.0
            return cycles + self._cache_access(core, addr, write)
        # Served by the owning SPM (possibly remote).
        self.unknown_spm_served += 1.0
        self.energy_j += p.spm_access_pj * 1e-12
        self.pj_spm += p.spm_access_pj
        cycles += p.spm_hit_cycles
        if owner != core:
            lat_fwd = self.noc.send(home, owner, _CTRL_BYTES, kind="spm_dir")
            lat_data = self.noc.send(
                owner, core, p.access_bytes + _DATA_EXTRA, kind="data"
            )
            cycles += (lat_fwd + lat_data) * p.core_freq_ghz * 1e9
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
        self.energy_j += p.l2_access_pj * 1e-12
        self.pj_l2 += p.l2_access_pj
        v_addr, v_dirty = self.l2[home].fill(line, dirty=True)
        self._l2_victim(home, v_addr, v_dirty)
        self.l1_writebacks += 1.0

    def _l2_victim(self, bank: int, v_addr: Optional[int], v_dirty: bool) -> None:
        if v_addr is not None and v_dirty:
            p = self.params
            mc = self._nearest_mc[bank]
            self.noc.send(bank, mc, p.line_bytes + _DATA_EXTRA, kind="writeback")
            self.energy_j += p.dram_line_pj * 1e-12
            self.pj_dram += p.dram_line_pj
            self.l2_writebacks += 1.0

    def _cache_access(self, core: int, addr: int, write: bool) -> float:
        p = self.params
        l1 = self.l1[core]
        self.energy_j += p.l1_access_pj * 1e-12
        self.pj_l1 += p.l1_access_pj
        # Only a write hit reads the line's prior dirty bit.
        was_dirty = write and l1.is_dirty(addr)
        res = l1.access(addr, write)

        if res.victim_addr is not None:
            self.coherence.evicted(res.victim_addr, core, res.victim_dirty)
            if res.victim_dirty:
                self._writeback_l1_line(core, res.victim_addr)

        if res.hit:
            self.l1_hits += 1.0
            if write and not was_dirty:
                # Upgrade: the copy was Shared; invalidate other sharers.
                return p.l1_hit_cycles + self._coherent_write_upgrade(
                    core, l1.line_addr(addr)
                )
            return p.l1_hit_cycles

        # ---- L1 miss ---------------------------------------------------
        self.l1_misses += 1.0
        send = self.noc.send
        line = l1.line_addr(addr)
        home = self.home_bank(line)
        lat_req = send(core, home, _CTRL_BYTES, kind="control")
        cycles = p.l1_hit_cycles + lat_req * p.core_freq_ghz * 1e9

        outcome = (
            self.coherence.write(line, core)
            if write
            else self.coherence.read(line, core)
        )
        cycles += self._coherence_cost(home, line, outcome)

        self.energy_j += p.l2_access_pj * 1e-12
        self.pj_l2 += p.l2_access_pj
        cycles += p.l2_hit_cycles
        l2res = self.l2[home].access(line, False)
        self._l2_victim(home, l2res.victim_addr, l2res.victim_dirty)
        if l2res.hit or outcome.owner_forward is not None:
            self.l2_hits += 1.0
        else:
            self.l2_misses += 1.0
            mc = self._nearest_mc[home]
            lat_mreq = send(home, mc, _CTRL_BYTES, kind="control")
            lat_mdat = send(mc, home, p.line_bytes + _DATA_EXTRA, kind="data")
            self.energy_j += p.dram_line_pj * 1e-12
            self.pj_dram += p.dram_line_pj
            cycles += p.dram_cycles + (lat_mreq + lat_mdat) * p.core_freq_ghz * 1e9

        lat_data = send(home, core, p.line_bytes + _DATA_EXTRA, kind="data")
        return cycles + lat_data * p.core_freq_ghz * 1e9

    def _coherent_write_upgrade(self, core: int, line: int) -> float:
        home = self.home_bank(line)
        lat = self.noc.send(core, home, _CTRL_BYTES, kind="coherence")
        outcome = self.coherence.write(line, core)
        self.upgrades += 1.0
        return (
            lat * self.params.core_freq_ghz * 1e9
            + self._coherence_cost(home, line, outcome)
        )

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
            self.energy_j += p.l1_access_pj * 1e-12
            self.pj_l1 += p.l1_access_pj
            cycles += (lat_f + lat_d) * p.core_freq_ghz * 1e9
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
                worst = max(worst, (lat_i + lat_a) * p.core_freq_ghz * 1e9)
            cycles += worst
        return cycles

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def total_mem_cycles(self) -> float:
        return sum(self.mem_cycles)

    def noc_flit_hops(self) -> float:
        return self.noc.total_flit_hops

    @property
    def stats(self) -> StatSet:
        """A fresh snapshot of the counters, named ``hierarchy.<mode>``.

        A count's key exists iff the count is non-zero.  An
        ``energy_pj.<kind>`` key exists iff an event that spends that kind
        has happened, even at 0.0 pJ: the event counts below say so.
        """
        by_class = self.accesses_by_class
        out = StatSet.of_counts(f"hierarchy.{self.mode}", (
            ("accesses", sum(by_class)),
            *zip(_CLASS_COUNTERS, by_class),
            ("pinned_regions", self.pinned_regions),
            ("spm_hits", self.spm_hits),
            ("spm_pinned_hits", self.spm_pinned_hits),
            ("dma_fills", self.dma_fills),
            ("dma_writebacks", self.dma_writebacks),
            ("unknown_filtered", self.unknown_filtered),
            ("unknown_dir_miss", self.unknown_dir_miss),
            ("unknown_spm_served", self.unknown_spm_served),
            ("l1_hits", self.l1_hits),
            ("l1_misses", self.l1_misses),
            ("l2_hits", self.l2_hits),
            ("l2_misses", self.l2_misses),
            ("l1_writebacks", self.l1_writebacks),
            ("l2_writebacks", self.l2_writebacks),
            ("upgrades", self.upgrades),
        ))
        dma = self.dma_fills + self.dma_writebacks
        dir_consults = self.unknown_dir_miss + self.unknown_spm_served
        filter_probes = (
            by_class[_UNKNOWN] if self.mode == "hybrid" and self.use_filter else 0
        )
        out.add_many(
            (key, pj)
            for key, pj, events in (
                ("energy_pj.l1", self.pj_l1, self.l1_hits + self.l1_misses),
                ("energy_pj.l2", self.pj_l2, self.l1_misses + self.l1_writebacks),
                ("energy_pj.dram", self.pj_dram, self.l2_misses + self.l2_writebacks),
                ("energy_pj.spm", self.pj_spm, self.spm_hits + self.unknown_spm_served),
                ("energy_pj.dram_dma", self.pj_dram_dma, dma),
                ("energy_pj.dma_engine", self.pj_dma_engine, dma),
                ("energy_pj.filter", self.pj_filter, filter_probes),
                ("energy_pj.spm_dir", self.pj_spm_dir, dir_consults),
            )
            if events
        )
        return out

    def summary(self) -> Dict[str, float]:
        out = dict(self.stats.as_dict())
        out["energy_j"] = self.energy_j
        out["noc_flit_hops"] = self.noc_flit_hops()
        out["noc_energy_j"] = self.noc.total_energy_j
        return out
