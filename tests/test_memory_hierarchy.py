"""Integration tests for the cache-only and hybrid memory hierarchies."""

import dataclasses
import hashlib

import pytest

from repro.apps import nas
from repro.memory.access import RefClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.params import MemoryParams


@pytest.fixture
def params():
    return MemoryParams(tile_bytes=256)


def strided_sweep(h, core, base, nbytes, write=False, step=8):
    for addr in range(base, base + nbytes, step):
        h.access(core, addr, write, RefClass.STRIDED)


class TestCacheMode:
    def test_l1_hit_is_cheap(self, params):
        h = MemoryHierarchy(4, mode="cache", params=params)
        first = h.access(0, 0, False, RefClass.RANDOM_NOALIAS)
        second = h.access(0, 0, False, RefClass.RANDOM_NOALIAS)
        assert second == pytest.approx(params.l1_hit_cycles)
        assert first > second

    def test_strided_class_uses_caches_in_cache_mode(self, params):
        h = MemoryHierarchy(4, mode="cache", params=params)
        h.access(0, 0, False, RefClass.STRIDED)
        assert h.stats.get("l1_misses") == 1
        assert "spm_hits" not in h.stats

    def test_miss_generates_noc_and_dram_traffic(self, params):
        h = MemoryHierarchy(4, mode="cache", params=params)
        h.access(0, 1 << 20, False, RefClass.RANDOM_NOALIAS)
        assert h.noc.total_flit_hops > 0
        assert h.stats.get("energy_pj.dram") > 0

    def test_write_sharing_generates_invalidations(self, params):
        h = MemoryHierarchy(4, mode="cache", params=params)
        for c in range(4):
            h.access(c, 0, False, RefClass.RANDOM_NOALIAS)
        h.access(0, 0, True, RefClass.RANDOM_NOALIAS)
        assert h.coherence.stats.get("invalidations") == 3
        # Other cores lost their copies.
        assert not h.l1[1].contains(0)

    def test_directory_naming_a_core_without_the_line_raises(self, params):
        """Invalidations go only where the directory says a copy lives, so
        a directory that disagrees with the L1s is an error, not a guess."""
        h = MemoryHierarchy(4, mode="cache", params=params)
        h.access(0, 0, False, RefClass.RANDOM_NOALIAS)
        h.coherence.read(0, 2)  # core 2's L1 never held line 0
        with pytest.raises(RuntimeError, match="core 2"):
            h.access(0, 0, True, RefClass.RANDOM_NOALIAS)

    def test_dirty_eviction_writes_back(self, params):
        h = MemoryHierarchy(1, mode="cache", params=params)
        # Fill one L1 set beyond capacity with dirty lines: set stride is
        # l1_sets * line_bytes.
        stride = params.l1_sets * params.line_bytes
        for i in range(params.l1_ways + 1):
            h.access(0, i * stride, True, RefClass.RANDOM_NOALIAS)
        assert h.stats.get("l1_writebacks") >= 1

    def test_finish_flushes_dirty_lines(self, params):
        h = MemoryHierarchy(2, mode="cache", params=params)
        h.access(0, 0, True, RefClass.RANDOM_NOALIAS)
        h.finish()
        assert h.stats.get("l1_writebacks") >= 1


class TestHybridMode:
    def test_strided_served_by_spm(self, params):
        h = MemoryHierarchy(4, mode="hybrid", params=params)
        strided_sweep(h, 0, 0, 1024)
        assert h.stats.get("spm_hits") == 1024 // 8
        assert h.stats.get("l1_misses") == 0

    def test_spm_generates_no_coherence(self, params):
        h = MemoryHierarchy(4, mode="hybrid", params=params)
        strided_sweep(h, 0, 0, 2048, write=True)
        h.finish()
        assert h.coherence.stats.get("invalidations") == 0
        assert h.noc.stats.get("flit_hops.coherence") == 0

    def test_write_stream_avoids_fills(self, params):
        h = MemoryHierarchy(1, mode="hybrid", params=params)
        strided_sweep(h, 0, 0, 2048, write=True)
        h.finish()
        assert h.stats.get("dma_fills") == 0
        assert h.stats.get("dma_writebacks") == 2048 // params.tile_bytes

    def test_read_stream_fills_per_tile(self, params):
        h = MemoryHierarchy(1, mode="hybrid", params=params)
        strided_sweep(h, 0, 0, 2048, write=False)
        h.finish()
        assert h.stats.get("dma_fills") == 2048 // params.tile_bytes
        assert h.stats.get("dma_writebacks") == 0

    def test_tile_switch_without_transfer_moves_the_directory(self, params):
        """A write that leaves a clean tile moves no data (no writeback, and
        a write does not fill), yet the SPM directory must drop the old
        tile and map the new one."""
        h = MemoryHierarchy(2, mode="hybrid", params=params)
        base = 1 << 30  # strided region 1
        tb = params.tile_bytes
        h.access(1, base + 8, False, RefClass.STRIDED)  # fill tile 0, clean
        h.access(1, base + tb + 8, True, RefClass.STRIDED)  # write tile 1
        assert h.stats.get("dma_fills") == 1
        assert h.stats.get("dma_writebacks") == 0
        d = h.spm_directory
        assert d.lookup(base + 8) is None
        assert d.lookup(base + tb + 8) == 1
        assert d.n_ranges == 1
        assert d.stats.get("inserts") == 2 and d.stats.get("removes") == 1
        assert h.noc.stats.get("flit_hops.spm_dir") > 0

    def test_unknown_not_mapped_goes_to_cache_after_filter(self, params):
        h = MemoryHierarchy(4, mode="hybrid", params=params)
        lat = h.access(0, 99 << 20, False, RefClass.RANDOM_UNKNOWN)
        assert h.stats.get("unknown_filtered") == 1
        assert h.stats.get("l1_misses") == 1
        assert lat >= params.filter_cycles + params.l1_hit_cycles

    def test_unknown_into_registered_region_consults_directory(self, params):
        h = MemoryHierarchy(4, mode="hybrid", params=params)
        h.register_filter_region(0, 1 << 20)
        h.access(0, 4096, False, RefClass.RANDOM_UNKNOWN)
        assert h.spm_directory.stats.get("lookups") == 1

    def test_unknown_served_by_remote_spm(self, params):
        h = MemoryHierarchy(4, mode="hybrid", params=params)
        h.register_filter_region(0, 1 << 20)
        h.pin_region(1, 0, 4096)  # core 1 owns [0, 4096)
        lat = h.access(0, 128, False, RefClass.RANDOM_UNKNOWN)
        assert h.stats.get("unknown_spm_served") == 1
        assert h.stats.get("l1_misses") == 0
        assert lat > params.filter_cycles + params.spm_hit_cycles  # NoC cost

    def test_unknown_write_to_pinned_region_dirties_it(self, params):
        h = MemoryHierarchy(4, mode="hybrid", params=params)
        h.register_filter_region(0, 1 << 20)
        h.pin_region(1, 0, 4096)
        h.access(0, 128, True, RefClass.RANDOM_UNKNOWN)
        h.finish()
        assert h.stats.get("dma_writebacks") == 1

    def test_pinned_access_is_single_cycle(self, params):
        h = MemoryHierarchy(2, mode="hybrid", params=params)
        h.pin_region(0, 0, 4096)
        lat = h.access(0, 8, False, RefClass.STRIDED)
        assert lat == pytest.approx(params.spm_hit_cycles)
        assert h.stats.get("spm_pinned_hits") == 1

    @pytest.mark.parametrize("core", [-1, 2])
    def test_pin_rejects_a_core_outside_the_chip(self, params, core):
        h = MemoryHierarchy(2, mode="hybrid", params=params)
        with pytest.raises(ValueError, match="outside"):
            h.pin_region(core, 0, 4096)
        assert h.spm_directory.n_ranges == 0
        assert h.stats.get("pinned_regions") == 0

    def test_pin_rejected_beyond_capacity(self, params):
        h = MemoryHierarchy(1, mode="hybrid", params=params)
        with pytest.raises(MemoryError):
            h.pin_region(0, 0, params.spm_bytes + 1)

    def test_mem_cycles_tracked_per_core(self, params):
        h = MemoryHierarchy(2, mode="hybrid", params=params)
        h.access(0, 0, False, RefClass.STRIDED)
        h.access(1, 1 << 21, False, RefClass.RANDOM_NOALIAS)
        assert h.mem_cycles[0] > 0
        assert h.mem_cycles[1] > 0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(2, mode="weird")


def _observable(h):
    return (
        h.stats.as_dict(), list(h.mem_cycles), h.energy_j,
        h.noc.stats.as_dict(), [c.occupancy() for c in h.l1],
    )


@pytest.mark.parametrize(
    "mode,core,addr,cls",
    [
        ("cache", 0, 0, 7),  # no such reference class
        ("cache", 0, 0, -1),
        ("cache", -1, 0, RefClass.RANDOM_NOALIAS),  # would be core 3's L1
        ("cache", 4, 64, RefClass.RANDOM_NOALIAS),
        ("hybrid", -1, 0, RefClass.STRIDED),
        ("hybrid", 4, 0, RefClass.RANDOM_UNKNOWN),
    ],
)
def test_rejected_access_moves_no_counter(params, mode, core, addr, cls):
    """A core outside ``0..n_cores-1`` or an unknown class raises
    ``ValueError`` before any counter, cache or NoC state changes."""
    h = MemoryHierarchy(4, mode=mode, params=params)
    h.access(2, 1 << 20, True, RefClass.RANDOM_NOALIAS)
    before = _observable(h)
    for _ in range(2):  # and again: the first attempt left nothing behind
        with pytest.raises(ValueError):
            h.access(core, addr, False, cls)
        assert _observable(h) == before


class TestCrossModeComparison:
    def test_streaming_writes_cost_less_noc_in_hybrid(self, params):
        """The write-allocate round trip is the core Figure 1 mechanism."""
        n = 4096
        cache = MemoryHierarchy(4, mode="cache", params=params)
        hybrid = MemoryHierarchy(4, mode="hybrid", params=params)
        for h in (cache, hybrid):
            strided_sweep(h, 0, 0, n, write=True)
            h.finish()
        assert hybrid.noc.total_flit_hops < cache.noc.total_flit_hops

    def test_streaming_reads_cost_less_energy_in_hybrid(self, params):
        n = 8192
        cache = MemoryHierarchy(4, mode="cache", params=params)
        hybrid = MemoryHierarchy(4, mode="hybrid", params=params)
        for h in (cache, hybrid):
            strided_sweep(h, 0, 0, n, write=False)
            h.finish()
        assert hybrid.energy_j < cache.energy_j


# ---------------------------------------------------------------------------
# every component counter, pinned bit for bit
# ---------------------------------------------------------------------------


def _nas_hierarchy(model, mode, n_cores, per_core, params, use_filter=True):
    """``run_nas``'s set-up: filter regions, pinned streams, the trace."""
    wl = nas.NAS_BENCHMARKS[model]
    h = MemoryHierarchy(n_cores, mode=mode, params=params, use_filter=use_filter)
    for base, nbytes in nas.strided_regions(wl, n_cores, per_core, params):
        h.register_filter_region(base, nbytes)
    if mode == "hybrid" and wl.pinned_streams:
        chunk = nas.core_chunk_bytes(wl, per_core, params)
        for s in range(wl.pinned_streams):
            for c in range(n_cores):
                h.pin_region(c, nas.stream_base(s) + c * chunk, chunk)
    return h, list(nas.generate_trace(wl, n_cores, per_core, 0, params))


def _state(h):
    """Every counter of every component, with its Python type (``repr``
    tells ``1`` from ``1.0``), plus the hierarchy's float accumulators."""
    parts = [
        ("hierarchy", sorted(h.stats.as_dict().items()), h.energy_j, h.mem_cycles),
        ("noc", sorted(h.noc.stats.as_dict().items())),
        ("coherence", sorted(h.coherence.stats.as_dict().items()),
         h.coherence.tracked_lines),
    ]
    for cache in h.l1 + h.l2:
        parts.append((cache.name, sorted(cache.stats.as_dict().items()),
                      cache.occupancy()))
    if h.mode == "hybrid":
        parts.append(("spm_directory",
                      sorted(h.spm_directory.stats.as_dict().items()),
                      h.spm_directory.n_ranges))
        for i, (f, spm) in enumerate(zip(h.filters, h.spm)):
            parts.append((i, sorted(f.stats.as_dict().items()),
                          sorted(spm.stats.as_dict().items()), spm.used_bytes))
    return parts


#: sha256 of ``_state`` plus every latency ``access`` returned, recorded
#: before the hierarchy's hot path was rewritten: 16 cores x 300 accesses
#: per core, trace seed 0.
COMPONENT_DIGESTS = {
    "CG-cache-default": "a55a71b5a3355df13d09ef71073c24bc047267a1f428f00e0aa553a93890c26d",
    "CG-hybrid-default": "40b26aceb422b028d14570844227282c4942d0ed11ad430355b38cf87bfa0435",
    "EP-cache-default": "f483b17eaa380d31bfd711f5a65454b7a3b7cc92c8b1494faeb38c475cd4caa9",
    "EP-hybrid-default": "637f571c85f2c4c8e65aac450d55e382de57b83aed5d2f841cc132702180a20e",
    "FT-cache-default": "dd22738c03a4f530e6efe041f37f67e215dd1b18682183353263f515ff0e05f2",
    "FT-hybrid-default": "a00b6bd34cd2f8968e96db2375f921edd1e5a1797a145502109826fdc281633c",
    "IS-cache-default": "48124e64648aa2f45ab5a9270c8c957122f88a5b8cc0c25c54e50f5394a970d1",
    "IS-hybrid-default": "1f518fa32a36ac4f41e86e537a3344f5501be0605259d938d8aa9b6752059acd",
    "MG-cache-default": "fc377b22de87de77798d9abc5ef778e9cbc7c45cac2921c336ff88d0d0218583",
    "MG-hybrid-default": "d1372146831adb3913641a385b7e8d173a0b5690fa3a9597cb423150ab6ec97b",
    "SP-cache-default": "cf1de959034cfeaacb867fb44ee34c945a2c9d38dd6ee478a9b178ae1946c8ce",
    "SP-hybrid-default": "fd72402c34e51bd47936c2b038fb3b5bda01b5afd03dab62e46a6c32ec860fb9",
    "IS-hybrid-no_filter": "7873ae30da773fda6bef4036459ac1729de1c93b5bd92bdc196a0b2b21975977",
    "IS-hybrid-tile256": "8788206cf1d256af3e262e67c377211a850b770ce68a2363e2cfcc1666b81b32",
    # recorded while every counter was still a string-keyed ``StatSet.add``
    "IS-cache-zero_pj": "a1a6049c297c64a4b79b875de97276feee7a5e710831c53295ac5d844a9423c9",
    "IS-hybrid-zero_pj": "f7d317590524e5580ae2fab38d34d54206216d2990ff0e5382ba2b2d1147c7be",
    "IS-hybrid-zero_pj_no_filter": "3e15f19991d4580db6a63009ac59c8599217bf6d08a13a283c01fe1959ba5feb",
    "EP-hybrid-zero_pj": "6775377ed463e222ee889ff6352db5a8aa49c7f2693f98feed856eec1d1db05e",
}

#: Every energy cost 0.0: an ``energy_pj.<kind>`` key must still appear
#: once an event that spends it has happened.
_ZERO_PJ = {
    f.name: 0.0 for f in dataclasses.fields(MemoryParams) if f.name.endswith("_pj")
}

_VARIANTS = {
    "default": ({}, True),
    "no_filter": ({}, False),
    "tile256": ({"tile_bytes": 256}, True),
    "zero_pj": (_ZERO_PJ, True),
    "zero_pj_no_filter": (_ZERO_PJ, False),
}
_CASES = [
    (model, mode, "default")
    for model in sorted(nas.NAS_BENCHMARKS)
    for mode in ("cache", "hybrid")
] + [("IS", "hybrid", "no_filter"), ("IS", "hybrid", "tile256")] + [
    ("IS", "cache", "zero_pj"),
    ("IS", "hybrid", "zero_pj"),
    ("IS", "hybrid", "zero_pj_no_filter"),
    ("EP", "hybrid", "zero_pj"),
]


def _replay(model, mode, variant, after_access=None):
    """Run a pinned case access by access; returns its digest."""
    overrides, use_filter = _VARIANTS[variant]
    h, batches = _nas_hierarchy(
        model, mode, 16, 300, MemoryParams(**overrides), use_filter
    )
    latencies = []
    for batch in batches:
        rec = batch.records
        for core, addr, write, cls in zip(
            rec["core"].tolist(), rec["addr"].tolist(),
            rec["write"].tolist(), rec["cls"].tolist(),
        ):
            latencies.append(h.access(core, addr, write, cls))
            if after_access is not None:
                after_access(h)
    h.finish()
    return h, hashlib.sha256(repr((_state(h), latencies)).encode()).hexdigest()


@pytest.mark.parametrize("model,mode,variant", _CASES)
def test_component_counters_are_pinned(model, mode, variant):
    """The NoC's per-kind flit-hops, the per-cache, coherence, SPM-directory
    and filter counters, and each access's latency: the numbers a
    baseline row's hierarchy summary does not carry."""
    _, digest = _replay(model, mode, variant)
    assert digest == COMPONENT_DIGESTS[f"{model}-{mode}-{variant}"]


def _read_every_counter(h):
    """Read ``stats`` of every component, and the summary."""
    readers = [h, h.noc, h.coherence] + h.l1 + h.l2
    if h.mode == "hybrid":
        readers += [h.spm_directory] + h.filters + h.spm
    for component in readers:
        component.stats.as_dict()
    h.summary()


@pytest.mark.parametrize("case", ["CG-hybrid-default", "IS-cache-default"])
def test_reading_stats_changes_nothing(case):
    """Reading counters after every access moves no counter, latency or
    float sum: the pinned digest still holds."""
    model, mode, variant = case.split("-")
    _, digest = _replay(model, mode, variant, after_access=_read_every_counter)
    assert digest == COMPONENT_DIGESTS[case]


_ENERGY_KINDS = {"l1", "l2", "dram", "spm", "dram_dma", "dma_engine", "filter", "spm_dir"}


@pytest.mark.parametrize(
    "model,mode,variant,absent",
    [
        ("IS", "cache", "zero_pj",
         {"spm", "dram_dma", "dma_engine", "filter", "spm_dir"}),
        ("IS", "hybrid", "zero_pj", set()),
        ("IS", "hybrid", "zero_pj_no_filter", {"filter"}),
        ("EP", "hybrid", "zero_pj", {"filter", "spm_dir"}),  # no unknown alias
    ],
)
def test_zero_cost_energy_keys_follow_events(model, mode, variant, absent):
    """An ``energy_pj.<kind>`` key exists once an event that spends it has
    happened, even at 0.0 pJ, and not before."""
    h, _ = _replay(model, mode, variant)
    energy = {
        k.split(".", 1)[1]: v
        for k, v in h.stats.as_dict().items() if k.startswith("energy_pj.")
    }
    assert set(energy) == _ENERGY_KINDS - absent
    assert all(v == 0.0 and type(v) is float for v in energy.values())
    assert h.energy_j == 0.0


def test_run_batch_matches_access_by_access():
    """``run_batch`` leaves every component as the per-access loop does."""
    params = MemoryParams()
    a, batches = _nas_hierarchy("CG", "hybrid", 16, 300, params)
    b, _ = _nas_hierarchy("CG", "hybrid", 16, 300, params)
    for batch in batches:
        a.run_batch(batch)
        for r in batch.records:
            b.access(int(r["core"]), int(r["addr"]), bool(r["write"]), int(r["cls"]))
    a.finish()
    b.finish()
    assert repr(_state(a)) == repr(_state(b))
