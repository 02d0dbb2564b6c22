"""Ablations on the hybrid memory hierarchy (E7 in README's figure table).

* **filters** — Section 2 adds per-core filters in front of the SPM
  directory; removing them forces every unknown-alias access to consult
  the (remote) directory, adding control traffic and latency for data
  that was never SPM-mapped.
* **SPM size** — smaller scratchpads cannot hold the pinned partitions +
  tiles; the sweep shows the capacity at which the hybrid design's wins
  appear.
* **tile size** — bigger DMA tiles amortise setup but waste bandwidth on
  partially-used boundary tiles.
"""

import pytest

from repro.apps.nas import NAS_BENCHMARKS, generate_trace, run_nas, strided_regions
from repro.memory import MemoryHierarchy, MemoryParams

from conftest import banner, table

N_CORES = 16
ACCESSES = 1000
BENCH = "IS"  # unknown-alias heavy: the filter matters most here


def run_hybrid(use_filter=True, params=None):
    wl = NAS_BENCHMARKS[BENCH]
    params = params or MemoryParams()
    hier = MemoryHierarchy(N_CORES, mode="hybrid", params=params,
                           use_filter=use_filter)
    for base, nbytes in strided_regions(wl, N_CORES, ACCESSES, params):
        hier.register_filter_region(base, nbytes)
    for batch in generate_trace(wl, N_CORES, ACCESSES, 0, params):
        hier.run_batch(batch)
    hier.finish()
    return hier


def test_ablation_filter(benchmark):
    with_filter = run_hybrid(use_filter=True)
    without = run_hybrid(use_filter=False)
    benchmark.pedantic(run_hybrid, kwargs=dict(use_filter=True), rounds=1,
                       iterations=1)

    banner(f"Ablation E7a — SPM filters ({BENCH}, unknown-alias heavy)")
    table(
        ["config", "mem cycles", "directory lookups", "spm_dir flit-hops"],
        [
            ["with filters", f"{with_filter.total_mem_cycles():.0f}",
             int(with_filter.spm_directory.stats.get('lookups')),
             int(with_filter.noc.stats.get('flit_hops.spm_dir'))],
            ["no filters", f"{without.total_mem_cycles():.0f}",
             int(without.spm_directory.stats.get('lookups')),
             int(without.noc.stats.get('flit_hops.spm_dir'))],
        ],
    )
    # Filters keep never-mapped unknown accesses off the directory.
    assert (
        without.spm_directory.stats.get("lookups")
        > 1.5 * with_filter.spm_directory.stats.get("lookups")
    )
    assert without.total_mem_cycles() > with_filter.total_mem_cycles()


def test_ablation_spm_and_tile_size(benchmark):
    spm_sweep = {}
    for spm_kb in (16, 32, 64, 128):
        r = run_nas(BENCH, "hybrid", N_CORES, ACCESSES,
                    params=MemoryParams(spm_bytes=spm_kb * 1024))
        base = run_nas(BENCH, "cache", N_CORES, ACCESSES,
                       params=MemoryParams(spm_bytes=spm_kb * 1024))
        spm_sweep[spm_kb] = base.exec_time_s / r.exec_time_s

    tile_sweep = {}
    for tile in (256, 1024, 4096):
        p = MemoryParams(tile_bytes=tile)
        r = run_nas("FT", "hybrid", N_CORES, ACCESSES, params=p)
        base = run_nas("FT", "cache", N_CORES, ACCESSES, params=p)
        tile_sweep[tile] = base.noc_flit_hops / r.noc_flit_hops

    benchmark.pedantic(
        run_nas, args=(BENCH, "hybrid", 8, 400), rounds=1, iterations=1
    )

    banner("Ablation E7b — SPM capacity sweep (speedup over cache-only)")
    table(["SPM KiB", "time speedup"],
          [[k, f"{v:.3f}"] for k, v in spm_sweep.items()])
    banner("Ablation E7c — DMA tile size sweep (FT, NoC reduction)")
    table(["tile bytes", "NoC speedup"],
          [[k, f"{v:.3f}"] for k, v in tile_sweep.items()])

    # The hybrid design keeps winning across the SPM range tested, and
    # every tile size still beats cache-only on streaming traffic.
    assert all(v > 1.0 for v in spm_sweep.values())
    assert all(v > 1.0 for v in tile_sweep.values())
