#!/usr/bin/env python
"""The hybrid SPM+cache hierarchy on a NAS-style workload (Section 2).

Runs the CG access-pattern model through the cache-only and hybrid
memory hierarchies on a 16-core chip and breaks down where the paper's
Figure 1 wins come from: coherence-free SPM accesses, bulk DMA instead
of per-line refills, and unknown-alias references resolved by the
filter + directory protocol.

Run:  python examples/hybrid_memory.py
"""

from repro.apps.nas import run_nas

N_CORES = 16
ACCESSES = 1500
BENCH = "CG"


def main():
    print(f"== {BENCH} on {N_CORES} cores: cache-only vs hybrid ==\n")
    results = {}
    for mode in ("cache", "hybrid"):
        r = run_nas(BENCH, mode, N_CORES, ACCESSES)
        results[mode] = r
        print(f"[{mode:6s}] time {r.exec_time_s * 1e6:8.1f} us   "
              f"energy {r.energy_j * 1e6:8.1f} uJ   "
              f"NoC {r.noc_flit_hops:10.0f} flit-hops")
    print(f"\nspeedups (cache/hybrid): "
          f"time {results['cache'].exec_time_s / results['hybrid'].exec_time_s:.3f}x  "
          f"energy {results['cache'].energy_j / results['hybrid'].energy_j:.3f}x  "
          f"NoC {results['cache'].noc_flit_hops / results['hybrid'].noc_flit_hops:.3f}x")

    print("\n== Where the traffic goes (NoC flit-hops by message kind) ==")
    for mode in ("cache", "hybrid"):
        h = results[mode].hierarchy
        kinds = {
            k.split(".", 1)[1]: int(v)
            for k, v in h.noc.stats.as_dict().items()
            if k.startswith("flit_hops.")
        }
        print(f"[{mode:6s}] " + "  ".join(f"{k}={v}" for k, v in sorted(kinds.items())))

    h = results["hybrid"].hierarchy
    print("\n== Unknown-alias protocol in action (hybrid) ==")
    print(f"filter probes:         {int(h.filters[0].stats.get('probes')) * N_CORES}"
          f" (per-core filter shown x{N_CORES})")
    print(f"filtered to caches:    {int(h.stats.get('unknown_filtered'))}")
    print(f"directory consults:    {int(h.spm_directory.stats.get('lookups'))}")
    print(f"served by (remote) SPM:{int(h.stats.get('unknown_spm_served')):6d}")
    print(f"directory misses:      {int(h.stats.get('unknown_dir_miss'))}")
    print(f"coherence invalidations avoided on strided data: "
          f"SPM accesses = {int(h.stats.get('spm_hits'))}, "
          f"coherence flit-hops = "
          f"{int(h.noc.stats.get('flit_hops.coherence'))}")


if __name__ == "__main__":
    main()
