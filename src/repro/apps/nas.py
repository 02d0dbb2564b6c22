"""NAS Parallel Benchmark workload models (the Figure 1 workloads).

We cannot ship the NAS sources, and the paper's evaluation does not depend
on their arithmetic — Figure 1 measures *where memory references are
served* (SPM vs cache vs NoC vs DRAM) under the per-benchmark reference
mixes.  Each model below therefore captures the published access-pattern
structure of its benchmark (see the NPB characterisation literature and the
ISCA'15 hybrid-memory paper):

=====  ====================================================================
CG     sparse matrix-vector products: long strided sweeps over the matrix
       values/row pointers plus heavy indirect ``x[col[j]]`` traffic that
       the compiler cannot disambiguate from the strided vectors (unknown).
EP     embarrassingly parallel random-number kernels: tiny working set,
       very high arithmetic intensity — the memory system barely matters.
FT     3-D FFT transposes: almost everything is a long unit-stride stream
       over arrays far larger than any cache; heavy write streams.
IS     integer bucket sort: strided key reads feeding data-dependent
       histogram/bucket updates with unknown aliasing; write-heavy random.
MG     multigrid V-cycles: stencil sweeps over several grids (strided),
       with some indirect boundary/projection traffic.
SP     scalar pentadiagonal solver: wide strided sweeps over many solution
       arrays, moderate arithmetic intensity.
=====  ====================================================================

Each model is a :class:`NasWorkload`; :func:`run_nas` executes it against a
cache-only or hybrid :class:`~repro.memory.hierarchy.MemoryHierarchy` and
returns execution time, energy and NoC traffic.  The ``fig1_hybrid``
campaign preset runs every benchmark in both modes, and
:func:`repro.campaign.figures.fig1_speedups` folds the three bars of
Figure 1 from its records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..memory.access import ACCESS_DTYPE, AccessBatch, RefClass
from ..memory.hierarchy import STREAM_REGION_BITS, MemoryHierarchy
from ..memory.params import MemoryParams

__all__ = ["NasWorkload", "NAS_BENCHMARKS", "NasRunResult", "run_nas",
           "generate_trace"]

_REGION = 1 << STREAM_REGION_BITS
#: region ids: strided arrays occupy regions 1..n_streams, random data lives
#: in dedicated high regions so classes never collide by accident.
_RANDOM_SHARED_REGION = 100
#: per-stream base skew (131 cache lines) so streams do not collide in the
#: same cache sets — real allocators never hand out 2**30-aligned arrays.
_STREAM_SKEW = 131 * 64


def stream_base(s: int) -> int:
    """Base address of strided array ``s``."""
    return (1 + s) * _REGION + s * _STREAM_SKEW
_RANDOM_PRIVATE_REGION = 101
_UNKNOWN_PRIVATE_REGION = 105


@dataclass(frozen=True)
class NasWorkload:
    """Access-mix description of one NAS benchmark.

    Fractions refer to dynamic references; footprints drive the cache hit
    behaviour, which the hierarchy then simulates faithfully.
    """

    name: str
    frac_strided: float
    frac_random: float  # random, provably no-alias
    frac_unknown: float  # random, unknown aliasing
    write_frac_random: float
    n_streams: int  # concurrent strided arrays per core
    n_write_streams: int  # how many of those are pure output streams
    random_footprint_bytes: int  # no-alias random region (shared)
    shared_fraction: float  # random refs hitting globally shared data
    hot_fraction: float  # random refs going to the hot working set
    hot_bytes: int  # size of the hot working set (per region)
    unknown_into_strided: float  # unknown refs landing in strided arrays
    cpi_compute: float  # compute cycles per memory reference
    mlp: float  # memory-level parallelism divisor
    pinned_streams: int = 0  # read streams whose partition stays SPM-pinned

    def __post_init__(self) -> None:
        total = self.frac_strided + self.frac_random + self.frac_unknown
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: reference fractions sum to {total}")
        if not (0 <= self.n_write_streams <= self.n_streams):
            raise ValueError(f"{self.name}: write streams exceed streams")
        if not (0 <= self.pinned_streams <= self.n_read_streams):
            raise ValueError(f"{self.name}: pinned streams must be read streams")

    @property
    def n_read_streams(self) -> int:
        return self.n_streams - self.n_write_streams


NAS_BENCHMARKS: Dict[str, NasWorkload] = {
    "CG": NasWorkload(
        name="CG", frac_strided=0.55, frac_random=0.13, frac_unknown=0.32,
        write_frac_random=0.05, n_streams=4, n_write_streams=1,
        pinned_streams=1,
        random_footprint_bytes=8 << 20, shared_fraction=0.6,
        hot_fraction=0.9, hot_bytes=98304,
        unknown_into_strided=0.75, cpi_compute=7.0, mlp=4.0,
    ),
    "EP": NasWorkload(
        name="EP", frac_strided=0.06, frac_random=0.94, frac_unknown=0.0,
        write_frac_random=0.25, n_streams=1, n_write_streams=1,
        random_footprint_bytes=24 << 10, shared_fraction=0.02,
        hot_fraction=0.98, hot_bytes=12288,
        unknown_into_strided=0.0, cpi_compute=28.0, mlp=2.0,
    ),
    "FT": NasWorkload(
        name="FT", frac_strided=0.86, frac_random=0.09, frac_unknown=0.05,
        write_frac_random=0.10, n_streams=4, n_write_streams=2,
        random_footprint_bytes=4 << 20, shared_fraction=0.3,
        hot_fraction=0.85, hot_bytes=131072,
        unknown_into_strided=0.4, cpi_compute=8.5, mlp=4.0,
    ),
    "IS": NasWorkload(
        name="IS", frac_strided=0.38, frac_random=0.14, frac_unknown=0.48,
        write_frac_random=0.55, n_streams=3, n_write_streams=1,
        pinned_streams=1,
        random_footprint_bytes=8 << 20, shared_fraction=0.7,
        hot_fraction=0.8, hot_bytes=196608,
        unknown_into_strided=0.35, cpi_compute=2.0, mlp=4.0,
    ),
    "MG": NasWorkload(
        name="MG", frac_strided=0.82, frac_random=0.09, frac_unknown=0.09,
        write_frac_random=0.15, n_streams=5, n_write_streams=2,
        random_footprint_bytes=6 << 20, shared_fraction=0.4,
        hot_fraction=0.95, hot_bytes=131072,
        unknown_into_strided=0.5, cpi_compute=4.2, mlp=4.0,
    ),
    "SP": NasWorkload(
        name="SP", frac_strided=0.55, frac_random=0.40, frac_unknown=0.05,
        write_frac_random=0.15, n_streams=5, n_write_streams=2,
        random_footprint_bytes=4 << 20, shared_fraction=0.3,
        hot_fraction=0.90, hot_bytes=98304,
        unknown_into_strided=0.4, cpi_compute=8.0, mlp=4.0,
    ),
}


# ---------------------------------------------------------------------------
# trace generation
# ---------------------------------------------------------------------------

def core_chunk_bytes(
    wl: NasWorkload, accesses_per_core: int, params: MemoryParams
) -> int:
    """Deterministic per-core chunk size of one strided stream (bytes).

    Shared by the trace generator, filter registration and SPM pinning so
    every component sees the same address layout."""
    per_stream = max(
        1, int(np.ceil(accesses_per_core * wl.frac_strided / wl.n_streams))
    )
    return per_stream * params.access_bytes + params.tile_bytes


def _random_offsets(
    wl: NasWorkload, n: int, footprint_bytes: int, es: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Word offsets with a hot working set + uniform cold tail.

    Real NAS "random" traffic is not uniform: CG re-reads the x vector, IS
    hammers popular buckets.  A two-level working set reproduces the cache
    behaviour that matters (hot data hits, cold tail misses)."""
    hot = rng.random(n) < wl.hot_fraction
    out = np.empty(n, dtype=np.int64)
    hot_words = max(1, min(wl.hot_bytes, footprint_bytes) // es)
    all_words = max(1, footprint_bytes // es)
    out[hot] = rng.integers(0, hot_words, int(hot.sum()))
    out[~hot] = rng.integers(0, all_words, int((~hot).sum()))
    return out * es


def _core_sequence(
    wl: NasWorkload,
    core: int,
    n_cores: int,
    n_accesses: int,
    rng: np.random.Generator,
    params: MemoryParams,
) -> np.ndarray:
    """Program-ordered access records for one core."""
    rec = np.empty(n_accesses, dtype=ACCESS_DTYPE)
    rec["core"] = core

    u = rng.random(n_accesses)
    cls = np.full(n_accesses, RefClass.RANDOM_NOALIAS, dtype=np.int8)
    cls[u < wl.frac_strided] = RefClass.STRIDED
    cls[u >= wl.frac_strided + wl.frac_random] = RefClass.RANDOM_UNKNOWN
    rec["cls"] = cls

    writes = np.zeros(n_accesses, dtype=bool)
    strided_mask = cls == RefClass.STRIDED
    other_mask = ~strided_mask
    writes[other_mask] = rng.random(other_mask.sum()) < wl.write_frac_random

    addrs = np.zeros(n_accesses, dtype=np.int64)
    es = params.access_bytes

    # --- strided: round-robin across this core's private stream chunks.
    # Streams 0..n_read-1 are inputs (reads); the rest are pure output
    # streams (writes) — real NAS kernels stream *through* dedicated arrays
    # rather than sprinkling writes into the ones they read.
    idx = np.nonzero(strided_mask)[0]
    if idx.size:
        stream = np.arange(idx.size) % wl.n_streams
        core_chunk = core_chunk_bytes(wl, n_accesses, params)
        capacity = max(1, (core_chunk - params.tile_bytes) // es)
        pos = (np.arange(idx.size) // wl.n_streams) % capacity
        base = (1 + stream).astype(np.int64) * _REGION + stream * _STREAM_SKEW
        addrs[idx] = base + core * core_chunk + pos * es
        writes[idx] = stream >= wl.n_read_streams
    rec["write"] = writes

    # --- random no-alias: shared + private uniform traffic -----------------
    idx = np.nonzero(cls == RefClass.RANDOM_NOALIAS)[0]
    if idx.size:
        shared = rng.random(idx.size) < wl.shared_fraction
        a = np.empty(idx.size, dtype=np.int64)
        n_sh = int(shared.sum())
        if n_sh:
            a[shared] = _RANDOM_SHARED_REGION * _REGION + _random_offsets(
                wl, n_sh, wl.random_footprint_bytes, es, rng
            )
        n_pr = idx.size - n_sh
        if n_pr:
            a[~shared] = (
                _RANDOM_PRIVATE_REGION * _REGION
                + core * wl.random_footprint_bytes
                + _random_offsets(
                    wl, n_pr, max(es, wl.random_footprint_bytes // n_cores), es, rng
                )
            )
        addrs[idx] = a

    # --- random unknown-alias: some land inside the strided arrays ---------
    idx = np.nonzero(cls == RefClass.RANDOM_UNKNOWN)[0]
    if idx.size:
        into = rng.random(idx.size) < wl.unknown_into_strided
        a = np.empty(idx.size, dtype=np.int64)
        # Inside a strided array: anywhere in this core's chunk of a stream.
        n_into = int(into.sum())
        if n_into:
            core_chunk = core_chunk_bytes(wl, n_accesses, params)
            capacity = max(1, (core_chunk - params.tile_bytes) // es)
            if wl.pinned_streams:
                # Indirect accesses (x[col[j]]) target the SPM-pinned shared
                # vector — any core's partition, as sparse columns do.
                stream = rng.integers(0, wl.pinned_streams, n_into)
                tgt_core = rng.integers(0, n_cores, n_into)
            else:
                stream = rng.integers(0, wl.n_streams, n_into)
                tgt_core = np.full(n_into, core)
            off = rng.integers(0, capacity, n_into) * es
            a[into] = (
                (1 + stream).astype(np.int64) * _REGION
                + stream * _STREAM_SKEW
                + tgt_core.astype(np.int64) * core_chunk
                + off
            )
        n_out = int((~into).sum())
        if n_out:
            a[~into] = _UNKNOWN_PRIVATE_REGION * _REGION + _random_offsets(
                wl, n_out, wl.random_footprint_bytes, es, rng
            )
        addrs[idx] = a

    rec["addr"] = addrs
    return rec


def generate_trace(
    wl: NasWorkload,
    n_cores: int,
    accesses_per_core: int,
    seed: int = 0,
    params: MemoryParams | None = None,
    chunk: int = 64,
) -> Iterator[AccessBatch]:
    """Yield interleaved :class:`AccessBatch` chunks for all cores.

    Per-core program order is preserved; cores interleave every ``chunk``
    accesses, which is what exercises the coherence protocol realistically.
    """
    params = params if params is not None else MemoryParams()
    rng = np.random.default_rng(seed)
    seqs = [
        _core_sequence(wl, c, n_cores, accesses_per_core, rng, params)
        for c in range(n_cores)
    ]
    for start in range(0, accesses_per_core, chunk):
        stop = min(start + chunk, accesses_per_core)
        merged = np.concatenate([s[start:stop] for s in seqs])
        yield AccessBatch(merged)


def strided_regions(
    wl: NasWorkload, n_cores: int, accesses_per_core: int,
    params: MemoryParams | None = None,
) -> List[Tuple[int, int]]:
    """(base, nbytes) of every strided array, for filter registration."""
    params = params if params is not None else MemoryParams()
    core_chunk = core_chunk_bytes(wl, accesses_per_core, params)
    return [
        (stream_base(s), n_cores * core_chunk) for s in range(wl.n_streams)
    ]


# ---------------------------------------------------------------------------
# execution model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NasRunResult:
    """Outcome of one benchmark x configuration run.

    ``hierarchy`` is the finished :class:`MemoryHierarchy`, for readers
    of its components' counters; it takes no part in equality or repr.
    """

    benchmark: str
    mode: str
    exec_time_s: float
    energy_j: float
    noc_flit_hops: float
    mem_cycles: float
    summary: Dict[str, float]
    hierarchy: MemoryHierarchy = field(compare=False, repr=False)


def run_nas(
    name: str,
    mode: str,
    n_cores: int = 64,
    accesses_per_core: int = 3000,
    seed: int = 0,
    params: MemoryParams | None = None,
) -> NasRunResult:
    """Run one NAS model on one hierarchy configuration."""
    wl = NAS_BENCHMARKS.get(name.upper())
    if wl is None:
        raise ValueError(
            f"unknown NAS benchmark {name!r}; choose from {sorted(NAS_BENCHMARKS)}"
        )
    params = params if params is not None else MemoryParams()
    hier = MemoryHierarchy(n_cores, mode=mode, params=params)
    for base, nbytes in strided_regions(wl, n_cores, accesses_per_core, params):
        hier.register_filter_region(base, nbytes)
    if mode == "hybrid" and wl.pinned_streams:
        chunk = core_chunk_bytes(wl, accesses_per_core, params)
        for s in range(wl.pinned_streams):
            for c in range(n_cores):
                hier.pin_region(c, stream_base(s) + c * chunk, chunk)
    for batch in generate_trace(wl, n_cores, accesses_per_core, seed, params):
        hier.run_batch(batch)
    hier.finish()

    freq_hz = params.core_freq_ghz * 1e9
    exec_cycles = max(
        accesses_per_core * wl.cpi_compute + hier.mem_cycles[c] / wl.mlp
        for c in range(n_cores)
    )
    exec_time = exec_cycles / freq_hz
    static = params.static_power_w_per_core * n_cores * exec_time
    energy = hier.energy_j + hier.noc.total_energy_j + static
    return NasRunResult(
        benchmark=wl.name,
        mode=mode,
        exec_time_s=exec_time,
        energy_j=energy,
        noc_flit_hops=hier.noc_flit_hops(),
        mem_cycles=hier.total_mem_cycles(),
        summary=hier.summary(),
        hierarchy=hier,
    )
