"""Vector ISA and sorting algorithms (the Figure 3 substrate).

A parameterised vector engine (:mod:`~repro.vector.engine`) with the VPI
and VLU instructions (:mod:`~repro.vector.instructions`), four vectorised
sorting algorithms built on it (:mod:`~repro.vector.sorts`), and the
Figure 3 measurement harness (:mod:`~repro.vector.metrics`).
"""

from .engine import VectorEngine
from .instructions import vector_last_unique, vector_prior_instances
from .metrics import (
    SORT_ALGORITHMS,
    SortMeasurement,
    best_speedups,
    fig3_speedups,
    measure_sort,
    random_keys,
)
from .params import VectorParams
from .sorts.bitonic import bitonic_sort
from .sorts.scalar import scalar_sort, scalar_sort_cycles
from .sorts.vquick import vquick_sort
from .sorts.vradix import vradix_sort
from .sorts.vsr import VSR_DIGIT_BITS, vsr_sort, vsr_sort_strips

__all__ = [
    "VectorEngine",
    "vector_last_unique",
    "vector_prior_instances",
    "SORT_ALGORITHMS",
    "SortMeasurement",
    "best_speedups",
    "fig3_speedups",
    "measure_sort",
    "random_keys",
    "VectorParams",
    "bitonic_sort",
    "scalar_sort",
    "scalar_sort_cycles",
    "vquick_sort",
    "vradix_sort",
    "VSR_DIGIT_BITS",
    "vsr_sort",
    "vsr_sort_strips",
]
