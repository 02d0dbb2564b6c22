"""The four vectorised sorting algorithms of Figure 3 plus scalar baselines."""

from .bitonic import bitonic_sort
from .scalar import scalar_sort, scalar_sort_cycles
from .vquick import vquick_sort
from .vradix import vradix_sort
from .vsr import VSR_DIGIT_BITS, vsr_sort, vsr_sort_strips

__all__ = [
    "bitonic_sort",
    "scalar_sort",
    "scalar_sort_cycles",
    "vquick_sort",
    "vradix_sort",
    "VSR_DIGIT_BITS",
    "vsr_sort",
    "vsr_sort_strips",
]
