"""Scalar baselines for Figure 3's "speedup over a scalar baseline".

The baseline is an optimised scalar comparison sort on a contemporary
superscalar core at the paper's input scale (millions of keys), where
branch mispredictions and last-level-cache misses dominate: measured CPTs
for ``std::sort`` on multi-million-element arrays exceed 100 cycles per
element.  The model uses that fixed calibrated CPT so speedups do not
depend on the (scaled-down) input sizes our simulations use.
"""

from __future__ import annotations

import numpy as np

from ..params import VectorParams

__all__ = ["scalar_sort", "scalar_sort_cycles"]


def scalar_sort_cycles(n: int, params: VectorParams | None = None) -> float:
    """Cycle cost of the scalar comparison-sort baseline (fixed CPT)."""
    params = params if params is not None else VectorParams()
    return params.scalar_sort_cpt * n


def scalar_sort(keys: np.ndarray) -> tuple:
    """Sort and return ``(sorted_keys, cycles)`` under the baseline model."""
    keys = np.asarray(keys)
    return np.sort(keys, kind="stable"), scalar_sort_cycles(len(keys))
