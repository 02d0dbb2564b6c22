"""Memory access vocabulary shared by the memory-hierarchy models.

Section 2 of the paper classifies memory references into three categories,
which is the contract between the "compiler side" and the "hardware side" of
the hybrid hierarchy:

* **strided** references — mapped to the scratchpad through tiling software
  caches generated by the compiler;
* **random, no-alias** references — proven disjoint from strided data and
  served by the cache hierarchy;
* **random, unknown-alias** references — the compiler cannot prove anything;
  a special memory instruction lets the *hardware* (filter + directory)
  decide which memory holds the valid copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = ["RefClass", "AccessBatch"]


class RefClass(IntEnum):
    """The compiler's classification of one memory reference."""

    STRIDED = 0
    RANDOM_NOALIAS = 1
    RANDOM_UNKNOWN = 2


#: dtype of one access record in a trace batch.
ACCESS_DTYPE = np.dtype(
    [
        ("core", np.int32),
        ("addr", np.int64),
        ("write", np.bool_),
        ("cls", np.int8),
    ]
)


@dataclass
class AccessBatch:
    """A chunk of a memory trace as a structured NumPy array.

    Traces are produced in batches so workload generators can vectorise
    address generation; the hierarchy consumes rows in order (program order
    per core is preserved by construction).
    """

    records: np.ndarray

    def __post_init__(self) -> None:
        if self.records.dtype != ACCESS_DTYPE:
            raise TypeError(f"records must have dtype {ACCESS_DTYPE}")

    def __len__(self) -> int:
        return len(self.records)

