"""Hybrid SPM+cache memory hierarchy (the Figure 1 substrate).

The compiler side (:mod:`~repro.memory.compilerpass`) classifies references
as strided / random-no-alias / random-unknown-alias; the hardware side
(:mod:`~repro.memory.hierarchy`) serves each class through the scratchpads
(:mod:`~repro.memory.spm`), the coherent cache hierarchy
(:mod:`~repro.memory.cache`, :mod:`~repro.memory.coherence`) or the SPM
filter+directory protocol (:mod:`~repro.memory.directory`).
"""

from .access import AccessBatch, RefClass
from .cache import CacheAccessResult, SetAssocCache
from .coherence import CoherenceDirectory, CoherenceOutcome, DirectoryEntry
from .compilerpass import (
    Affine,
    ArrayDecl,
    ArrayRef,
    ClassifiedRef,
    Indirect,
    LoopNest,
    Opaque,
    class_mix,
    classify,
)
from .directory import SpmDirectory, SpmFilter
from .hierarchy import STREAM_REGION_BITS, MemoryHierarchy
from .params import MemoryParams
from .spm import DmaTransfer, Scratchpad, TilingStream

__all__ = [
    "AccessBatch",
    "RefClass",
    "CacheAccessResult",
    "SetAssocCache",
    "CoherenceDirectory",
    "CoherenceOutcome",
    "DirectoryEntry",
    "Affine",
    "ArrayDecl",
    "ArrayRef",
    "ClassifiedRef",
    "Indirect",
    "LoopNest",
    "Opaque",
    "class_mix",
    "classify",
    "SpmDirectory",
    "SpmFilter",
    "STREAM_REGION_BITS",
    "MemoryHierarchy",
    "MemoryParams",
    "DmaTransfer",
    "Scratchpad",
    "TilingStream",
]
