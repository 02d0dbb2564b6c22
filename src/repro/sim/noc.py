"""Network-on-chip model: 2-D mesh with XY routing.

Figure 1 of the paper reports **NoC traffic** reduction as one of the three
benefits of the hybrid memory hierarchy, so the NoC model must account for
every message the memory system generates: cache-line refills and writebacks,
coherence control (invalidations/acknowledgements), SPM DMA transfers and
directory/filter lookups.

The model is topological rather than cycle-accurate: a message of ``flits``
flits travelling ``hops`` hops contributes ``flits * hops`` flit-hops of
traffic, ``hops * hop_latency + flits / link_width`` cycles of latency, and
``flits * hops * e_flit_hop`` joules of energy.  This is the standard
first-order NoC accounting (Dally & Towles) used by the ISCA'15 hybrid-memory
evaluation that Figure 1 summarises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from .stats import StatSet

__all__ = ["MeshNoC", "NocParams"]


@dataclass(frozen=True)
class NocParams:
    """Latency/energy constants for the mesh.

    Defaults follow the 32 nm CACTI/Orion-class figures used in the hybrid
    memory hierarchy paper's methodology: ~1 cycle per router hop, 0.1 pJ per
    flit-hop, 16-byte links.
    """

    hop_latency_cycles: float = 1.0
    flit_bytes: int = 16
    energy_per_flit_hop_pj: float = 0.10
    frequency_ghz: float = 1.0  # NoC clock used to convert cycles to seconds


class MeshNoC:
    """A ``width x height`` mesh connecting cores and memory endpoints.

    Nodes are numbered row-major: node ``i`` sits at
    ``(i % width, i // width)``.  Shared L2 banks / memory controllers are
    assigned to nodes by the memory hierarchy; the NoC only computes hop
    distances and accumulates traffic/energy/latency statistics.
    """

    def __init__(self, width: int, height: int, params: NocParams | None = None) -> None:
        if width < 1 or height < 1:
            raise ValueError("mesh dimensions must be positive")
        self.width = width
        self.height = height
        self.params = params if params is not None else NocParams()
        # ``send`` runs several times per simulated memory access, so its
        # counters are fields (``stats`` builds a snapshot from them) and
        # the flits of each message size are looked up, not recomputed.
        self.messages = 0.0
        self.flits = 0
        self.flit_hops = 0
        self.bytes = 0
        self.energy_j = 0.0
        self.flit_hops_by_kind: Dict[str, int] = {}
        self._flits: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    @classmethod
    def square_for(cls, n_nodes: int, params: NocParams | None = None) -> "MeshNoC":
        """Smallest square-ish mesh with at least ``n_nodes`` nodes."""
        side = int(math.ceil(math.sqrt(n_nodes)))
        height = int(math.ceil(n_nodes / side))
        return cls(side, height, params)

    @property
    def n_nodes(self) -> int:
        return self.width * self.height

    def coords(self, node: int) -> Tuple[int, int]:
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node {node} outside mesh")
        return node % self.width, node // self.width

    def hops(self, src: int, dst: int) -> int:
        """Manhattan (XY-routed) hop distance between two nodes."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def avg_hops(self) -> float:
        """Mean hop distance over all ordered node pairs (uniform traffic)."""
        total = 0
        for s in range(self.n_nodes):
            for d in range(self.n_nodes):
                total += self.hops(s, d)
        return total / (self.n_nodes**2)

    # ------------------------------------------------------------------
    # traffic accounting
    # ------------------------------------------------------------------
    def flits_for_bytes(self, nbytes: int) -> int:
        if nbytes < 0:
            raise ValueError("negative message size")
        return max(1, math.ceil(nbytes / self.params.flit_bytes))

    def send(self, src: int, dst: int, nbytes: int, kind: str = "data") -> float:
        """Account one message; returns its latency in **seconds**.

        ``kind`` partitions the traffic counters (``data``, ``control``,
        ``dma``, ``coherence`` ...) so benchmarks can attribute reductions.
        Raises ``ValueError`` for a node outside the mesh or a negative
        size.

        The hop distance is computed inline (it is :meth:`hops`).  The
        flit, flit-hop and byte counters stay ints and ``energy_j`` is one
        float add per message, in message order: the callers' digests
        depend on both.
        """
        w = self.width
        n = w * self.height
        if not 0 <= src < n:
            raise ValueError(f"node {src} outside mesh")
        if not 0 <= dst < n:
            raise ValueError(f"node {dst} outside mesh")
        hops = abs(src % w - dst % w) + abs(src // w - dst // w)
        try:
            flits = self._flits[nbytes]
        except KeyError:
            flits = self._flits[nbytes] = self.flits_for_bytes(nbytes)
        flit_hops = flits * (hops if hops > 1 else 1)
        p = self.params
        self.messages += 1.0
        self.flits += flits
        self.flit_hops += flit_hops
        by_kind = self.flit_hops_by_kind
        try:
            by_kind[kind] += flit_hops
        except KeyError:
            by_kind[kind] = flit_hops
        self.bytes += nbytes
        self.energy_j += flit_hops * p.energy_per_flit_hop_pj * 1e-12
        # serialization at one flit/cycle
        return (hops * p.hop_latency_cycles + flits) / (p.frequency_ghz * 1e9)

    @property
    def stats(self) -> StatSet:
        """A fresh snapshot of the counters.

        Every message creates all of them, so before the first message the
        set is empty; ``flit_hops.<kind>`` exists for each kind sent.
        """
        out = StatSet("noc")
        if self.messages:
            out.add_many((
                ("messages", self.messages),
                ("flits", self.flits),
                ("flit_hops", self.flit_hops),
                ("bytes", self.bytes),
                ("energy_j", self.energy_j),
            ))
            out.add_many(
                (f"flit_hops.{kind}", hops)
                for kind, hops in self.flit_hops_by_kind.items()
            )
        return out

    @property
    def total_flit_hops(self) -> float:
        """All flit-hops sent so far (an int), or ``0.0`` before any."""
        return self.flit_hops if self.messages else 0.0

    @property
    def total_energy_j(self) -> float:
        return self.energy_j
