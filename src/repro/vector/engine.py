"""The vector engine: executes real data, counts cycles.

A :class:`VectorEngine` is configured with a maximum vector length (MVL)
and a number of parallel lanes — the two axes of Figure 3 — plus the serial
or parallel hardware variant of VPI/VLU.  Algorithms call its instruction
methods with NumPy arrays; every call both performs the operation on real
data and charges its cost to the cycle counter.

Chaining
--------
Dependent vector instructions on a real machine overlap through chaining:
while the load unit streams element *i+k*, the ALU processes element *i*.
Inside a ``with engine.chain():`` block the engine therefore accumulates
per-functional-unit busy time and commits ``max`` over units (plus one
startup) instead of the sum.  Outside a chain, each instruction pays its
own startup and full duration.  This is the standard first-order model of
Cray-style vector execution and is what lets VSR sustain close to one
element per cycle per pass.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional

import numpy as np

from .instructions import vector_last_unique, vector_prior_instances
from .params import VectorParams

__all__ = ["VectorEngine"]

_UNITS = ("MEM", "ALU", "SEQ", "SCALAR")


class VectorEngine:
    """A vector unit with ``mvl``-element registers and ``lanes`` lanes.

    Parameters
    ----------
    mvl:
        Maximum vector length (elements per register).
    lanes:
        Parallel lockstepped lanes; unit-stride memory and ALU ops retire
        ``lanes`` elements per cycle.
    parallel_vpi:
        Hardware variant of VPI/VLU.  Defaults to the parallel variant when
        ``lanes > 1`` (the HPCA'15 proposal includes both).
    """

    def __init__(
        self,
        mvl: int = 64,
        lanes: int = 1,
        parallel_vpi: Optional[bool] = None,
        params: Optional[VectorParams] = None,
    ) -> None:
        if mvl < 2:
            raise ValueError("MVL must be at least 2")
        if lanes < 1 or lanes > mvl:
            raise ValueError("lanes must be in [1, mvl]")
        self.mvl = mvl
        self.lanes = lanes
        self.params = params if params is not None else VectorParams()
        self.parallel_vpi = (lanes > 1) if parallel_vpi is None else parallel_vpi
        self.cycles: float = 0.0
        self.instructions: int = 0
        self._chain: Optional[Dict[str, float]] = None
        self._chain_startups: float = 0.0
        #: bytes of bookkeeping tables the running algorithm keeps hot;
        #: algorithms set this so indexed accesses model cache pressure.
        self.table_bytes: int = 0

    # ------------------------------------------------------------------
    # cost plumbing
    # ------------------------------------------------------------------
    def _check_vl(self, n: int) -> None:
        if n > self.mvl:
            raise ValueError(f"vector length {n} exceeds MVL {self.mvl}")

    def _issue(self, unit: str, busy_cycles: float) -> None:
        p = self.params
        self.instructions += 1
        if self._chain is not None:
            self._chain[unit] += busy_cycles
            self._chain_startups = max(self._chain_startups, p.startup_cycles)
        else:
            self.cycles += p.startup_cycles + busy_cycles

    @contextmanager
    def chain(self):
        """Overlap the enclosed instructions across functional units."""
        if self._chain is not None:
            yield  # nested chains merge into the outer one
            return
        self._chain = {u: 0.0 for u in _UNITS}
        self._chain_startups = 0.0
        try:
            yield
        finally:
            busy = max(self._chain.values())
            self.cycles += self._chain_startups + busy
            self._chain = None

    def _indexed_beat(self) -> float:
        p = self.params
        beat = max(p.mem_indexed_beat / self.lanes, p.mem_indexed_min_beat)
        if self.table_bytes > p.table_pressure_bytes:
            beat *= p.table_pressure_multiplier
        return beat

    # ------------------------------------------------------------------
    # memory instructions
    # ------------------------------------------------------------------
    def vload(self, mem: np.ndarray, start: int, vl: int) -> np.ndarray:
        """Unit-stride load of ``vl`` elements."""
        self._check_vl(vl)
        self._issue("MEM", vl * self.params.mem_unit_beat / self.lanes)
        return np.array(mem[start : start + vl])

    def vgather(self, table: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Indexed load (one element per cycle, lane-independent)."""
        self._check_vl(len(idx))
        self._issue("MEM", len(idx) * self._indexed_beat())
        return np.array(table[idx])

    def vscatter(
        self,
        table: np.ndarray,
        idx: np.ndarray,
        values: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """Indexed store, optionally masked.  Only active elements cost."""
        self._check_vl(len(idx))
        if mask is not None:
            idx = idx[mask]
            values = np.asarray(values)[mask]
        self._issue("MEM", len(idx) * self._indexed_beat())
        table[idx] = values

    # ------------------------------------------------------------------
    # arithmetic / logic
    # ------------------------------------------------------------------
    def vop(self, fn, *operands: np.ndarray, n_ops: int = 1) -> np.ndarray:
        """Elementwise operation(s); ``n_ops`` ALU instructions' worth."""
        vl = max(len(np.atleast_1d(o)) for o in operands)
        self._check_vl(vl)
        self._issue("ALU", n_ops * vl * self.params.alu_beat / self.lanes)
        return fn(*operands)

    # ------------------------------------------------------------------
    # the new instructions
    # ------------------------------------------------------------------
    def _vpi_cost(self, vl: int) -> float:
        p = self.params
        if self.parallel_vpi:
            return vl * p.vpi_parallel_beat / self.lanes + p.vpi_parallel_overhead
        return vl * p.vpi_serial_beat

    def vpi(self, values: np.ndarray) -> np.ndarray:
        """Vector Prior Instances."""
        self._check_vl(len(values))
        self._issue("SEQ", self._vpi_cost(len(values)))
        return vector_prior_instances(values)

    def vlu(self, values: np.ndarray) -> np.ndarray:
        """Vector Last Unique."""
        self._check_vl(len(values))
        self._issue("SEQ", self._vpi_cost(len(values)))
        return vector_last_unique(values)

    # ------------------------------------------------------------------
    # scalar side
    # ------------------------------------------------------------------
    def scalar(self, n_ops: float) -> None:
        """Charge ``n_ops`` scalar-unit operations (loop control etc.)."""
        self._issue("SCALAR", n_ops * self.params.scalar_op_cycles)

    # ------------------------------------------------------------------
    # bulk accounting
    # ------------------------------------------------------------------
    def charge_stream(
        self,
        n_elements: int,
        mem_unit: float = 0.0,
        mem_indexed: float = 0.0,
        alu: float = 0.0,
        seq: float = 0.0,
    ) -> None:
        """Charge a fully chained strip loop over ``n_elements`` elements.

        Arguments give the number of instructions *per element* in each
        unit class.  The cost is what executing the loop strip-by-strip
        through the instruction methods would charge: one startup per strip
        (chained) plus the busiest unit's total beat count.  Algorithms
        whose semantics are computed with bulk NumPy (bitonic stages,
        partition passes) use this so host-side vectorisation does not
        distort the simulated cycle counts.
        """
        if n_elements <= 0:
            return
        p = self.params
        strips = -(-n_elements // self.mvl)
        per_elem_seq = (
            p.vpi_parallel_beat / self.lanes if self.parallel_vpi else p.vpi_serial_beat
        )
        unit_busy = {
            "MEM": n_elements
            * (
                mem_unit * p.mem_unit_beat / self.lanes
                + mem_indexed * self._indexed_beat()
            ),
            "ALU": n_elements * alu * p.alu_beat / self.lanes,
            "SEQ": n_elements * seq * per_elem_seq
            + (strips * p.vpi_parallel_overhead * seq if self.parallel_vpi else 0.0),
        }
        self.instructions += int(
            strips * (mem_unit + mem_indexed + alu + seq)
        )
        self.cycles += strips * p.startup_cycles + max(unit_busy.values())

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.cycles = 0.0
        self.instructions = 0
        self.table_bytes = 0

    def cpt(self, n_tuples: int) -> float:
        """Cycles Per Tuple, the paper's figure of merit."""
        return self.cycles / n_tuples if n_tuples else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        variant = "parallel" if self.parallel_vpi else "serial"
        return (
            f"VectorEngine(mvl={self.mvl}, lanes={self.lanes}, "
            f"vpi={variant}, cycles={self.cycles:.0f})"
        )
