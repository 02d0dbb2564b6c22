"""The simulated multicore chip.

A :class:`Machine` bundles the pieces every experiment needs: a set of
:class:`~repro.sim.cpu.Core`, the DVFS table and power model they share, a
mesh NoC sized to the core count, and a :class:`~repro.sim.events.Simulator`
that advances time.  The task runtime (``repro.core.runtime``) drives the
machine; memory-hierarchy experiments attach a ``repro.memory`` hierarchy to
it.
"""

from __future__ import annotations

from typing import List, Optional

from .cpu import Core
from .events import Simulator
from .noc import MeshNoC, NocParams
from .power import DEFAULT_DVFS_TABLE, DvfsTable, PowerModel, edp

__all__ = ["Machine"]


class Machine:
    """An ``n_cores``-core chip with shared DVFS table, power model and NoC.

    Parameters
    ----------
    n_cores:
        Number of cores.
    dvfs:
        Operating-point table; defaults to the 5-level 1.0-3.0 GHz table.
    power_model:
        Per-core power model; defaults to the standard first-order model.
    power_budget_w:
        Chip-level power budget used by criticality-aware frequency
        allocation.  ``None`` means unconstrained.
    initial_level:
        DVFS level every core starts at (defaults to a mid "nominal" level).
    """

    def __init__(
        self,
        n_cores: int,
        dvfs: Optional[DvfsTable] = None,
        power_model: Optional[PowerModel] = None,
        power_budget_w: Optional[float] = None,
        initial_level: Optional[int] = None,
        noc_params: Optional[NocParams] = None,
    ) -> None:
        if n_cores < 1:
            raise ValueError("need at least one core")
        self.sim = Simulator()
        self.dvfs = dvfs if dvfs is not None else DEFAULT_DVFS_TABLE
        self.power_model = power_model if power_model is not None else PowerModel()
        if initial_level is None:
            initial_level = self.dvfs.max_level // 2
        self.cores: List[Core] = [
            Core(i, self.dvfs, self.power_model, level=initial_level)
            for i in range(n_cores)
        ]
        self.noc = MeshNoC.square_for(n_cores, noc_params)
        self.power_budget_w = power_budget_w

    # ------------------------------------------------------------------
    @property
    def n_cores(self) -> int:
        return len(self.cores)

    @property
    def now(self) -> float:
        return self.sim.now

    def idle_cores(self) -> List[Core]:
        return [c for c in self.cores if not c.busy and c.alive]

    @property
    def n_live_cores(self) -> int:
        return sum(1 for c in self.cores if c.alive)

    def chip_power(self) -> float:
        """Instantaneous chip power at the cores' current states (watts)."""
        total = 0.0
        for core in self.cores:
            op = core.operating_point
            total += (
                self.power_model.busy_power(op)
                if core.busy
                else self.power_model.idle_power(op)
            )
        return total

    def power_if_levels(self, levels: List[int], busy: List[bool]) -> float:
        """Hypothetical chip power for a candidate level assignment.

        Each core's watts come from its per-level tables, which hold the
        power model's ``busy_power``/``idle_power`` of each operating
        point, and are added one at a time in core order, so the sum is
        bit for bit the one over the operating points.
        """
        cores = self.cores
        if len(levels) != len(cores) or len(busy) != len(cores):
            raise ValueError("levels/busy must have one entry per core")
        total = 0.0
        for core, lvl, b in zip(cores, levels, busy):
            total += core._busy_w[lvl] if b else core._idle_w[lvl]
        return total

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Integrate all cores' energy up to the current simulated time."""
        for core in self.cores:
            core.finalize(self.sim.now)

    def total_energy_j(self, include_noc: bool = True) -> float:
        """Total chip energy so far.  Call :meth:`finalize` first."""
        total = sum(core.energy.joules for core in self.cores)
        if include_noc:
            total += self.noc.total_energy_j
        return total

    def edp(self) -> float:
        """Energy-Delay Product of the run so far."""
        self.finalize()
        return edp(self.total_energy_j(), self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Machine({self.n_cores} cores, {len(self.dvfs)} DVFS levels, "
            f"mesh {self.noc.width}x{self.noc.height})"
        )
