"""Power and energy modelling for the simulated multicore.

The model is the standard first-order CMOS one used throughout the
runtime-aware architecture literature (and in the TaskSim/Sniper-class
simulators behind the paper's Section 3 numbers):

* dynamic power   ``P_dyn = C_eff * V^2 * f`` while a core executes,
* static power    ``P_sta = k_leak * V``      whenever a core is powered,
* idle power      a fraction of static+clocking power when a core has no work.

Each core runs at one of a small set of :class:`OperatingPoint` (a DVFS
level); voltage scales roughly linearly with frequency across the table, so
running twice as fast costs roughly ``2 * (V2/V1)^2`` more dynamic power —
which is what makes criticality-aware frequency assignment (Section 3.1 of
the paper) profitable in Energy-Delay Product terms.

Energy is integrated exactly over piecewise-constant (power, interval)
segments; the :func:`edp` helper computes the Energy-Delay Product metric the
paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

__all__ = [
    "OperatingPoint",
    "DvfsTable",
    "PowerModel",
    "EnergyAccount",
    "edp",
    "DEFAULT_DVFS_TABLE",
]


@dataclass(frozen=True)
class OperatingPoint:
    """A (frequency, voltage) DVFS level.

    Attributes
    ----------
    frequency_ghz:
        Core clock in GHz.
    voltage:
        Supply voltage in volts at this level.
    """

    frequency_ghz: float
    voltage: float

    def __post_init__(self) -> None:
        if self.frequency_ghz <= 0 or self.voltage <= 0:
            raise ValueError("operating point must have positive f and V")

    @property
    def frequency_hz(self) -> float:
        return self.frequency_ghz * 1e9


class DvfsTable:
    """An ordered set of operating points, slowest first.

    Levels are indexed ``0 .. n-1``; level ``n-1`` is the "turbo" point used
    for critical tasks, level ``0`` the most power-efficient one.
    """

    def __init__(self, points: Sequence[OperatingPoint]) -> None:
        if not points:
            raise ValueError("DVFS table needs at least one operating point")
        pts = list(points)
        if any(b.frequency_ghz <= a.frequency_ghz for a, b in zip(pts, pts[1:])):
            raise ValueError("DVFS table must be strictly increasing in frequency")
        self.points: List[OperatingPoint] = pts

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, level: int) -> OperatingPoint:
        return self.points[level]

    @property
    def min_level(self) -> int:
        return 0

    @property
    def max_level(self) -> int:
        return len(self.points) - 1

    @classmethod
    def linear(
        cls,
        n_levels: int,
        f_min_ghz: float = 1.0,
        f_max_ghz: float = 3.0,
        v_min: float = 0.7,
        v_max: float = 1.2,
    ) -> "DvfsTable":
        """Build a table with linearly spaced frequency and voltage.

        This mirrors the published V/f tables of contemporary (2015-era)
        server parts, where voltage scales near-linearly with frequency over
        the usable range.
        """
        if n_levels < 1:
            raise ValueError("need at least one level")
        if n_levels == 1:
            return cls([OperatingPoint(f_max_ghz, v_max)])
        pts = []
        for i in range(n_levels):
            a = i / (n_levels - 1)
            pts.append(
                OperatingPoint(
                    f_min_ghz + a * (f_max_ghz - f_min_ghz),
                    v_min + a * (v_max - v_min),
                )
            )
        return cls(pts)


#: Default 5-level table: 1.0 GHz @ 0.70 V up to 3.0 GHz @ 1.20 V.
DEFAULT_DVFS_TABLE = DvfsTable.linear(5)


class PowerModel:
    """First-order CMOS core power model.

    Parameters
    ----------
    ceff_nf:
        Effective switched capacitance in nanofarads.  With the default
        table's top point (3 GHz, 1.2 V) and ``ceff_nf=1.0`` a core burns
        ``1e-9 * 1.2^2 * 3e9 = 4.32 W`` dynamic — a plausible per-core figure
        for the 32-/64-core chips the paper simulates.
    leak_w_per_v:
        Leakage coefficient: static power = ``leak_w_per_v * V``.
    idle_fraction:
        Fraction of the *dynamic* power at the current point that an idle
        (clock-gated but not power-gated) core still draws.
    """

    def __init__(
        self,
        ceff_nf: float = 1.0,
        leak_w_per_v: float = 0.5,
        idle_fraction: float = 0.1,
    ) -> None:
        if ceff_nf <= 0 or leak_w_per_v < 0 or not (0 <= idle_fraction <= 1):
            raise ValueError("invalid power model parameters")
        self.ceff = ceff_nf * 1e-9
        self.leak_w_per_v = leak_w_per_v
        self.idle_fraction = idle_fraction

    def dynamic_power(self, op: OperatingPoint) -> float:
        """Watts drawn by an actively executing core at ``op``."""
        return self.ceff * op.voltage**2 * op.frequency_hz

    def static_power(self, op: OperatingPoint) -> float:
        """Leakage watts at ``op``'s voltage."""
        return self.leak_w_per_v * op.voltage

    def busy_power(self, op: OperatingPoint) -> float:
        return self.dynamic_power(op) + self.static_power(op)

    def idle_power(self, op: OperatingPoint) -> float:
        return self.idle_fraction * self.dynamic_power(op) + self.static_power(op)


class EnergyAccount:
    """Exact energy integration over piecewise-constant power segments."""

    def __init__(self) -> None:
        self.joules: float = 0.0

    def accumulate(self, power_watts: float, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot integrate over negative time")
        self.joules += power_watts * seconds

    def merge(self, other: "EnergyAccount") -> None:
        self.joules += other.joules


def edp(energy_joules: float, delay_seconds: float) -> float:
    """Energy-Delay Product, the figure of merit in Section 3.1."""
    return energy_joules * delay_seconds
