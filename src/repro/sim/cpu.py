"""Core (CPU) model.

A :class:`Core` executes work expressed in **cycles**; wall-clock duration
follows from the core's current DVFS operating point.  The core integrates
its own energy: every interval between state changes (busy/idle transitions
and frequency changes) is charged at the power corresponding to the state and
operating point that held during the interval.

Cores are passive — the task runtime (or a DVFS controller) drives them by
calling :meth:`Core.begin_work` / :meth:`Core.end_work` /
:meth:`Core.set_level` at simulated times supplied by the caller.
"""

from __future__ import annotations

from typing import Optional

from .power import DvfsTable, EnergyAccount, PowerModel

__all__ = ["Core"]


class Core:
    """One simulated core with DVFS levels and energy integration.

    Each DVFS level's busy/idle watts and frequency are read from the
    models once, into per-level tables, so charging an interval is one
    index plus one multiply-add.  Energy is still charged once per
    interval, in the same order, so the sums stay bit-identical.

    Parameters
    ----------
    core_id:
        Index of the core in the machine.
    dvfs:
        The operating-point table shared by the machine.
    power_model:
        Converts (state, operating point) to watts.
    level:
        Initial DVFS level.
    """

    def __init__(
        self,
        core_id: int,
        dvfs: DvfsTable,
        power_model: PowerModel,
        level: Optional[int] = None,
    ) -> None:
        self.core_id = core_id
        self.dvfs = dvfs
        self.power_model = power_model
        self.level = dvfs.max_level if level is None else level
        if not (0 <= self.level <= dvfs.max_level):
            raise ValueError(f"DVFS level {level} out of range")
        self.busy = False
        #: fail-stop liveness: a dead core never accepts work again
        self.alive = True
        self.energy = EnergyAccount()
        points = dvfs.points
        self._busy_w = [power_model.busy_power(op) for op in points]
        self._idle_w = [power_model.idle_power(op) for op in points]
        self._freq_hz = [op.frequency_hz for op in points]
        self._last_update = 0.0
        #: opaque handle for whatever the runtime is executing here
        self.current_work: object = None

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def operating_point(self):
        return self.dvfs[self.level]

    @property
    def frequency_ghz(self) -> float:
        return self.operating_point.frequency_ghz

    @property
    def frequency_hz(self) -> float:
        return self._freq_hz[self.level]

    def seconds_for_cycles(self, cycles: float) -> float:
        """Wall-clock time to execute ``cycles`` at the current level."""
        if cycles < 0:
            raise ValueError("negative cycle count")
        return cycles / self.frequency_hz

    # ------------------------------------------------------------------
    # energy integration
    # ------------------------------------------------------------------
    def _integrate_to(self, now: float) -> None:
        """Charge energy for the interval since the last state change."""
        dt = now - self._last_update
        if dt < -1e-12:
            raise ValueError(
                f"core {self.core_id}: time went backwards "
                f"({now} < {self._last_update})"
            )
        if dt > 0:
            watts = self._busy_w if self.busy else self._idle_w
            self.energy.joules += watts[self.level] * dt
            self._last_update = now

    # ------------------------------------------------------------------
    # transitions (driven by the runtime / DVFS controller)
    # ------------------------------------------------------------------
    def begin_work(self, now: float, work: object = None) -> None:
        if not self.alive:
            raise RuntimeError(f"core {self.core_id} is dead")
        if self.busy:
            raise RuntimeError(f"core {self.core_id} is already busy")
        self._integrate_to(now)
        self.busy = True
        self.current_work = work

    def end_work(self, now: float) -> None:
        if not self.busy:
            raise RuntimeError(f"core {self.core_id} is not busy")
        self._integrate_to(now)
        self.busy = False
        self.current_work = None

    def set_level(self, now: float, level: int) -> None:
        """Change DVFS level at time ``now`` (energy charged at old level)."""
        if not (0 <= level <= self.dvfs.max_level):
            raise ValueError(f"DVFS level {level} out of range")
        self._integrate_to(now)
        self.level = level

    def fail(self, now: float) -> None:
        """Fail-stop the core: no work may ever start here again.

        The caller (the runtime's core-kill path) must abort any
        in-flight task first — a busy core cannot die, because the
        energy accounting for the killed interval belongs to the abort,
        not to the failure.  Dead cores stop drawing power: their
        energy is integrated up to the failure instant and frozen.
        """
        if self.busy:
            raise RuntimeError(
                f"core {self.core_id} cannot fail while busy; "
                "abort its task first"
            )
        if not self.alive:
            raise RuntimeError(f"core {self.core_id} is already dead")
        self._integrate_to(now)
        self.alive = False

    def finalize(self, now: float) -> None:
        """Integrate energy up to the end of the simulation."""
        if self.alive:
            self._integrate_to(now)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "dead" if not self.alive else "busy" if self.busy else "idle"
        return f"Core({self.core_id}, {self.frequency_ghz:.2f}GHz, {state})"
