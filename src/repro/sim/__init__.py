"""Discrete-event multicore simulation substrate.

This package is the "hardware" of the reproduction: an event-driven
simulator (:mod:`~repro.sim.events`), cores with DVFS and energy integration
(:mod:`~repro.sim.cpu`), a first-order power model (:mod:`~repro.sim.power`),
a mesh NoC (:mod:`~repro.sim.noc`), the chip-level :class:`Machine`
(:mod:`~repro.sim.machine`), and the two DVFS reconfiguration mechanisms the
paper contrasts — the software path and the Runtime Support Unit
(:mod:`~repro.sim.dvfs`, :mod:`~repro.sim.rsu`).
"""

from .cpu import Core
from .dvfs import (
    DvfsController,
    DvfsRequestResult,
    RsuDvfsController,
    SoftwareDvfsController,
)
from .events import EventQueue, SimulationError, Simulator
from .machine import Machine
from .noc import MeshNoC, NocParams
from .power import (
    DEFAULT_DVFS_TABLE,
    DvfsTable,
    EnergyAccount,
    OperatingPoint,
    PowerModel,
    edp,
)
from .rsu import RsuPolicy, RuntimeSupportUnit, TaskCriticality
from .stats import StatSet, geometric_mean
from .tdg_accel import (
    HardwareSubmission,
    IndexedSoftwareSubmission,
    SoftwareSubmission,
    SubmissionModel,
    granularity_sweep,
)
from .trace import EPSILON, TraceRecord, TraceRecorder

__all__ = [
    "EPSILON",
    "Core",
    "DvfsController",
    "DvfsRequestResult",
    "RsuDvfsController",
    "SoftwareDvfsController",
    "EventQueue",
    "SimulationError",
    "Simulator",
    "Machine",
    "MeshNoC",
    "NocParams",
    "DEFAULT_DVFS_TABLE",
    "DvfsTable",
    "EnergyAccount",
    "OperatingPoint",
    "PowerModel",
    "edp",
    "RsuPolicy",
    "RuntimeSupportUnit",
    "TaskCriticality",
    "HardwareSubmission",
    "IndexedSoftwareSubmission",
    "SoftwareSubmission",
    "SubmissionModel",
    "granularity_sweep",
    "StatSet",
    "geometric_mean",
    "TraceRecord",
    "TraceRecorder",
]
