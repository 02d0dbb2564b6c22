"""The Section 3.1 chip: the machine of the criticality-aware DVFS study.

Two results of Section 3.1 run on it, as campaign presets of the
``chain`` family (the critical chain amid short fillers of
:func:`~repro.apps.kernels.critical_chain_with_fillers`):

1. **Criticality-aware DVFS vs static scheduling** (the 6.6% performance /
   20.0% EDP improvements on a simulated 32-core processor), preset
   ``fig2_rsu``.  The static baseline runs every core at the nominal
   operating point; the criticality-aware configuration lets the RSU
   boost cores running critical tasks and sink non-critical ones to an
   efficient point, under the same chip power budget.

2. **Software-DVFS vs RSU reconfiguration overhead** (Figure 2's
   motivation: *"the cost of reconfiguring the hardware with a
   software-only solution rises with the number of cores due to locks
   contention and reconfiguration overhead"*), preset ``fig2_overhead``.
   The policy is fixed and only the *mechanism* changes; the overhead is
   the cumulative stall time cores spend waiting for their frequency
   change.

:mod:`repro.campaign.runner` builds both runs on
:func:`make_section31_machine`, and :mod:`repro.campaign.figures` folds
their records.
"""

from __future__ import annotations

from typing import Optional

from ..sim.machine import Machine
from ..sim.power import DvfsTable

__all__ = ["SECTION31_DVFS_TABLE", "make_section31_machine"]


#: V/f table of the simulated 32-core part: the usable voltage range of a
#: server-class 2015 part is narrower than the architectural minimum, which
#: bounds how much energy down-clocking non-critical tasks can save.
SECTION31_DVFS_TABLE = DvfsTable.linear(
    5, f_min_ghz=1.0, f_max_ghz=3.0, v_min=0.85, v_max=1.2
)


def make_section31_machine(
    n_cores: int, budget_factor: Optional[float]
) -> Machine:
    """The Section 3.1 chip: narrow-voltage table, nominal 2.0 GHz, and —
    when ``budget_factor`` is given — a chip power budget of
    ``budget_factor × n_cores × nominal busy power``."""
    m = Machine(n_cores, dvfs=SECTION31_DVFS_TABLE, initial_level=2)
    if budget_factor is not None:
        nominal = m.dvfs[2]
        m.power_budget_w = (
            budget_factor * n_cores * m.power_model.busy_power(nominal)
        )
    return m
