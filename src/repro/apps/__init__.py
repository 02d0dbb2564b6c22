"""Workload builders, and the Section 3.1 machine.

* :mod:`~repro.apps.nas` — NAS access-pattern generators (Figure 1)
* :mod:`~repro.apps.rsu_experiment` — the Section 3.1 machine (Fig. 2)
* :mod:`~repro.apps.parsec` — PARSEC task-graph models (Figure 5)
* :mod:`~repro.apps.kernels` — generic TDG patterns used throughout
* :mod:`~repro.apps.dag_workloads` — synthetic DAG families (random
  layered, tiled Cholesky/LU, fork-join, pipelines) for scheduler and
  throughput evaluation beyond the paper's figures

Nothing here runs an experiment: :mod:`repro.campaign.runner` runs every
figure's scenarios, and :mod:`repro.campaign.figures` folds their records.
"""

from . import dag_workloads, kernels, nas, parsec, rsu_experiment

__all__ = ["dag_workloads", "kernels", "nas", "parsec", "rsu_experiment"]
