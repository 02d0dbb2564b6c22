"""repro.campaign — parallel, sharded experiment campaigns.

The paper's claims are comparative: a scheduler policy, an RSU boosting
mode or a memory configuration only means something *against* the
alternatives, swept across workloads and machine sizes.  This package
turns those sweeps from hand-rolled serial loops into declarative,
resumable campaigns:

* :mod:`~repro.campaign.matrix` — ``Scenario``/``Matrix``: the axes of
  one experiment (workload family × scheduler × RSU mode × cores ×
  scale × seed, plus free-form params), content-hashed for caching, with
  filters and deterministic round-robin sharding.
* :mod:`~repro.campaign.presets` — named matrices for each paper figure
  and ROADMAP sweep (``python -m repro.campaign list-presets`` prints
  them; docs/campaign.md describes each).
* :mod:`~repro.campaign.runner` — executes a matrix serially (the
  debugging path) or on a ``multiprocessing`` pool.  Each scenario is
  seeded from its own axes, so records are identical for any worker
  count; a failing scenario yields an ``error`` record instead of
  killing the campaign.
* :mod:`~repro.campaign.store` — append-only JSONL result store.
  Rerunning a campaign against an existing store skips scenarios whose
  ok-records already exist (resume) and retries errored ones; a
  truncated trailing line from a killed run is ignored and rewritten.
* :mod:`~repro.campaign.report` — pivot-table summaries (markdown/CSV)
  and ``compare``: diff two stores and flag metric regressions beyond a
  tolerance — the gate for perf PRs and CI.
* :mod:`~repro.campaign.figures` — one pure fold per paper figure from
  its preset's records to the figure's numbers (Figs 1, 2 and 5).

Command line
------------
::

    python -m repro.campaign list-presets
    python -m repro.campaign run --preset smoke --workers 4 --store out.jsonl
    python -m repro.campaign run --preset scheduler_matrix --shard 0/4 ...
    python -m repro.campaign report --store out.jsonl --metric makespan \\
        --rows family --cols scheduler --format md
    python -m repro.campaign compare baseline.jsonl candidate.jsonl \\
        --tolerance 0.02

JSONL record schema (v1)
------------------------
One record per scenario; everything outside the ``timing`` block is a
deterministic function of the scenario axes and the code revision::

    {"id": "<sha256[:12] of the axes>",
     "scenario": {"family": ..., "scheduler": ..., "rsu": ...,
                  "n_cores": ..., "scale": ..., "seed": ..., "params": {}},
     "status": "ok" | "error",
     "metrics": {"makespan": s, "energy_j": J, "edp": J*s, "n_tasks": n},
     "stats":   {"<StatSet counter>": value, ...},
     "error":   null | {"type": ..., "message": ...},
     "meta":    {"schema": 1, "campaign": ..., "git_rev": ...},
     "timing":  {"wall_s": ..., "build_s": ..., "sim_s": ...,
                 "tasks_per_sec": ...,  # n_tasks / sim_s: the tracked
                                        # kernel-throughput number
                 "host": ..., "pid": ..., "unix_ts": ...}}
"""

from .matrix import Matrix, Scenario
from .presets import PRESETS, build_preset, preset_names
from .report import CompareResult, compare_stores, render_table, summarize
from .runner import RunSummary, run_campaign, run_scenario
from .store import MergeResult, ResultStore, canonical_line, merge_stores

__all__ = [
    "Matrix",
    "Scenario",
    "PRESETS",
    "build_preset",
    "preset_names",
    "CompareResult",
    "compare_stores",
    "render_table",
    "summarize",
    "RunSummary",
    "run_campaign",
    "run_scenario",
    "MergeResult",
    "ResultStore",
    "canonical_line",
    "merge_stores",
]
