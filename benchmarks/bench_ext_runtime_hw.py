"""Extension experiments (E8 in README's figure table): the co-design
agenda beyond the paper's own figures.

1. **Hardware TDG construction** — the paper's Section 1 names *"the
   construction of the TDG"* as an activity the architecture should
   support (Etsion et al.'s task superscalar, ref [9]).  The experiment:
   the same total work, split into ever finer tasks, under software vs
   hardware dependence registration.  Software submission serialises on
   the master thread and collapses at fine granularity; the hardware unit
   sustains it.

2. **Runtime-guided prefetching** — Section 6 folds runtime-driven
   prefetching (refs [4, 18]) into the RAA vision.  The experiment:
   memory-bound task pipelines with and without the runtime staging
   ready tasks' inputs ahead of dispatch.
"""

import pytest

from repro.core import Runtime, RuntimePrefetcher, Task
from repro.sim import Machine, granularity_sweep

from conftest import banner, table

GRAINS = (64, 1024, 8192)


@pytest.fixture(scope="module")
def sweep():
    return granularity_sweep(total_work_cycles=5e7, grains=GRAINS, n_cores=16)


def test_ext_hardware_tdg_construction(benchmark, sweep):
    benchmark.pedantic(
        granularity_sweep,
        kwargs=dict(total_work_cycles=5e7, grains=(64, 512), n_cores=8),
        rounds=1,
        iterations=1,
    )

    banner("E8a — TDG-construction support: parallel efficiency vs grain")
    rows = []
    for n_tasks in GRAINS:
        rows.append(
            [
                n_tasks,
                f"{sweep['software'][n_tasks]:.3f}",
                f"{sweep['software-indexed'][n_tasks]:.3f}",
                f"{sweep['hardware'][n_tasks]:.3f}",
            ]
        )
    table(
        ["tasks", "software runtime", "indexed software", "hardware task unit"],
        rows,
    )

    sw, ix, hw = sweep["software"], sweep["software-indexed"], sweep["hardware"]
    assert sw[64] > 0.9 and ix[64] > 0.9 and hw[64] > 0.9
    assert hw[GRAINS[-1]] > 0.85  # hardware sustains fine grain
    assert sw[GRAINS[-1]] < 0.6  # software master thread saturates
    # The interval index buys software tracking part of the gap — never
    # all of it: still a serial master thread underneath.
    for g in GRAINS:
        assert sw[g] <= ix[g] + 1e-9
        assert ix[g] <= hw[g] + 1e-9
    assert ix[GRAINS[-1]] < 0.6
    # Efficiency is monotone-decreasing in grain for the software path.
    effs = [sw[g] for g in GRAINS]
    assert effs == sorted(effs, reverse=True)


def _pipeline_makespan(prefetcher, n_tasks=160, n_cores=4):
    machine = Machine(n_cores, initial_level=2)
    rt = Runtime(machine, prefetcher=prefetcher, record_trace=False)
    for i in range(n_tasks):
        rt.submit(
            Task.make(
                f"t{i}", cpu_cycles=2e6, mem_seconds=2e-3,
                in_=[("stream", i, i + 1)],
            )
        )
    return rt.run().makespan


def test_ext_runtime_guided_prefetch(benchmark):
    base = _pipeline_makespan(None)
    pf = _pipeline_makespan(RuntimePrefetcher(lead_seconds=1e-3,
                                              max_hidden_fraction=0.8))
    benchmark.pedantic(
        _pipeline_makespan, args=(None,), kwargs=dict(n_tasks=40),
        rounds=1, iterations=1,
    )

    banner("E8b — runtime-guided prefetching (memory-bound task stream)")
    table(
        ["config", "makespan (ms)", "speedup"],
        [
            ["demand fetching", f"{base * 1e3:.2f}", "1.00x"],
            ["runtime prefetch", f"{pf * 1e3:.2f}", f"{base / pf:.2f}x"],
        ],
    )
    # Memory time of queued tasks is mostly hidden.
    assert pf < 0.55 * base
