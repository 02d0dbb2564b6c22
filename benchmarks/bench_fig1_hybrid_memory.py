"""Figure 1: hybrid SPM+cache hierarchy vs cache-only on a 64-core chip.

Paper: *"the proposed system achieves significant speedups in terms of
performance, energy and NoC traffic for several NAS benchmarks.  Average
improvements reach 14.7%, 18.5% and 31.2%, respectively. [...] Even for
benchmarks with minimal accesses to the SPM (as in the case of EP),
performance, energy consumption and NoC traffic are not degraded."*

Times one run of the ``fig1_hybrid`` campaign preset (one record per
benchmark × hierarchy mode) and prints the bars that
:func:`repro.campaign.figures.fig1_speedups` folds from its records.
The paper bands are asserted in tier-1, on the checked-in baseline
(``tests/test_campaign_figures.py``).
"""

from repro.campaign import build_preset, run_campaign
from repro.campaign.figures import fig1_speedups

from conftest import banner, table

PAPER_AVG = {"time": 1.147, "energy": 1.185, "noc": 1.312}


def test_fig1_hybrid_memory(benchmark):
    matrix = build_preset("fig1_hybrid")
    summary = benchmark.pedantic(
        run_campaign, args=(matrix,), rounds=1, iterations=1
    )
    speedups = fig1_speedups(summary.records)

    banner(
        f"Figure 1 — hybrid memory hierarchy speedups over cache-only "
        f"({matrix.scenarios[0].n_cores} cores)"
    )
    rows = [
        [b, f"{v['time']:.3f}", f"{v['energy']:.3f}", f"{v['noc']:.3f}"]
        for b, v in speedups.items()
    ]
    rows.append(
        ["paper AVG", f"{PAPER_AVG['time']:.3f}", f"{PAPER_AVG['energy']:.3f}",
         f"{PAPER_AVG['noc']:.3f}"]
    )
    table(["benchmark", "exec time", "energy", "NoC traffic"], rows)
