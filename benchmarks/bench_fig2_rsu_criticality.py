"""Figure 2 / Section 3.1: criticality-aware DVFS through the RSU.

Paper: *"task criticality can be simply annotated by the programmer and
exploited to reconfigure the hardware by using DVFS, achieving
improvements over static scheduling approaches that reach 6.6% and 20.0%
in terms of performance and EDP on a simulated 32-core processor"*, and
*"the cost of reconfiguring the hardware with a software-only solution
rises with the number of cores due to locks contention and
reconfiguration overhead"*.

Each test times one run of a campaign preset (``fig2_rsu``,
``fig2_overhead``) and prints the table that
:func:`repro.campaign.figures.fig2_result` or
:func:`~repro.campaign.figures.fig2_stalls` folds from its records: the
same records ``python -m repro.campaign run --preset fig2_rsu`` persists
to a result store.  The paper bands are asserted in tier-1, on the
checked-in baselines (``tests/test_campaign_figures.py``).
"""

from repro.campaign import build_preset, run_campaign
from repro.campaign.figures import fig2_result, fig2_stalls

from conftest import banner, table

PAPER_PERF = 0.066
PAPER_EDP = 0.200


def test_fig2_criticality_aware_dvfs(benchmark):
    summary = benchmark.pedantic(
        run_campaign, args=(build_preset("fig2_rsu"),), rounds=1, iterations=1
    )
    result = fig2_result(summary.records)

    banner("Section 3.1 — criticality-aware DVFS vs static (32 cores)")
    table(
        ["metric", "measured", "paper"],
        [
            ["performance improvement",
             f"{result.performance_improvement:.1%}", f"{PAPER_PERF:.1%}"],
            ["EDP improvement",
             f"{result.edp_improvement:.1%}", f"{PAPER_EDP:.1%}"],
            ["static makespan (s)", f"{result.static_makespan:.2f}", "-"],
            ["aware makespan (s)", f"{result.aware_makespan:.2f}", "-"],
        ],
    )


def test_fig2_reconfiguration_overhead(benchmark):
    summary = benchmark.pedantic(
        run_campaign, args=(build_preset("fig2_overhead"),),
        rounds=1, iterations=1,
    )
    sweep = fig2_stalls(summary.records)

    banner("Figure 2 motivation — DVFS reconfiguration overhead vs cores")
    table(
        ["cores", "software stall (ms)", "RSU stall (ms)", "ratio"],
        [
            [
                n,
                f"{sweep['software'][n] * 1e3:.3f}",
                f"{sweep['rsu'][n] * 1e3:.4f}",
                f"{sweep['software'][n] / max(sweep['rsu'][n], 1e-12):.0f}x",
            ]
            for n in sweep["software"]
        ],
    )
