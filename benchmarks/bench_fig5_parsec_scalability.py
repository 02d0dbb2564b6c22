"""Figure 5: OmpSs vs Pthreads scalability (bodytrack, facesim).

Paper: *"Figure 5 shows the scalability comparison between OmpSs and
Pthreads versions for bodytrack and facesim on a 16-core machine.  Both
applications improve significantly their scalability over the original
code, reaching a scaling factor of 12 and 10, respectively, when running
with 16 cores."*

Times one run of the ``fig5_parsec`` campaign preset (app × variant ×
thread count) and prints the speedup curves that
:func:`repro.campaign.figures.fig5_curves` folds from its records, so
this bench and ``python -m repro.campaign run --preset fig5_parsec``
measure exactly the same simulations.  The paper bands are asserted in
tier-1, on the checked-in baseline (``tests/test_campaign_figures.py``).
"""

from repro.campaign import build_preset, run_campaign
from repro.campaign.figures import fig5_curves

from conftest import banner, table

PAPER_AT_16 = {"bodytrack": 12.0, "facesim": 10.0}


def test_fig5_parsec_scalability(benchmark):
    summary = benchmark.pedantic(
        run_campaign, args=(build_preset("fig5_parsec"),),
        rounds=1, iterations=1,
    )

    for app, data in fig5_curves(summary.records).items():
        banner(f"Figure 5 — {app}: speedup vs threads")
        rows = []
        for n in data["ompss"]:
            rows.append(
                [
                    n,
                    f"{data['pthreads'][n]:.2f}x",
                    f"{data['ompss'][n]:.2f}x",
                    f"{PAPER_AT_16[app]:.0f}x" if n == 16 else "",
                ]
            )
        table(["threads", "Original (Pthreads)", "OmpSs",
               "paper OmpSs @16"], rows)
