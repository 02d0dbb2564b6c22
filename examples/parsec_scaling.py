#!/usr/bin/env python
"""OmpSs vs Pthreads scalability on PARSEC models (Section 5 / Figure 5).

Runs the bodytrack and facesim task-graph models in both programming-
model variants across 1-16 simulated cores and prints the scalability
curves, plus the two extra pipeline applications from the ported set.

Run:  python examples/parsec_scaling.py
"""

from repro.campaign import build_preset, run_campaign
from repro.campaign.figures import fig5_curves


def main():
    fig5 = fig5_curves(run_campaign(build_preset("fig5_parsec")).records)
    for app in ("bodytrack", "facesim"):
        print(f"== {app} ==")
        curves = fig5[app]
        print(f"{'threads':>8} {'Pthreads':>9} {'OmpSs':>7}")
        for n in curves["ompss"]:
            bar = int(curves["ompss"][n] * 2.5) * "#"
            print(f"{n:>8} {curves['pthreads'][n]:>8.2f}x "
                  f"{curves['ompss'][n]:>6.2f}x  {bar}")
        print(f"paper: OmpSs reaches "
              f"{'~12x' if app == 'bodytrack' else '~10x'} at 16 cores\n")

    print("== extended sweep: other pipeline-parallel apps of the port ==")
    extended = build_preset(
        "fig5_parsec", apps=("ferret", "streamcluster"), threads=(1, 16)
    )
    for app, curves in fig5_curves(run_campaign(extended).records).items():
        print(f"{app:>14}: Pthreads {curves['pthreads'][16]:5.2f}x   "
              f"OmpSs {curves['ompss'][16]:5.2f}x  at 16 cores")

    print("\nwhy the OmpSs ports win:")
    print("  - per-frame I/O becomes an asynchronous task that dataflow")
    print("    overlaps with the previous frame's computation,")
    print("  - parallel phases decompose into ~4x more tasks than cores,")
    print("    so stragglers stop gating barriers,")
    print("  - serial stages only wait for their own frame's data.")


if __name__ == "__main__":
    main()
