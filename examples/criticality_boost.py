#!/usr/bin/env python
"""Criticality-aware DVFS with the Runtime Support Unit (Section 3.1).

Runs the chain+fillers workload on a simulated 32-core chip twice —
static scheduling at the nominal frequency vs CATS scheduling with the
RSU boosting critical tasks under the chip power budget — and shows the
performance/EDP gains plus the mechanism comparison (software DVFS lock
vs RSU) that motivates Figure 2's hardware support.

Run:  python examples/criticality_boost.py
"""

from repro.apps.kernels import critical_chain_with_fillers
from repro.apps.rsu_experiment import make_section31_machine
from repro.campaign import build_preset, run_campaign
from repro.campaign.figures import fig2_result, fig2_stalls
from repro.core import AnnotatedCriticality, CriticalityAwareScheduler, Runtime
from repro.sim import RsuDvfsController, RsuPolicy, RuntimeSupportUnit


def main():
    print("== Section 3.1: criticality-aware DVFS vs static (32 cores) ==")
    result = fig2_result(run_campaign(build_preset("fig2_rsu")).records)
    print(f"static makespan:  {result.static_makespan:8.2f} s")
    print(f"aware  makespan:  {result.aware_makespan:8.2f} s")
    print(f"performance improvement: {result.performance_improvement:6.1%}"
          f"   (paper: 6.6%)")
    print(f"EDP improvement:         {result.edp_improvement:6.1%}"
          f"   (paper: 20.0%)")

    print("\n== A look at the boosted schedule (8 cores, small workload) ==")
    machine = make_section31_machine(8, budget_factor=1.0)
    rsu = RuntimeSupportUnit(machine, RsuDvfsController(machine),
                             RsuPolicy(efficient_level=1))
    rt = Runtime(machine, scheduler=CriticalityAwareScheduler(),
                 criticality=AnnotatedCriticality({"critical": True}),
                 rsu=rsu)
    rt.submit_all(critical_chain_with_fillers(chain_len=4, n_fillers=24,
                                              jitter=0.3))
    traced = rt.run()
    print(traced.trace.gantt(64))
    boosted = [r for r in traced.trace.records if r.critical]
    print(f"critical tasks ran at "
          f"{max(r.frequency_ghz for r in boosted):.1f} GHz; "
          f"fillers at "
          f"{min(r.frequency_ghz for r in traced.trace.records):.1f} GHz")

    print("\n== Why hardware support: reconfiguration overhead vs cores ==")
    overhead = build_preset("fig2_overhead", core_counts=(4, 8, 16, 32))
    sweep = fig2_stalls(run_campaign(overhead).records)
    print(f"{'cores':>6} {'software (ms)':>15} {'RSU (ms)':>10}")
    for n in sorted(sweep["software"]):
        print(f"{n:>6} {sweep['software'][n] * 1e3:>15.3f} "
              f"{sweep['rsu'][n] * 1e3:>10.4f}")


if __name__ == "__main__":
    main()
