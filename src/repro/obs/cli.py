"""``python -m repro.obs`` — observability command line.

Currently one subcommand:

``export-trace``
    Run a workload family under an enabled metrics registry, then write
    a Chrome-trace / Perfetto JSON file fusing the run's task trace,
    runtime phase spans, and counter series.  With ``--prune-every`` the
    trace holds the tasks whose handles the graph still holds; the
    released ones are counted in the ``skipped_released`` metadata.
    Open the output at https://ui.perfetto.dev or ``chrome://tracing``.

Example::

    PYTHONPATH=src python -m repro.obs export-trace \\
        --family cholesky --scale 1 --cores 8 --out trace.json
"""

from __future__ import annotations

import argparse
from typing import List, Optional

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability utilities (metrics + Perfetto export).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    export = sub.add_parser(
        "export-trace",
        help="run a workload and export a Chrome-trace/Perfetto JSON file",
    )
    export.add_argument("--family", default="cholesky", help="workload family")
    export.add_argument("--scale", type=int, default=1, help="workload scale")
    export.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    export.add_argument("--cores", type=int, default=8, help="simulated cores")
    export.add_argument(
        "--prune-every",
        type=int,
        default=0,
        help="streaming watermark prune period (0 = off)",
    )
    export.add_argument("--out", default="trace.json", help="output JSON path")
    return parser


def _cmd_export_trace(args: argparse.Namespace) -> int:
    # Heavy imports stay inside the command so `import repro.obs.cli`
    # (and --help) never pull in the whole runtime stack.
    from ..apps.dag_workloads import make_workload
    from ..core.runtime import Runtime
    from ..core.schedulers import FifoScheduler
    from ..sim.machine import Machine
    from .metrics import MetricsRegistry
    from .trace_export import export_chrome_trace

    registry = MetricsRegistry()
    tasks = make_workload(args.family, scale=args.scale, seed=args.seed)
    machine = Machine(args.cores, initial_level=2)
    rt = Runtime(
        machine,
        scheduler=FifoScheduler(),
        record_trace=True,
        prune_every=args.prune_every,
        obs=registry,
    )
    rt.submit_all(tasks)
    result = rt.run()
    envelope = export_chrome_trace(
        args.out,
        trace=result.trace,
        registry=registry,
        metadata={
            "family": args.family,
            "scale": args.scale,
            "seed": args.seed,
            "n_cores": args.cores,
        },
    )
    print(
        f"wrote {args.out}: {len(envelope['traceEvents'])} events, "
        f"{len(tasks)} tasks, makespan {result.makespan:.6g}s "
        f"(open at https://ui.perfetto.dev)"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "export-trace":
        return _cmd_export_trace(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
