"""``python -m repro.campaign`` — run/report/compare/merge/list-presets.

Exit codes: 0 on success; 1 when ``run`` produced error records,
``compare`` found regressions/mismatches, or ``merge --strict`` found
conflicting duplicate records; 2 on usage errors (argparse).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from .presets import PRESETS, build_preset
from .report import compare_stores, render_table, summarize, summarize_obs
from .runner import run_campaign
from .store import ResultStore, merge_stores

__all__ = ["main"]


def _parse_shard(text: str) -> Tuple[int, int]:
    try:
        index, count = (int(part) for part in text.split("/"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard must look like 'i/n' (e.g. 0/4), got {text!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"shard index must satisfy 0 <= i < n, got {text!r}"
        )
    return index, count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Parallel, sharded experiment campaigns over the "
        "repro simulator, with a JSONL result store and regression gating.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a preset matrix")
    run.add_argument("--preset", required=True, choices=sorted(PRESETS))
    run.add_argument(
        "--store", default=None,
        help="JSONL result store path (enables resume); omit for a dry "
        "in-memory run",
    )
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes (1 = serial debugging path)")
    run.add_argument("--shard", type=_parse_shard, default=(0, 1),
                     metavar="I/N", help="run only round-robin shard I of N")
    run.add_argument("--no-resume", action="store_true",
                     help="rerun scenarios even if the store has records")
    run.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-scenario wall-clock budget: a scenario that exceeds it "
        "is interrupted and retried once; a second timeout becomes an "
        "error record with reason 'timeout' (default: no limit)",
    )
    run.add_argument(
        "--obs", action="store_true",
        help="collect observability metrics (phase spans, runtime "
        "counters) into each record's 'obs' key; canonical record "
        "content is unchanged",
    )
    run.add_argument("--quiet", action="store_true")

    report = sub.add_parser("report", help="summarise a result store")
    report.add_argument("--store", required=True)
    report.add_argument("--metric", default="makespan",
                        help="metric (or timing field, e.g. tasks_per_sec)")
    report.add_argument("--rows", default="family")
    report.add_argument("--cols", default="scheduler")
    report.add_argument("--reduce", default="mean",
                        choices=("mean", "geomean", "sum"))
    report.add_argument("--format", default="md", choices=("md", "csv"))
    report.add_argument(
        "--metrics", action="store_true",
        help="pivot the records' observability ('obs') blocks instead of "
        "a simulated metric: one row per counter/timer/span/gauge, one "
        "column per --cols axis value (requires a store produced with "
        "run --obs)",
    )
    report.add_argument("--out", default=None,
                        help="write to a file instead of stdout")

    compare = sub.add_parser(
        "compare", help="diff two stores and flag metric regressions"
    )
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    compare.add_argument("--tolerance", type=float, default=0.01,
                         help="relative worsening tolerated (default 1%%)")

    merge = sub.add_parser(
        "merge",
        help="concatenate shard stores into one, dedup by scenario hash",
    )
    merge.add_argument("inputs", nargs="+", metavar="STORE",
                       help="shard stores, in priority order (first wins)")
    merge.add_argument("--out", required=True,
                       help="merged store to write (must not exist)")
    merge.add_argument("--force", action="store_true",
                       help="overwrite an existing --out store")
    merge.add_argument(
        "--strict", action="store_true",
        help="exit 1 when duplicate ok-records disagree (code-revision "
        "drift between shards)",
    )

    sub.add_parser("list-presets", help="show the preset registry")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    matrix = build_preset(args.preset)
    store = ResultStore(args.store) if args.store else None

    def progress(record: dict) -> None:
        status = record["status"]
        scen = record["scenario"]
        line = (
            f"[{status}] {record['id']} {scen['family']} "
            f"{scen['scheduler']} rsu={scen['rsu']} c{scen['n_cores']} "
            f"x{scen['scale']}"
        )
        if status == "error":
            line += f" :: {record['error']['type']}: {record['error']['message']}"
        print(line, flush=True)

    summary = run_campaign(
        matrix,
        store=store,
        workers=args.workers,
        resume=not args.no_resume,
        shard=args.shard,
        progress=None if args.quiet else progress,
        obs=args.obs,
        timeout_s=args.timeout,
    )
    print(summary.describe())
    return 1 if summary.n_errors else 0


def _existing_store(path: str) -> ResultStore:
    """A store that must already exist on disk — report/compare read
    stores, they never create them, and a typo'd path must not silently
    gate against an empty baseline."""
    if not os.path.exists(path):
        raise SystemExit(f"error: result store {path!r} does not exist")
    return ResultStore(path)


def _cmd_report(args: argparse.Namespace) -> int:
    store = _existing_store(args.store)
    if args.metrics:
        try:
            headers, body = summarize_obs(store.records(), cols=args.cols)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
    else:
        headers, body = summarize(
            store.records(),
            rows=args.rows,
            cols=args.cols,
            metric=args.metric,
            reduce=args.reduce,
        )
    text = render_table(headers, body, fmt=args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    baseline = _existing_store(args.baseline)
    if len(baseline) == 0:
        raise SystemExit(
            f"error: baseline store {args.baseline!r} holds no records"
        )
    result = compare_stores(
        baseline,
        _existing_store(args.candidate),
        tolerance=args.tolerance,
    )
    print(result.describe())
    return 0 if result.ok else 1


def _cmd_merge(args: argparse.Namespace) -> int:
    inputs = [_existing_store(path) for path in args.inputs]
    if os.path.exists(args.out) and not args.force:
        raise SystemExit(
            f"error: merged store {args.out!r} already exists "
            "(use --force to overwrite)"
        )
    # Load every input BEFORE touching --out: stores read lazily, and
    # with --force the output may itself be one of the inputs (an
    # in-place consolidation).  Writing to a sibling temp file and
    # os.replace-ing makes the merge atomic — a crash mid-write never
    # costs a shard its only on-disk copy.
    for store in inputs:
        store.load()
    tmp = args.out + ".merging"
    if os.path.exists(tmp):
        os.remove(tmp)
    result = merge_stores(inputs, ResultStore(tmp))
    os.replace(tmp, args.out)
    print(result.describe())
    return 1 if (args.strict and result.conflicts) else 0


def _cmd_list_presets() -> int:
    width = max(map(len, PRESETS))
    for name in sorted(PRESETS):
        description, factory = PRESETS[name]
        print(f"{name:{width}s} {len(factory()):4d} scenarios  {description}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "merge":
        return _cmd_merge(args)
    return _cmd_list_presets()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
