"""Shared helpers for the figure-regeneration benchmarks.

Every ``bench_*.py`` file in this directory regenerates one exhibit of
the paper's evaluation.  Runs are deterministic simulations, so each
benchmark uses a single round (``benchmark.pedantic(..., rounds=1)``) —
the interesting output is the printed paper-vs-measured table, not timing
variance.

pytest collects ``bench_*.py`` only when named, so run them with::

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py -s
"""

from __future__ import annotations


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def table(headers, rows) -> None:
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
