"""The six examples print exactly their checked-in output.

Each ``examples/*.py`` runs in a fresh interpreter with ``src/`` on the
path, and its stdout must equal ``tests/example_output/<name>.txt`` byte
for byte.  The examples are deterministic, and between them they print
the paper-vs-measured figure numbers, two Gantt charts, trace
frequencies and ``utilisation``: a change that moves any simulated
number, or a trace's record content, fails here by example name.

A deliberate change to an example's output regenerates its file with
``PYTHONPATH=src python examples/<name>.py > tests/example_output/<name>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))
EXPECTED = REPO_ROOT / "tests" / "example_output"


def test_every_example_has_a_pinned_output():
    assert sorted(p.stem for p in EXAMPLES) == sorted(
        p.stem for p in EXPECTED.glob("*.txt")
    )


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.stem)
def test_example_prints_its_pinned_output(example):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(example)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    want = (EXPECTED / f"{example.stem}.txt").read_text(encoding="utf-8")
    assert proc.stdout == want
