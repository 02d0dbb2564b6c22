"""The campaign runner keeps one worker pool per process.

``run_campaign(workers > 1)`` forks ``min(workers, len(batch))`` workers
on first use and sends every later batch to them while that size fits
(later calls and timeout-retry rounds included), so a worker imports
each family's modules once per process.  These tests pin that lifetime
from the records' ``timing.pid`` and the live children: reuse across
calls, replacement on another ``workers`` value, a pool sized by a
small batch, a fresh pool after an abandoned call, every batch on the
pool (a one-scenario batch included), a forked child's own pool, and a
clean interpreter exit that leaves no worker behind.

Each test starts and ends with the pool shut down, so none depends on
which earlier test forked it.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import Matrix, Scenario, run_campaign
from repro.campaign import runner
from repro.campaign.store import canonical_line

REPO_ROOT = Path(__file__).resolve().parents[1]


def scenarios(n, seed0=0):
    return tuple(
        Scenario("layered", scheduler="fifo", n_cores=4, scale=1, seed=seed0 + i)
        for i in range(n)
    )


def pids(summary):
    return {r["timing"]["pid"] for r in summary.records}


def live_children():
    return {p.pid for p in multiprocessing.active_children()}


@pytest.fixture(autouse=True)
def no_pool():
    runner._close_pool()
    yield
    runner._close_pool()


def test_consecutive_calls_share_one_pool():
    first = run_campaign(Matrix("pool", scenarios(8)), workers=2)
    second = run_campaign(Matrix("pool", scenarios(8, seed0=8)), workers=2)
    assert first.n_ok == second.n_ok == 8
    kept = pids(first) | pids(second)
    assert len(kept) <= 2
    assert os.getpid() not in kept
    # Another size replaces the pool: three new workers.
    third = run_campaign(Matrix("pool", scenarios(8)), workers=3)
    assert third.n_ok == 8
    assert not pids(third) & kept
    assert os.getpid() not in pids(third)


def test_pool_is_sized_by_a_small_batch_and_kept_while_it_fits():
    """Fewer scenarios than ``workers`` fork only as many workers as there
    are scenarios; a larger batch replaces that pool, a smaller one (a
    retry round's shape) runs on it, and a smaller ``workers`` value
    replaces it again: never more than ``workers`` processes."""
    before = live_children()
    small = run_campaign(Matrix("pool", scenarios(3)), workers=8)
    assert small.n_ok == 3
    assert len(live_children() - before) == 3
    full = run_campaign(Matrix("pool", scenarios(8, seed0=3)), workers=8)
    assert full.n_ok == 8
    kept = live_children() - before
    assert len(kept) == 8
    assert not kept & pids(small)
    one = run_campaign(Matrix("pool", scenarios(1, seed0=11)), workers=8)
    assert pids(one) <= kept
    assert live_children() - before == kept
    narrow = run_campaign(Matrix("pool", scenarios(4, seed0=12)), workers=2)
    assert narrow.n_ok == 4
    assert pids(narrow) <= live_children() - before
    assert len(live_children() - before) == 2
    assert not pids(narrow) & kept


def test_one_scenario_batch_runs_on_the_pool():
    summary = run_campaign(Matrix("one", scenarios(1)), workers=2)
    assert summary.n_ok == 1
    assert summary.records[0]["timing"]["pid"] != os.getpid()


@pytest.mark.parametrize("stop", [RuntimeError, KeyboardInterrupt])
def test_abandoned_call_leaves_no_stale_tasks(stop):
    """A consumer that stops at the first record leaves the rest of its
    batch queued; the next call must run on a fresh pool, not behind
    them."""
    warm = run_campaign(Matrix("pool", scenarios(8, seed0=100)), workers=2)
    abandoned = set(pids(warm))

    def progress(record):
        abandoned.add(record["timing"]["pid"])
        raise stop("consumer stopped")

    matrix = Matrix("pool", scenarios(8))
    with pytest.raises(stop):
        run_campaign(matrix, workers=2, progress=progress)
    after = run_campaign(matrix, workers=2)
    assert after.n_ok == 8
    assert not pids(after) & abandoned
    serial = run_campaign(matrix, workers=1)
    assert sorted(map(canonical_line, after.records)) == sorted(
        map(canonical_line, serial.records)
    )


def _child_campaign(queue):
    summary = run_campaign(Matrix("child", scenarios(4)), workers=2)
    queue.put((os.getpid(), sorted(pids(summary)), summary.n_ok))


# The fork under test runs while the parent's pool threads are alive, which
# Python 3.12+ reports for any fork.
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_forks_its_own_pool():
    """A forked child inherits the parent's pool object but none of its
    handler threads: it must fork its own workers, never queue on the
    parent's."""
    parent_pool = pids(run_campaign(Matrix("pool", scenarios(4)), workers=2))
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_child_campaign, args=(queue,))
    child.start()
    try:
        child_pid, child_pool, n_ok = queue.get(timeout=120)
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert n_ok == 4
    assert child_pid not in child_pool
    assert not set(child_pool) & parent_pool


def test_interpreter_exit_is_clean_and_reaps_the_workers():
    """The kept pool is shut down at exit: nothing on stderr, not even
    with ResourceWarnings shown (``Pool.__del__`` warns about a pool
    still running at teardown, and whether its follow-up put then fails
    depends on module teardown order), and no worker outlives the
    process."""
    script = (
        "import json, os\n"
        "from repro.campaign import Matrix, Scenario, run_campaign\n"
        "matrix = Matrix('exit', tuple(Scenario('layered', scheduler='fifo',"
        " n_cores=4, scale=1, seed=s) for s in range(6)))\n"
        "summary = run_campaign(matrix, workers=2)\n"
        "assert summary.n_ok == 6\n"
        "workers = sorted({r['timing']['pid'] for r in summary.records})\n"
        "print(json.dumps({'pid': os.getpid(), 'workers': workers}))\n"
    )
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "always::ResourceWarning", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    out = json.loads(proc.stdout)
    assert out["workers"] and out["pid"] not in out["workers"]
    for pid in out["workers"]:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
