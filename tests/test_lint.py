"""Tier-1 gate for ``repro.lint`` plus per-rule fixture coverage.

Two jobs:

1. ``src/repro`` must lint clean (zero findings, zero parse errors) with
   zero suppression comments anywhere in ``repro.core`` — the linter's
   contract with the rest of the suite.
2. Every rule must provably fire on its known-bad fixture (including the
   PR 1 ``scheduler or FifoScheduler()`` regression, pinned verbatim) and
   stay silent on the known-good twin.
"""

import pickle
from array import array
from pathlib import Path

import pytest

from repro.core.graph import TaskGraph
from repro.core.task import Region, Task
from repro.lint import RULES, run_lint
from repro.lint.cli import main as lint_main
from repro.lint.findings import Finding, collect_suppressions

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
FIXTURES = REPO / "tests" / "lint_fixtures"


def rules_hit(paths):
    result = run_lint([str(p) for p in paths])
    assert not result.errors, result.errors
    return result


# ----------------------------------------------------------------------
# the tier-1 contract: the shipped tree is clean
# ----------------------------------------------------------------------
class TestSourceTreeClean:
    def test_src_lints_clean(self):
        result = run_lint([str(SRC)])
        assert not result.errors, result.errors
        assert result.findings == [], "\n".join(
            f.format_text() for f in result.findings
        )
        assert result.files_scanned > 50

    def test_zero_suppressions_in_core(self):
        for path in sorted((SRC / "core").rglob("*.py")):
            suppressions = collect_suppressions(path.read_text(encoding="utf-8"))
            assert not suppressions, f"suppression comment in {path}"


# ----------------------------------------------------------------------
# per-rule fixtures: bad fires, good stays silent
# ----------------------------------------------------------------------
FIXTURE_CASES = [
    ("RL001", FIXTURES / "rl001_bad.py", FIXTURES / "rl001_good.py"),
    ("RL002", FIXTURES / "rl002_bad.py", FIXTURES / "rl002_good.py"),
    (
        "RL002",
        FIXTURES / "repro" / "core" / "rl002_sink_bad.py",
        FIXTURES / "repro" / "core" / "rl002_sink_good.py",
    ),
    # Wall-clock whitelist seam: a clock read anywhere in repro/obs/
    # except timing.py itself trips; timing.py (the whitelisted suffix)
    # is silent.
    (
        "RL002",
        FIXTURES / "repro" / "obs" / "rl002_wallclock_bad.py",
        FIXTURES / "repro" / "obs" / "timing.py",
    ),
    ("RL003", FIXTURES / "rl003_bad.py", FIXTURES / "rl003_good.py"),
    ("RL004", FIXTURES / "rl004_bad.py", FIXTURES / "rl004_good.py"),
    ("RL005", FIXTURES / "rl005_bad.py", FIXTURES / "rl005_good.py"),
    ("RL005", FIXTURES / "repro" / "campaign" / "rl005_record_bad.py", None),
]


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "rule,bad,good", FIXTURE_CASES,
        ids=[f"{r}-{b.stem}" for r, b, _ in FIXTURE_CASES],
    )
    def test_bad_fixture_caught(self, rule, bad, good):
        result = rules_hit([bad])
        hit = {f.rule for f in result.findings}
        assert rule in hit, f"{bad.name} produced {hit or 'no findings'}"
        # Bad fixtures are single-purpose: no *other* rule fires.
        assert hit == {rule}, "\n".join(f.format_text() for f in result.findings)

    @pytest.mark.parametrize(
        "rule,bad,good",
        [c for c in FIXTURE_CASES if c[2] is not None],
        ids=[f"{r}-{g.stem}" for r, _, g in FIXTURE_CASES if g is not None],
    )
    def test_good_fixture_silent(self, rule, bad, good):
        result = rules_hit([good])
        assert result.findings == [], "\n".join(
            f.format_text() for f in result.findings
        )

    def test_every_rule_has_a_bad_fixture(self):
        covered = {rule for rule, _, _ in FIXTURE_CASES}
        assert covered == set(RULES)

    def test_fifo_regression_pinned(self):
        """The PR 1 bug, verbatim, is caught by RL001 at the exact line."""
        bad = FIXTURES / "rl001_bad.py"
        source = bad.read_text(encoding="utf-8").splitlines()
        bug_line = next(
            i + 1
            for i, line in enumerate(source)
            if "scheduler or FifoScheduler()" in line
        )
        result = rules_hit([bad])
        assert any(
            f.rule == "RL001" and f.line == bug_line for f in result.findings
        ), "\n".join(f.format_text() for f in result.findings)


# ----------------------------------------------------------------------
# suppression comments
# ----------------------------------------------------------------------
class TestSuppression:
    def test_trailing_disable_comment(self, tmp_path):
        f = tmp_path / "suppressed.py"
        f.write_text(
            "from typing import Optional\n"
            "\n"
            "def pick(xs: Optional[list]) -> list:\n"
            "    return xs or []  # repro-lint: disable=RL001\n",
            encoding="utf-8",
        )
        result = run_lint([str(f)])
        assert result.findings == []
        assert [s.rule for s in result.suppressed] == ["RL001"]

    def test_disable_all(self, tmp_path):
        f = tmp_path / "suppressed.py"
        f.write_text(
            "from typing import Optional\n"
            "\n"
            "def pick(xs: Optional[list]) -> list:\n"
            "    return xs or []  # repro-lint: disable=all\n",
            encoding="utf-8",
        )
        result = run_lint([str(f)])
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_marker_in_string_does_not_suppress(self, tmp_path):
        f = tmp_path / "unsuppressed.py"
        f.write_text(
            "from typing import Optional\n"
            "\n"
            "def pick(xs: Optional[list]) -> list:\n"
            '    marker = "# repro-lint: disable=RL001"\n'
            "    return xs or [marker]\n",
            encoding="utf-8",
        )
        result = run_lint([str(f)])
        assert [f_.rule for f_ in result.findings] == ["RL001"]

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        f = tmp_path / "wrong.py"
        f.write_text(
            "from typing import Optional\n"
            "\n"
            "def pick(xs: Optional[list]) -> list:\n"
            "    return xs or []  # repro-lint: disable=RL999\n",
            encoding="utf-8",
        )
        result = run_lint([str(f)])
        assert [f_.rule for f_ in result.findings] == ["RL001"]


# ----------------------------------------------------------------------
# CLI + output formats
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_one_on_findings(self, capsys):
        assert lint_main([str(FIXTURES / "rl001_bad.py")]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out

    def test_report_only_exits_zero(self, capsys):
        assert lint_main([str(FIXTURES / "rl001_bad.py"), "--report-only"]) == 0

    def test_exit_zero_on_clean(self, capsys):
        assert lint_main([str(FIXTURES / "rl001_good.py")]) == 0

    def test_rule_selection(self, capsys):
        assert (
            lint_main([str(FIXTURES / "rl001_bad.py"), "--rules", "RL002"]) == 0
        )

    def test_unknown_rule_rejected(self, capsys):
        assert lint_main(["--rules", "RL999", str(FIXTURES)]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_github_format(self, capsys):
        assert (
            lint_main([str(FIXTURES / "rl001_bad.py"), "--format", "github"]) == 1
        )
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=RL001" in out

    def test_github_escaping(self):
        f = Finding("RL001", "x.py", 3, 1, "100% bad\nsecond line")
        rendered = f.format_github()
        assert "%25" in rendered and "%0A" in rendered
        assert "\n" not in rendered


# ----------------------------------------------------------------------
# the invariants the rules encode, checked dynamically too
# ----------------------------------------------------------------------
class TestInvariantContracts:
    def test_manifest_matches_graph_arrays(self):
        g = TaskGraph()
        for name in TaskGraph._ARRAY_MANIFEST:
            assert isinstance(getattr(g, name), (list, array)), name
        g.add_task(Task.make(label="a"))
        g.add_task(Task.make(label="b"))
        lengths = {name: len(getattr(g, name)) for name in TaskGraph._ARRAY_MANIFEST}
        assert set(lengths.values()) == {2}, lengths

    def test_region_pickle_excludes_cache_slots(self):
        """A region is its three fields: no slot can hold cache state,
        and the pickle carries the value only."""
        r = Region("x", 0, 64)
        assert Region.__slots__ == ("name", "start", "stop")
        with pytest.raises(AttributeError):
            object.__setattr__(r, "_hist", {"poison": True})
        data = pickle.dumps(r)
        clone = pickle.loads(data)
        assert clone == r
        assert hash(clone) == hash(r)
        assert b"poison" not in data and b"_hist" not in data
