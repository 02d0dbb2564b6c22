"""Unit tests for the repro.campaign subsystem (matrix/store/report/CLI)."""

import json
import math

import pytest

from repro.campaign import (
    Matrix,
    Scenario,
    ResultStore,
    build_preset,
    canonical_line,
    compare_stores,
    preset_names,
    render_table,
    run_campaign,
    run_scenario,
    summarize,
)
from repro.campaign.cli import main as cli_main
from repro.campaign.presets import ALL_SCHEDULERS, DAG_FAMILIES, PRESETS


def tiny_matrix(name="tiny"):
    """Three fast scenarios (sub-second total)."""
    return Matrix(
        name,
        (
            Scenario("layered", scheduler="fifo", n_cores=4, seed=1),
            Scenario("layered", scheduler="work_stealing", n_cores=4, seed=1),
            Scenario("fork_join", scheduler="cats", n_cores=4, seed=1),
        ),
    )


class TestScenario:
    def test_id_stable_across_param_order(self):
        a = Scenario("layered", params=(("b", 2), ("a", 1)))
        b = Scenario("layered", params=(("a", 1), ("b", 2)))
        assert a.scenario_id == b.scenario_id
        assert a == b

    def test_id_changes_with_any_axis(self):
        base = Scenario("layered")
        assert base.scenario_id != Scenario("lu").scenario_id
        assert base.scenario_id != Scenario("layered", seed=1).scenario_id
        assert base.scenario_id != Scenario("layered", n_cores=8).scenario_id
        assert (
            base.scenario_id
            != base.with_params(budget_factor=0.5).scenario_id
        )

    def test_round_trip_through_axes(self):
        s = Scenario("chain", scheduler="cats", rsu="annotated",
                     n_cores=32, params=(("chain_len", 4),))
        assert Scenario.from_axes(s.axes()) == s

    def test_param_lookup_and_merge(self):
        s = Scenario("layered", params=(("x", 1),))
        assert s.param("x") == 1
        assert s.param("y", "d") == "d"
        assert s.with_params(y=2).param("y") == 2

    def test_rejects_non_scalar_params(self):
        with pytest.raises(TypeError):
            Scenario("layered", params=(("bad", [1, 2]),))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Scenario("layered", n_cores=0)
        with pytest.raises(ValueError):
            Scenario("layered", scale=0)


class TestMatrix:
    def test_product_covers_cross(self):
        m = Matrix.product("m", families=("layered", "lu"),
                           schedulers=("fifo", "lifo"), scales=(1, 2))
        assert len(m) == 8

    def test_deduplicates_preserving_order(self):
        s = Scenario("layered")
        m = Matrix("m", (s, Scenario("lu"), s))
        assert len(m) == 2
        assert m.scenarios[0] == s

    def test_filtered_by_axis_and_collection(self):
        m = build_preset("smoke")
        only_fifo = m.filtered(scheduler="fifo")
        assert {s.scheduler for s in only_fifo} == {"fifo"}
        two = m.filtered(scheduler=("fifo", "lifo"))
        assert {s.scheduler for s in two} == {"fifo", "lifo"}
        pred = m.filtered(lambda s: s.family == "layered")
        assert {s.family for s in pred} == {"layered"}

    def test_shards_partition_the_matrix(self):
        m = build_preset("smoke")
        shards = [m.shard(i, 4) for i in range(4)]
        ids = [s.scenario_id for shard in shards for s in shard]
        assert sorted(ids) == sorted(s.scenario_id for s in m)
        with pytest.raises(ValueError):
            m.shard(4, 4)


class TestPresets:
    def test_registry_builds_every_preset(self):
        for name in preset_names():
            matrix = build_preset(name)
            assert len(matrix) > 0, name

    def test_smoke_is_seven_schedulers_by_three_families(self):
        m = build_preset("smoke")
        assert len(m) == 21
        assert {s.scheduler for s in m} == set(ALL_SCHEDULERS)
        assert {s.family for s in m} == {"layered", "cholesky", "fork_join"}

    def test_scheduler_matrix_meets_all_families(self):
        m = build_preset("scheduler_matrix")
        assert {s.family for s in m} == set(DAG_FAMILIES)
        assert {s.scheduler for s in m} == set(ALL_SCHEDULERS)
        assert {s.scale for s in m} == {1, 2}

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError):
            build_preset("nope")


class TestRunScenario:
    def test_ok_record_shape(self):
        rec = run_scenario(Scenario("layered", n_cores=4, seed=1), "t")
        assert rec["status"] == "ok"
        assert rec["metrics"]["n_tasks"] == 48
        assert rec["metrics"]["makespan"] > 0
        assert rec["metrics"]["energy_j"] > 0
        assert rec["stats"]["tasks_finished"] == 48
        assert rec["meta"]["campaign"] == "t"
        assert rec["timing"]["wall_s"] > 0
        # tasks/s tracks the simulate phase only — workload generation
        # cost must not pollute the kernel-throughput trajectory.
        timing = rec["timing"]
        assert 0 < timing["sim_s"] <= timing["wall_s"]
        assert timing["build_s"] >= 0
        assert timing["tasks_per_sec"] == pytest.approx(
            rec["metrics"]["n_tasks"] / timing["sim_s"]
        )
        json.dumps(rec)  # JSONL-serialisable

    def test_unknown_family_yields_error_record(self):
        rec = run_scenario(Scenario("no_such_family"))
        assert rec["status"] == "error"
        assert rec["error"]["type"] == "ValueError"
        assert rec["metrics"] is None

    def test_unknown_scheduler_yields_error_record(self):
        rec = run_scenario(Scenario("layered", scheduler="no_such"))
        assert rec["status"] == "error"
        assert "scheduler" in rec["error"]["message"]

    def test_error_does_not_kill_campaign(self, tmp_path):
        m = Matrix("m", (Scenario("no_such_family"),
                         Scenario("layered", n_cores=4)))
        store = ResultStore(str(tmp_path / "r.jsonl"))
        summary = run_campaign(m, store=store)
        assert summary.n_errors == 1 and summary.n_ok == 1
        assert len(store.records()) == 2


class TestResultStore:
    def test_append_and_reload(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        rec = run_scenario(Scenario("layered", n_cores=4, seed=1))
        ResultStore(path).append(rec)
        loaded = ResultStore(path)
        assert loaded.get(rec["id"]) == rec
        assert rec["id"] in loaded

    def test_tolerates_truncated_tail(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        rec = run_scenario(Scenario("layered", n_cores=4, seed=1))
        store = ResultStore(path)
        store.append(rec)
        with open(path, "a") as fh:
            fh.write('{"id": "deadbeef", "status"')  # crashed mid-write
        loaded = ResultStore(path)
        assert len(loaded.records()) == 1
        assert loaded.get(rec["id"]) == rec

    def test_canonical_line_drops_timing_only(self):
        rec = run_scenario(Scenario("layered", n_cores=4, seed=1))
        line = canonical_line(rec)
        parsed = json.loads(line)
        assert "timing" not in parsed
        assert parsed["metrics"] == rec["metrics"]
        assert parsed["stats"] == rec["stats"]


class TestReport:
    def test_summarize_pivots_and_renders(self):
        summary = run_campaign(tiny_matrix())
        headers, body = summarize(summary.records, rows="family",
                                  cols="scheduler", metric="makespan")
        assert headers[0] == "family"
        assert {row[0] for row in body} == {"layered", "fork_join"}
        md = render_table(headers, body, fmt="md")
        assert md.startswith("| family")
        csv = render_table(headers, body, fmt="csv")
        assert csv.splitlines()[0].startswith("family,")
        with pytest.raises(ValueError):
            render_table(headers, body, fmt="html")

    def test_summarize_reaches_timing_metrics(self):
        summary = run_campaign(tiny_matrix())
        _, body = summarize(summary.records, metric="tasks_per_sec")
        # The pivot is sparse (not every family x scheduler pair exists),
        # but every populated cell must have fallen through to the timing
        # block and hold a positive rate.
        filled = [cell for row in body for cell in row[1:] if cell != "-"]
        assert len(filled) == 3
        assert all(float(cell) > 0 for cell in filled)


class TestCompare:
    def _two_stores(self, tmp_path, mutate=None):
        base = ResultStore(str(tmp_path / "base.jsonl"))
        cand = ResultStore(str(tmp_path / "cand.jsonl"))
        run_campaign(tiny_matrix(), store=base)
        for rec in base.records():
            clone = json.loads(json.dumps(rec))
            if mutate is not None:
                mutate(clone)
            cand.append(clone)
        return base, cand

    def test_identical_stores_pass(self, tmp_path):
        base, cand = self._two_stores(tmp_path)
        result = compare_stores(base, cand)
        assert result.ok and result.n_compared == 3

    def test_flags_injected_makespan_regression(self, tmp_path):
        def slow_down(rec):
            rec["metrics"]["makespan"] *= 1.10
            rec["metrics"]["edp"] *= 1.10

        base, cand = self._two_stores(tmp_path, slow_down)
        result = compare_stores(base, cand, tolerance=0.01)
        assert not result.ok
        flagged = {(r.scenario_id, r.metric) for r in result.regressions}
        assert all(m in ("makespan", "edp") for _, m in flagged)
        assert len({sid for sid, _ in flagged}) == 3
        assert "REGRESSION" in result.describe()

    def test_within_tolerance_passes(self, tmp_path):
        def nudge(rec):
            rec["metrics"]["makespan"] *= 1.005

        base, cand = self._two_stores(tmp_path, nudge)
        assert compare_stores(base, cand, tolerance=0.01).ok

    def test_improvements_are_not_regressions(self, tmp_path):
        def speed_up(rec):
            rec["metrics"]["makespan"] *= 0.8

        base, cand = self._two_stores(tmp_path, speed_up)
        result = compare_stores(base, cand, tolerance=0.01)
        assert result.ok and len(result.improvements) == 3

    def test_missing_and_status_flip_are_mismatches(self, tmp_path):
        base, cand = self._two_stores(tmp_path)
        extra = run_scenario(Scenario("lu", n_cores=4, seed=1))
        base.append(extra)  # present in baseline only
        result = compare_stores(base, cand)
        assert not result.ok and len(result.mismatches) == 1

    def test_task_count_change_is_a_mismatch(self, tmp_path):
        def drop_task(rec):
            rec["metrics"]["n_tasks"] -= 1

        base, cand = self._two_stores(tmp_path, drop_task)
        result = compare_stores(base, cand)
        assert not result.ok and len(result.mismatches) == 3

    def test_zero_tolerance_flags_a_one_ulp_lower_makespan(self, tmp_path):
        def one_ulp_lower(rec):
            m = rec["metrics"]
            m["makespan"] = math.nextafter(m["makespan"], 0.0)

        base, cand = self._two_stores(tmp_path, one_ulp_lower)
        assert compare_stores(base, cand, tolerance=0.01).ok
        result = compare_stores(base, cand, tolerance=0.0)
        assert not result.ok and len(result.mismatches) == 3
        assert all("metrics changed: makespan" in m for m in result.mismatches)

    def test_zero_tolerance_flags_a_changed_stat(self, tmp_path):
        def one_more_start(rec):
            rec["stats"]["tasks_started"] += 1

        base, cand = self._two_stores(tmp_path, one_more_start)
        assert compare_stores(base, cand, tolerance=0.01).ok
        result = compare_stores(base, cand, tolerance=0.0)
        assert not result.ok and len(result.mismatches) == 3
        assert all("stats changed: tasks_started" in m
                   for m in result.mismatches)

    @staticmethod
    def _errored(path, source, kind):
        """``source``'s records turned into error rows of type ``kind``."""
        store = ResultStore(str(path))
        for rec in source.records():
            clone = json.loads(json.dumps(rec))
            clone.update(status="error", metrics=None, stats=None,
                         error={"type": kind, "message": "injected"})
            store.append(clone)
        return store

    def test_zero_tolerance_flags_a_different_error_type(self, tmp_path):
        base, _ = self._two_stores(tmp_path)
        deadlock = self._errored(tmp_path / "a.jsonl", base, "DeadlockError")
        all_dead = self._errored(tmp_path / "b.jsonl", base,
                                 "AllCoresDeadError")
        assert compare_stores(deadlock, deadlock, tolerance=0.0).ok
        assert compare_stores(deadlock, all_dead, tolerance=0.01).ok
        result = compare_stores(deadlock, all_dead, tolerance=0.0)
        assert not result.ok and len(result.mismatches) == 3
        assert all("DeadlockError -> AllCoresDeadError" in m
                   for m in result.mismatches)

class TestCli:
    def test_run_report_compare_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "cli.jsonl")
        assert cli_main(["run", "--preset", "fig2_rsu", "--store", store,
                         "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "2 scenarios" in out and "2 ok" in out

        assert cli_main(["report", "--store", store, "--metric", "makespan",
                         "--rows", "rsu", "--cols", "n_cores"]) == 0
        out = capsys.readouterr().out
        assert "| rsu" in out and "32" in out

        assert cli_main(["compare", store, store]) == 0
        out = capsys.readouterr().out
        assert "0 regressions" in out

    def test_run_is_resumable_via_cli(self, tmp_path, capsys):
        store = str(tmp_path / "cli.jsonl")
        cli_main(["run", "--preset", "fig2_rsu", "--store", store, "--quiet"])
        capsys.readouterr()
        cli_main(["run", "--preset", "fig2_rsu", "--store", store, "--quiet"])
        out = capsys.readouterr().out
        assert "2 cached" in out and "0 ok" in out

    def test_list_presets_covers_registry(self, capsys):
        assert cli_main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_report_writes_csv_file(self, tmp_path, capsys):
        store = str(tmp_path / "cli.jsonl")
        cli_main(["run", "--preset", "fig2_rsu", "--store", store, "--quiet"])
        out_path = str(tmp_path / "table.csv")
        assert cli_main(["report", "--store", store, "--format", "csv",
                         "--out", out_path]) == 0
        with open(out_path) as fh:
            assert fh.readline().startswith("family,")

    def test_bad_shard_spec_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli_main(["run", "--preset", "smoke", "--shard", "bogus"])
        assert err.value.code == 2

    def test_report_and_compare_reject_missing_stores(self, tmp_path):
        """A typo'd store path must fail loudly, not gate against an
        empty baseline."""
        missing = str(tmp_path / "nope.jsonl")
        with pytest.raises(SystemExit, match="does not exist"):
            cli_main(["report", "--store", missing])
        with pytest.raises(SystemExit, match="does not exist"):
            cli_main(["compare", missing, missing])

    def test_compare_rejects_empty_baseline(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit, match="no records"):
            cli_main(["compare", str(empty), str(empty)])
