"""Tests for ``repro.obs`` — metrics registry, phase spans, campaign
integration, and the Chrome-trace/Perfetto exporter.

The two contracts worth pinning hard:

1. **Bit-identical results** — enabling observability must not change a
   single simulated number.  Checked at the runtime level (makespan,
   energy, stats) and at the campaign level (``canonical_line`` equality
   between an obs-on and an obs-off store).
2. **Valid trace-event JSON** — the exporter's output must satisfy the
   Chrome trace-event schema (required keys per phase type, numeric
   microsecond timestamps, integer pid/tid) so Perfetto actually opens
   it.
"""

import json

import pytest

from repro.campaign import Matrix, ResultStore, Scenario, run_campaign
from repro.campaign.report import summarize_obs
from repro.campaign.runner import run_scenario
from repro.campaign.store import canonical_line
from repro.core import FifoScheduler, Runtime
from repro.obs import (
    OBS_SCHEMA_VERSION,
    SPAN_SIMULATE,
    SPAN_TDG_BUILD,
    Metrics,
    MetricsRegistry,
    disable,
    enable,
    enabled,
    get_active,
    scoped,
)
from repro.obs import cli as obs_cli
from repro.obs.trace_export import HOST_PID, SIM_PID, chrome_trace, export_chrome_trace
from repro.sim import EPSILON, Machine
from repro.sim.trace import TraceRecord, TraceRecorder


# ----------------------------------------------------------------------
# registry unit behaviour
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_accumulate(self):
        r = MetricsRegistry()
        r.counter_add("edges")
        r.counter_add("edges", 2.0)
        r.counter_add("wakeups", 5.0)
        assert r.counters == {"edges": 3.0, "wakeups": 5.0}

    def test_timers_aggregate_total_and_count(self):
        r = MetricsRegistry()
        r.timer_add("dispatch", 0.25)
        r.timer_add("dispatch", 0.75)
        assert r.timers["dispatch"] == [1.0, 2.0]

    def test_gauge_stats_and_series(self):
        r = MetricsRegistry()
        r.gauge_sample("depth", 3.0, t=0.0)
        r.gauge_sample("depth", 7.0, t=1.0)
        r.gauge_sample("depth", 5.0, t=2.0)
        r.gauge_sample("untimed", 1.0)  # no t -> no series entry
        g = r.summary()["gauges"]["depth"]
        assert g == {"n": 3, "mean": 5.0, "max": 7.0, "last": 5.0}
        assert r.gauge_series["depth"] == [(0.0, 3.0), (1.0, 7.0), (2.0, 5.0)]
        assert "untimed" not in r.gauge_series

    def test_span_context_manager_records_interval(self):
        r = MetricsRegistry()
        with r.span("phase_a"):
            pass
        with r.span("phase_a"):
            pass
        with r.span("phase_b"):
            pass
        totals = r.span_totals()
        assert totals["phase_a"][1] == 2.0
        assert totals["phase_b"][1] == 1.0
        for name, t0, t1 in r.spans:
            assert t1 >= t0

    def test_summary_shape_and_schema(self):
        r = MetricsRegistry()
        r.counter_add("b")
        r.counter_add("a")
        r.timer_add("t", 0.5)
        r.gauge_sample("g", 2.0)
        r.record_span("s", 1.0, 3.0)
        s = r.summary()
        assert s["schema"] == OBS_SCHEMA_VERSION
        assert list(s["counters"]) == ["a", "b"]  # sorted for stable dumps
        assert s["timers"]["t"] == {"total_s": 0.5, "count": 1}
        assert s["spans"]["s"] == {"total_s": 2.0, "count": 1}
        # The summary must round-trip through JSON (it lands in records).
        assert json.loads(json.dumps(s)) == s


class TestNullShimAndScoping:
    def test_null_shim_is_inert(self):
        null = Metrics()
        assert null.enabled is False
        null.counter_add("x")
        null.timer_add("x", 1.0)
        null.gauge_sample("x", 1.0, t=0.0)
        null.record_span("x", 0.0, 1.0)
        with null.span("x"):
            pass
        assert null.summary() is None

    def test_enable_disable_roundtrip(self):
        assert not enabled()
        try:
            reg = enable()
            assert enabled() and get_active() is reg
        finally:
            disable()
        assert not enabled()
        assert get_active().summary() is None

    def test_scoped_restores_previous_sink(self):
        before = get_active()
        with scoped() as outer:
            assert get_active() is outer
            with scoped() as inner:
                assert get_active() is inner
            assert get_active() is outer
        assert get_active() is before

    def test_scoped_restores_on_exception(self):
        before = get_active()
        with pytest.raises(RuntimeError):
            with scoped():
                raise RuntimeError("boom")
        assert get_active() is before


# ----------------------------------------------------------------------
# runtime integration: identical results, populated metrics
# ----------------------------------------------------------------------
def _run_cholesky(obs=None, **kw):
    from repro.apps.dag_workloads import make_workload

    tasks = make_workload("cholesky", scale=1, seed=0)
    machine = Machine(4, initial_level=2)
    rt = Runtime(machine, scheduler=FifoScheduler(), obs=obs, **kw)
    rt.submit_all(tasks)
    return rt.run()


class TestRuntimeIntegration:
    def test_results_identical_obs_on_and_off(self):
        off = _run_cholesky()
        on = _run_cholesky(obs=MetricsRegistry())
        assert on.makespan == off.makespan
        assert on.energy_j == off.energy_j
        assert on.stats.as_dict() == off.stats.as_dict()

    def test_disabled_run_has_no_obs_block(self):
        assert _run_cholesky().obs is None

    def test_enabled_run_collects_expected_metrics(self):
        res = _run_cholesky(obs=MetricsRegistry())
        obs = res.obs
        assert obs is not None and obs["schema"] == OBS_SCHEMA_VERSION
        for counter in (
            "edges_inserted",
            "index_window_scans",
            "wakeups",
            "events_processed",
        ):
            assert counter in obs["counters"], counter
        assert obs["counters"]["wakeups"] > 0
        assert obs["counters"]["events_processed"] > 0
        assert SPAN_TDG_BUILD in obs["spans"]
        assert SPAN_SIMULATE in obs["spans"]
        assert "dispatch" in obs["timers"]
        assert obs["gauges"]["event_queue_depth"]["n"] > 0
        assert "live_regions" in obs["gauges"]

    def test_prune_run_records_prune_span_and_reclaim(self):
        with scoped() as registry:
            res = _run_cholesky(obs=registry, prune_every=4)
        obs = res.obs
        assert obs is not None
        assert "prune" in obs["spans"]
        assert obs["counters"]["prune_reclaimed"] > 0


# ----------------------------------------------------------------------
# campaign integration: records bit-identical, obs block additive
# ----------------------------------------------------------------------
def _tiny_matrix():
    return Matrix(
        "obs-test",
        (
            Scenario("cholesky", scheduler="fifo", n_cores=4, seed=1),
            Scenario("layered", scheduler="work_stealing", n_cores=4, seed=1),
        ),
    )


class TestCampaignIntegration:
    def test_run_scenario_obs_block_is_additive(self):
        scenario = Scenario("cholesky", scheduler="fifo", n_cores=4, seed=1)
        off = run_scenario(scenario)
        on = run_scenario(scenario, obs=True)
        assert off["obs"] is None
        assert on["obs"] is not None and on["obs"]["schema"] == OBS_SCHEMA_VERSION
        # Identity-relevant content is bit-identical.
        assert canonical_line(on) == canonical_line(off)

    def test_campaign_stores_identical_with_and_without_obs(self, tmp_path):
        s_off = ResultStore(str(tmp_path / "off.jsonl"))
        s_on = ResultStore(str(tmp_path / "on.jsonl"))
        run_campaign(_tiny_matrix(), store=s_off)
        run_campaign(_tiny_matrix(), store=s_on, obs=True)
        assert s_on.canonical_lines() == s_off.canonical_lines()
        assert all(r["obs"] is not None for r in s_on.records())
        assert all(r["obs"] is None for r in s_off.records())

    def test_obs_survives_parallel_workers(self, tmp_path):
        store = ResultStore(str(tmp_path / "par.jsonl"))
        run_campaign(_tiny_matrix(), store=store, workers=2, obs=True)
        assert all(r["obs"] is not None for r in store.records())

    def test_summarize_obs_pivots_counters(self, tmp_path):
        store = ResultStore(str(tmp_path / "obs.jsonl"))
        run_campaign(_tiny_matrix(), store=store, obs=True)
        headers, body = summarize_obs(store.records(), cols="scheduler")
        assert headers[0] == "metric"
        assert "fifo" in headers and "work_stealing" in headers
        names = [row[0] for row in body]
        assert "counter:edges_inserted" in names
        assert any(name.startswith("span:") for name in names)

    def test_summarize_obs_without_obs_blocks_raises(self, tmp_path):
        store = ResultStore(str(tmp_path / "plain.jsonl"))
        run_campaign(_tiny_matrix(), store=store)
        with pytest.raises(ValueError, match="--obs"):
            summarize_obs(store.records())


# ----------------------------------------------------------------------
# trace recorder: skipped_released + shared EPSILON tolerance
# ----------------------------------------------------------------------
def _run_cholesky_graph(**kw):
    from repro.apps.dag_workloads import make_workload

    tasks = make_workload("cholesky", scale=1, seed=0)
    rt = Runtime(Machine(4, initial_level=2), scheduler=FifoScheduler(), **kw)
    rt.submit_all(tasks)
    return rt.run(), rt


class TestSkippedReleased:
    def test_pruned_run_counts_released_handles(self):
        res, rt = _run_cholesky_graph(prune_every=4)
        trace = TraceRecorder.from_graph(rt.graph, rt.machine)
        assert trace.skipped_released > 0
        assert trace.skipped_released + len(trace) == res.n_tasks

    def test_unpruned_run_skips_nothing(self):
        res, rt = _run_cholesky_graph()
        trace = TraceRecorder.from_graph(rt.graph, rt.machine)
        assert trace.skipped_released == 0
        assert len(trace) == res.n_tasks


def _rec(gid, core, start, end):
    return TraceRecord(gid, f"t{gid}", core, start, end, 2.0, False)


class TestEpsilonTolerance:
    def test_sub_epsilon_overlap_tolerated(self):
        trace = TraceRecorder([
            _rec(0, 0, 0.0, 1.0),
            _rec(1, 0, 1.0 - EPSILON / 2, 2.0),
        ])
        trace.validate_no_overlap()  # must not raise

    def test_beyond_epsilon_overlap_rejected(self):
        trace = TraceRecorder([
            _rec(0, 0, 0.0, 1.0),
            _rec(1, 0, 1.0 - 10 * EPSILON, 2.0),
        ])
        with pytest.raises(AssertionError):
            trace.validate_no_overlap()

    def test_exporter_fuses_sub_epsilon_overlap(self):
        trace = TraceRecorder([
            _rec(0, 0, 0.0, 1.0),
            _rec(1, 0, 1.0 - EPSILON / 2, 2.0),
        ])
        events = [
            e
            for e in chrome_trace(trace=trace)["traceEvents"]
            if e["ph"] == "X"
        ]
        # Second event snapped forward to the first event's end.
        assert events[1]["ts"] == pytest.approx(1.0 * 1e6)
        assert events[1]["ts"] + events[1]["dur"] == pytest.approx(2.0 * 1e6)

    def test_exporter_rejects_real_overlap(self):
        trace = TraceRecorder([
            _rec(0, 0, 0.0, 1.0),
            _rec(1, 0, 0.5, 2.0),
        ])
        with pytest.raises(ValueError, match="EPSILON"):
            chrome_trace(trace=trace)


# ----------------------------------------------------------------------
# Chrome-trace JSON schema validation
# ----------------------------------------------------------------------
def _validate_trace_events(envelope):
    """Hand-rolled trace-event-format validator (the acceptance check)."""
    assert set(envelope) == {"traceEvents", "displayTimeUnit", "metadata"}
    assert isinstance(envelope["traceEvents"], list)
    for event in envelope["traceEvents"]:
        assert isinstance(event["name"], str) and event["name"]
        assert isinstance(event["pid"], int)
        ph = event["ph"]
        if ph == "X":  # complete event
            assert isinstance(event["tid"], int)
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
        elif ph == "C":  # counter
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert isinstance(event["args"]["value"], (int, float))
        elif ph == "M":  # metadata
            assert event["name"] in ("process_name", "thread_name")
            assert isinstance(event["args"]["name"], str)
        else:
            raise AssertionError(f"unexpected phase type {ph!r}")


class TestChromeTraceExport:
    def _run_with_trace(self, prune_every=0):
        with scoped() as registry:
            res = _run_cholesky(
                obs=registry, record_trace=True, prune_every=prune_every
            )
        return res, registry

    def test_envelope_validates_and_roundtrips(self, tmp_path):
        res, registry = self._run_with_trace()
        out = tmp_path / "trace.json"
        envelope = export_chrome_trace(
            str(out), trace=res.trace, registry=registry
        )
        _validate_trace_events(envelope)
        assert json.loads(out.read_text(encoding="utf-8")) == envelope

    def test_identical_runs_in_one_process_export_identical_files(self, tmp_path):
        # Each run builds its own task handles (distinct objects, equal
        # fields); a record names its task by gid, which both runs share.
        runs = [_run_cholesky_graph() for _ in range(2)]
        first, second = (rt.graph.tasks[0] for _, rt in runs)
        assert first != second and first.label == second.label
        assert first.gid == second.gid == 0
        assert runs[0][0].trace.records == runs[1][0].trace.records
        blobs = []
        for i, (res, _) in enumerate(runs):
            out = tmp_path / f"run{i}.json"
            export_chrome_trace(str(out), trace=res.trace)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_task_events_on_sim_pid_spans_on_host_pid(self):
        res, registry = self._run_with_trace()
        envelope = chrome_trace(trace=res.trace, registry=registry)
        tasks = [
            e
            for e in envelope["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "task"
        ]
        phases = [
            e
            for e in envelope["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "phase"
        ]
        counters = [e for e in envelope["traceEvents"] if e["ph"] == "C"]
        assert len(tasks) == res.n_tasks
        assert all(e["pid"] == SIM_PID for e in tasks)
        assert phases and all(e["pid"] == HOST_PID for e in phases)
        assert counters and all(e["pid"] == SIM_PID for e in counters)
        assert any(e["name"] == SPAN_SIMULATE for e in phases)

    def test_metadata_block(self):
        res, registry = self._run_with_trace(prune_every=4)
        meta = chrome_trace(trace=res.trace, registry=registry)["metadata"]
        assert meta["schema"] == OBS_SCHEMA_VERSION
        assert meta["skipped_released"] == res.trace.skipped_released
        assert meta["n_task_records"] == len(res.trace)
        assert meta["makespan_s"] == res.trace.makespan()
        assert "counters" in meta

    def test_user_metadata_merged(self):
        envelope = chrome_trace(metadata={"family": "cholesky", "scale": 1})
        assert envelope["metadata"]["family"] == "cholesky"
        _validate_trace_events(envelope)

    def test_registry_only_export(self):
        _, registry = self._run_with_trace()
        envelope = chrome_trace(registry=registry)
        _validate_trace_events(envelope)
        assert "n_task_records" not in envelope["metadata"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestObsCli:
    def test_export_trace_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "cli_trace.json"
        rc = obs_cli.main(
            [
                "export-trace",
                "--family",
                "cholesky",
                "--scale",
                "1",
                "--cores",
                "4",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        envelope = json.loads(out.read_text(encoding="utf-8"))
        _validate_trace_events(envelope)
        assert envelope["metadata"]["family"] == "cholesky"
        assert "wrote" in capsys.readouterr().out

    def test_export_trace_with_prune(self, tmp_path, capsys):
        from repro.apps.dag_workloads import make_workload

        out = tmp_path / "pruned.json"
        rc = obs_cli.main(
            ["export-trace", "--scale", "1", "--prune-every", "4", "--out", str(out)]
        )
        assert rc == 0
        envelope = json.loads(out.read_text(encoding="utf-8"))
        meta = envelope["metadata"]
        # The trace holds the tasks whose handles the graph still holds;
        # the released ones are counted, so together they are every task.
        n_tasks = len(make_workload("cholesky", scale=1, seed=0))
        assert meta["skipped_released"] > 0
        assert meta["n_task_records"] + meta["skipped_released"] == n_tasks
        # The prune machinery demonstrably ran.
        assert meta["counters"]["prune_reclaimed"] > 0
