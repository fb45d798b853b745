"""Causal span timelines + critical-path analyzer.

The load-bearing property mirrors the metrics layer's: the span
builder's re-derived per-epoch traffic rows must equal the run's
MetricsRegistry snapshot *exactly*, for every protocol — both are fed
by the same probe call stream, so any divergence means the builder
misparsed a window. On top of that these tests pin the DAG's structural
invariants (path decomposition telescopes to the makespan, lock
serialization produces release→acquire flow edges, single-proc runs are
fully serial), the Chrome trace-event export shape, the sweep shape
rollups, and the obs edge cases (empty traces, exception-safe sinks).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.critical_path import (
    analyze_critical_path,
    format_critical_path,
)
from repro.apps import generate
from repro.network.link import LinkModel
from repro.obs import (
    ColumnarSink,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    RecordingProbe,
    SpanCosts,
    SpanProbe,
    build_span_timeline,
    to_chrome_trace,
)
from repro.obs.metrics import EPOCH_FIELDS
from repro.obs.spans import STALL_CATEGORIES
from repro.protocols.registry import all_protocol_names
from repro.trace.events import Event
from tests.conftest import build_trace, lock_chain_trace, small_trace

ALL = all_protocol_names()


@pytest.fixture(scope="module")
def water_spans():
    """(result, timeline) per protocol over one small water trace."""
    trace = small_trace("water")
    return {
        protocol: build_span_timeline(trace, protocol, page_size=1024)
        for protocol in ALL
    }


class TestEpochReconciliation:
    @pytest.mark.parametrize("protocol", ALL)
    def test_rows_equal_metrics_snapshot(self, water_spans, protocol):
        result, timeline = water_spans[protocol]
        assert timeline.epoch_rows == result.metrics["epochs"]

    @pytest.mark.parametrize("protocol", ALL)
    def test_instrumented_totals_match_plain_run(self, water_spans, protocol):
        from repro.simulator.engine import simulate

        result, _ = water_spans[protocol]
        plain = simulate(small_trace("water"), protocol, page_size=1024)
        assert result.messages == plain.messages
        assert result.data_bytes == plain.data_bytes
        assert result.misses == plain.misses


class TestCriticalPath:
    @pytest.mark.parametrize("protocol", ALL)
    def test_path_decomposition_sums_to_makespan(self, water_spans, protocol):
        _, timeline = water_spans[protocol]
        report = analyze_critical_path(timeline)
        assert report.makespan > 0
        assert sum(report.breakdown.values()) == pytest.approx(
            report.makespan, rel=1e-9
        )

    @pytest.mark.parametrize("protocol", ALL)
    def test_no_unattributed_traffic(self, water_spans, protocol):
        _, timeline = water_spans[protocol]
        assert timeline.stall_totals()["other"] == 0.0

    @pytest.mark.parametrize("protocol", ALL)
    def test_rollups_shape(self, water_spans, protocol):
        _, timeline = water_spans[protocol]
        rollups = analyze_critical_path(timeline).rollups()
        assert set(rollups) == {"crit_path_len", "serial_frac", "barrier_imbalance"}
        assert rollups["crit_path_len"] > 0
        assert 0.0 < rollups["serial_frac"] <= 1.0
        assert 0.0 <= rollups["barrier_imbalance"] < 1.0

    def test_path_is_a_pred_chain(self, water_spans):
        _, timeline = water_spans["LI"]
        report = analyze_critical_path(timeline)
        for earlier, later in zip(report.path, report.path[1:]):
            assert later.pred == earlier.sid
        assert report.path[-1].end == timeline.makespan

    def test_format_renders(self, water_spans):
        _, timeline = water_spans["LU"]
        text = format_critical_path(analyze_critical_path(timeline))
        assert "critical path" in text
        assert "serial fraction" in text
        assert "stall cause" in text

    def test_spans_cover_known_kinds(self, water_spans):
        _, timeline = water_spans["LI"]
        kinds = {span.kind for span in timeline.spans}
        assert {"compute", "barrier_arrive", "barrier_exit"} <= kinds
        for span in timeline.spans:
            assert span.duration >= 0
            assert set(span.buckets) <= set(STALL_CATEGORIES)
            assert sum(span.buckets.values()) == pytest.approx(
                span.duration, rel=1e-9, abs=1e-15
            )


class TestLockSerialization:
    def test_contended_lock_serializes_and_flows(self):
        # Make the critical section dominate message latency so the
        # second processor's request lands before the holder releases.
        costs = SpanCosts(access_s=1.0)
        trace = lock_chain_trace(n_procs=2, rounds=1)
        _, timeline = build_span_timeline(trace, "LI", page_size=1024, costs=costs)
        totals = timeline.stall_totals()
        assert totals["lock_serialization"] > 0
        by_sid = {span.sid: span for span in timeline.spans}
        release_to_acquire = [
            (src, dst)
            for src, dst in timeline.flows
            if by_sid[src].kind == "release" and by_sid[dst].kind == "acquire"
        ]
        assert release_to_acquire, "expected a release→acquire flow edge"

    def test_uncontended_lock_no_serialization(self):
        trace = build_trace(
            2,
            [
                Event.acquire(0, 1),
                Event.write(0, 0x100, 8),
                Event.release(0, 1),
                Event.at_barrier(0, 0),
                Event.at_barrier(1, 0),
            ],
        )
        _, timeline = build_span_timeline(trace, "LI", page_size=1024)
        assert timeline.stall_totals()["lock_serialization"] == 0.0


class TestSingleProcAndEmpty:
    def test_single_proc_no_sync_is_fully_serial(self):
        trace = build_trace(
            1,
            [Event.write(0, 0x100, 8), Event.read(0, 0x200, 16), Event.read(0, 0x100, 4)],
        )
        result, timeline = build_span_timeline(trace, "LI", page_size=1024)
        report = analyze_critical_path(timeline)
        assert report.serial_frac == 1.0
        assert report.barrier_imbalance == 0.0
        assert timeline.flows == []
        assert {span.proc for span in timeline.spans} == {0}
        assert timeline.epoch_rows == result.metrics["epochs"]

    @pytest.mark.parametrize("protocol", ALL)
    def test_empty_trace_reconciles(self, protocol):
        result, timeline = build_span_timeline(
            build_trace(1, []), protocol, page_size=1024
        )
        assert timeline.spans == []
        assert timeline.makespan == 0.0
        assert timeline.epoch_rows == result.metrics["epochs"]
        report = analyze_critical_path(timeline)
        assert report.makespan == 0.0
        assert report.serial_frac == 0.0
        assert sum(report.breakdown.values()) == 0.0

    def test_empty_trace_through_recording_probe_and_sinks(self):
        from repro.simulator.engine import Engine
        from repro.config import SimConfig

        memory = MemorySink()
        columnar = ColumnarSink()
        registry = MetricsRegistry()
        probe = RecordingProbe(sinks=[memory, columnar], metrics=registry)
        config = SimConfig(n_procs=1, page_size=1024)
        Engine(build_trace(1, []), config, "LI", probe=probe).run()
        probe.close()
        assert memory.events == []
        assert len(columnar) == 0
        snapshot = registry.snapshot()
        assert snapshot["epochs"] == [dict(zip(EPOCH_FIELDS, [0] * 10))]


class TestSpanProbeExactness:
    def test_span_probe_is_a_recording_probe(self):
        probe = SpanProbe()
        assert isinstance(probe, RecordingProbe)
        assert probe.events is True

    def test_record_stream_captures_all_call_kinds(self, water_spans):
        trace = small_trace("water")
        probe = SpanProbe()
        from repro.simulator.engine import simulate

        simulate(trace, "LI", page_size=1024, probe=probe)
        tags = {record[0] for record in probe.records}
        assert tags == {"begin", "end", "ev", "msg", "epoch"}


class TestChromeExport:
    @pytest.mark.parametrize("protocol", ALL)
    def test_trace_event_shape(self, water_spans, protocol):
        _, timeline = water_spans[protocol]
        doc = to_chrome_trace(timeline)
        json.dumps(doc)  # must serialize
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events, "trace must not be empty"
        phases = {}
        for event in events:
            phases.setdefault(event["ph"], []).append(event)
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        for complete in phases.get("X", ()):
            assert complete["dur"] >= 0
            assert complete["ts"] >= 0
            assert complete["name"] and complete["cat"]
        # flow starts and finishes pair one-to-one by id
        starts = sorted(e["id"] for e in phases.get("s", ()))
        finishes = sorted(e["id"] for e in phases.get("f", ()))
        assert starts == finishes
        assert len(phases.get("X", ())) == len(timeline.spans)
        # one thread-name metadata record per processor
        thread_names = [e for e in phases["M"] if e["name"] == "thread_name"]
        assert len(thread_names) == timeline.n_procs


class TestSweepRollups:
    def test_sweep_spans_attach_rollups(self):
        from repro.simulator.sweep import run_sweep

        trace = small_trace("water")
        sweep = run_sweep(trace, protocols=["LI", "EU"], page_sizes=[1024], spans=True)
        for key, result in sweep.grid.items():
            assert set(result.spans) == {
                "crit_path_len", "serial_frac", "barrier_imbalance",
            }, key
            assert result.to_dict()["critical_path"] == result.spans
        table = sweep.rollup_table()
        assert set(table) == {"LI", "EU"}
        text = sweep.format_shape_table()
        assert "crit_path_len" in text and "serial_frac" in text

    def test_rollups_csv_export(self, tmp_path):
        from repro.experiments.export import export_sweep_rollups_csv
        from repro.simulator.sweep import run_sweep

        trace = small_trace("water")
        sweep = run_sweep(trace, protocols=["LI"], page_sizes=[1024, 4096], spans=True)
        path = tmp_path / "rollups.csv"
        assert export_sweep_rollups_csv(sweep, path) == 2
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "app,protocol,page_size,crit_path_len,serial_frac,barrier_imbalance"
        assert len(lines) == 3

    def test_sweep_without_spans_has_no_rollups(self):
        from repro.simulator.sweep import run_sweep

        trace = small_trace("water")
        sweep = run_sweep(trace, protocols=["LI"], page_sizes=[1024])
        assert sweep.grid[("LI", 1024)].spans is None
        assert sweep.rollup_table() == {}


class TestSinkExceptionSafety:
    def test_jsonl_context_manager_flushes_on_error(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with pytest.raises(RuntimeError):
            with JsonlSink(path) as sink:
                sink.record({"kind": "acquire", "proc": 0})
                raise RuntimeError("mid-epoch crash")
        assert sink.closed
        from repro.obs import read_jsonl

        assert read_jsonl(path) == [{"kind": "acquire", "proc": 0}]

    def test_jsonl_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "events.jsonl")
        sink.close()
        sink.close()
        with pytest.raises(ValueError):
            sink.record({"kind": "release"})

    def test_columnar_context_manager_drains_staged(self):
        with ColumnarSink() as sink:
            sink.record({"seq": 0, "kind": "acquire", "epoch": 0, "proc": 1})
        assert len(sink) == 1
        assert sink.to_events()[0]["kind"] == "acquire"

    def test_probe_close_after_failed_run_drains_sinks(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        sink = JsonlSink(path)
        probe = RecordingProbe(sinks=[sink])
        probe.emit("acquire", proc=0, lock=3)
        try:
            raise RuntimeError("replay died")
        except RuntimeError:
            probe.close()
        from repro.obs import read_jsonl

        events = read_jsonl(path)
        assert len(events) == 1 and events[0]["kind"] == "acquire"


class TestManifestPlanCache:
    def test_manifest_carries_plan_cache_delta(self):
        from repro.simulator.engine import simulate

        trace = small_trace("water")
        result = simulate(trace, "LI", page_size=1024)
        plan_cache = result.manifest.get("plan_cache")
        assert plan_cache, "batched run must report plan/tape cache activity"
        assert all(value > 0 for value in plan_cache.values())

    def test_plan_cache_excluded_from_to_dict(self):
        from repro.simulator.engine import simulate

        trace = small_trace("water")
        result = simulate(trace, "LI", page_size=1024)
        assert "plan_cache" not in result.to_dict()["manifest"]

    def test_report_footer_shows_plan_cache(self, water_spans):
        from repro.analysis.epoch_report import format_report

        result, timeline = water_spans["LI"]
        text = format_report(result, timeline=timeline)
        assert "plan cache:" in text
        assert "span audit: timeline epoch rows == metrics snapshot" in text
        assert "epoch sums == run totals" in text


class TestCli:
    def test_trace_spans_writes_perfetto_json(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.json"
        assert (
            main(
                ["trace", "--app", "water", "--n-procs", "2", "--seed", "1",
                 "--protocol", "LI", "--page-size", "1024", "--spans", str(path)]
            )
            == 0
        )
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert "span timeline ->" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "network, build_kwargs",
        [
            ([], {"costs": SpanCosts.ethernet_1992()}),
            (["--network", "modern_cluster"], {"link_model": LinkModel.modern_cluster()}),
        ],
    )
    def test_trace_spans_weights(self, tmp_path, network, build_kwargs):
        # Untimed: the ethernet_1992 SpanCosts weights. Timed: the
        # link's measured per-message delays.
        from repro.cli import main

        path = tmp_path / "trace.json"
        args = ["--app", "water", "--n-procs", "2", "--seed", "1", "--scale", "0.25"]
        assert main(["trace", *args, "--page-size", "1024", "--spans", str(path), *network]) == 0
        _, timeline = build_span_timeline(
            generate("water", n_procs=2, seed=1, scale=0.25), "LI", page_size=1024,
            **build_kwargs,
        )
        expected = json.loads(json.dumps(to_chrome_trace(timeline)))
        assert json.loads(path.read_text()) == expected

    def test_trace_without_outputs_errors(self):
        from repro.cli import main

        assert main(["trace", "--app", "water", "--n-procs", "2"]) == 2

    def test_report_includes_critical_path(self, capsys):
        from repro.cli import main

        assert (
            main(["report", "--app", "water", "--n-procs", "2", "--seed", "1",
                  "--protocol", "LU", "--page-size", "1024"])
            == 0
        )
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "epoch sums == run totals" in out

    def test_report_json_carries_rollups(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "report.json"
        assert (
            main(["report", "--app", "water", "--n-procs", "2", "--seed", "1",
                  "--protocol", "LI", "--page-size", "1024", "--json", str(path)])
            == 0
        )
        doc = json.loads(path.read_text())
        assert set(doc["critical_path"]) == {
            "crit_path_len", "serial_frac", "barrier_imbalance",
        }

    def test_report_no_spans_omits_section(self, capsys):
        from repro.cli import main

        assert (
            main(["report", "--app", "water", "--n-procs", "2", "--seed", "1",
                  "--protocol", "LI", "--page-size", "1024", "--no-spans"])
            == 0
        )
        out = capsys.readouterr().out
        assert "critical path" not in out
        assert "epoch sums == run totals" in out
