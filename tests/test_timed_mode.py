"""Timed run mode: ledger invariance, virtual clocks, loss/retry.

The two invariants :mod:`repro.network.timed` documents are pinned
here: (a) a timed run's message/byte ledgers are bit-identical to the
counting run for *every* link configuration (drops are transport-level
— they cost time, never delivery), and (b) per-processor accounting
closes exactly (``finish == busy + Σ stalls``).
"""

from __future__ import annotations

import pytest

from repro.analysis.timing_report import (
    compare_timed,
    format_timing_detail,
    format_timing_table,
    run_timed,
    timing_rows,
)
from repro.config import SimConfig
from repro.network.channel import Channel
from repro.network.link import LinkModel
from repro.network.timed import TIMED_STALL_CATEGORIES, NetworkTiming
from repro.obs.probe import RecordingProbe
from repro.protocols.registry import all_protocol_names
from repro.simulator.engine import Engine, simulate
from repro.simulator.results import SimulationResult
from repro.simulator.sweep import run_sweep
from tests.conftest import small_trace

ALL = all_protocol_names()

#: A thoroughly imperfect link: every timed mechanism engaged at once.
LOSSY = LinkModel.ethernet_1992(loss=0.05, timeout_s=5e-3, jitter_s=1e-4)


def ledger(result: SimulationResult) -> dict:
    """Every counting field of one result, for exact comparison."""
    return {
        "messages": result.messages,
        "data_bytes": result.data_bytes,
        "control_bytes": result.control_bytes,
        "cold_misses": result.cold_misses,
        "invalid_misses": result.invalid_misses,
        "diffs_fetched": result.diffs_fetched,
        "diff_bytes_fetched": result.diff_bytes_fetched,
        "counters": result.counters,
        "by_kind": result.stats.snapshot(),
    }


class TestIdealEquivalence:
    @pytest.mark.parametrize("protocol", ALL)
    def test_ideal_timed_bit_identical_to_counting(self, app_trace, protocol):
        counting = simulate(app_trace, protocol, page_size=1024)
        timed = simulate(
            app_trace, protocol, page_size=1024, link_model=LinkModel.ideal()
        )
        assert ledger(timed) == ledger(counting)
        assert timed.timing is not None and counting.timing is None
        # Zero delay everywhere: the run completes in zero simulated time.
        assert timed.timing["completion_s"] == 0.0

    @pytest.mark.parametrize("protocol", ["LI", "EU"])
    def test_metrics_snapshot_identical(self, water_trace, protocol):
        probe_a, probe_b = RecordingProbe(), RecordingProbe()
        counting = simulate(water_trace, protocol, page_size=1024, probe=probe_a)
        timed = simulate(
            water_trace, protocol, page_size=1024, probe=probe_b,
            link_model=LinkModel.ideal(),
        )
        assert timed.metrics == counting.metrics

    @pytest.mark.parametrize("protocol", ["LI", "LU"])
    def test_batched_config_still_timed_and_identical(self, water_trace, protocol):
        # Timed dispatch precedes the batched-kernel gate: the same
        # config that would take the tape fast path in counting mode
        # must replay per message (and still match) when a link is set.
        config = SimConfig(
            n_procs=water_trace.n_procs, page_size=1024, use_batched_kernels=True
        )
        counting = Engine(water_trace, config, protocol).run()
        timed = Engine(
            water_trace, config.with_options(link_model=LOSSY), protocol
        ).run()
        assert ledger(timed) == ledger(counting)
        assert timed.timing is not None

    def test_apply_tape_refused_when_timing_attached(self, water_trace):
        engine = Engine(
            water_trace,
            SimConfig(n_procs=water_trace.n_procs, page_size=1024, link_model=LOSSY),
            "LI",
        )
        with pytest.raises(RuntimeError, match="counting-mode fast path"):
            engine.protocol.network.apply_tape([(0, 1, 0, 0)])


class TestLossyInvariance:
    @pytest.mark.parametrize("protocol", ALL)
    def test_lossy_ledgers_identical(self, water_trace, protocol):
        counting = simulate(water_trace, protocol, page_size=1024)
        lossy = simulate(water_trace, protocol, page_size=1024, link_model=LOSSY)
        assert ledger(lossy) == ledger(counting)
        assert lossy.timing["retries"] > 0
        assert lossy.timing["completion_s"] > 0.0

    @pytest.mark.parametrize("loss", [0.0, 0.1, 0.5, 0.9])
    def test_convergence_across_loss_rates(self, water_trace, loss):
        # The post-budget attempt always succeeds, so even loss=0.9
        # terminates — and still counts exactly the lossless messages.
        link = LinkModel(loss=loss, timeout_s=1e-3, latency_s=1e-5)
        result = simulate(water_trace, "LI", page_size=1024, link_model=link)
        baseline = simulate(water_trace, "LI", page_size=1024)
        assert ledger(result) == ledger(baseline)
        if loss:
            assert result.timing["retries"] > 0
            # Loss only ever adds nonnegative timeout penalties.
            lossless = simulate(
                water_trace, "LI", page_size=1024,
                link_model=link.with_options(loss=0.0),
            )
            assert (
                result.timing["completion_s"] >= lossless.timing["completion_s"]
            )

    def test_retries_grow_with_loss(self, water_trace):
        low = simulate(
            water_trace, "LI", page_size=1024,
            link_model=LinkModel(loss=0.05, timeout_s=1e-3),
        )
        high = simulate(
            water_trace, "LI", page_size=1024,
            link_model=LinkModel(loss=0.9, timeout_s=1e-3),
        )
        assert high.timing["retries"] > low.timing["retries"]


class TestDeterminism:
    def test_identical_runs_identical_reports(self, water_trace):
        first = simulate(water_trace, "LU", page_size=1024, link_model=LOSSY)
        second = simulate(water_trace, "LU", page_size=1024, link_model=LOSSY)
        assert first.timing == second.timing

    def test_manifest_records_network_provenance(self, water_trace):
        result = simulate(water_trace, "LI", page_size=1024, link_model=LOSSY)
        network = result.manifest["network"]
        assert network["network_seed"] == result.timing["network_seed"]
        assert network["link"] == LOSSY.to_dict()
        assert result.manifest["config"]["link_model"] == LOSSY.to_dict()

    def test_protocols_draw_distinct_sequences(self, water_trace):
        li = simulate(water_trace, "LI", page_size=1024, link_model=LOSSY)
        lu = simulate(water_trace, "LU", page_size=1024, link_model=LOSSY)
        assert li.timing["network_seed"] != lu.timing["network_seed"]


class TestVirtualClocks:
    def test_accounting_closure(self, app_trace):
        link = LinkModel.ethernet_1992(
            loss=0.05, timeout_s=5e-3, jitter_s=1e-4, latency_s=2e-4
        )
        result = simulate(app_trace, "LI", page_size=1024, link_model=link)
        timing = result.timing
        for row in timing["per_proc"]:
            closure = row["busy_s"] + sum(row["stall_s"].values())
            assert abs(row["finish_s"] - closure) < 1e-9
        assert set(timing["stall_s"]) == set(TIMED_STALL_CATEGORIES)
        assert timing["completion_s"] == max(r["finish_s"] for r in timing["per_proc"])

    def test_completion_monotone_in_latency(self, water_trace):
        completions = [
            simulate(
                water_trace, "LI", page_size=1024,
                link_model=LinkModel(latency_s=latency),
            ).timing["completion_s"]
            for latency in (0.0, 1e-4, 1e-3, 5e-3)
        ]
        assert completions == sorted(completions)
        assert completions[-1] > completions[0] > 0.0 or completions[0] == 0.0
        # Any cross-processor message makes nonzero latency visible.
        assert completions[1] > 0.0

    def test_access_cost_charges_busy_time(self, water_trace):
        result = simulate(
            water_trace, "LI", page_size=1024,
            link_model=LinkModel(access_s=1e-6),
        )
        timing = result.timing
        assert timing["busy_s"] > 0.0
        assert timing["completion_s"] >= max(
            row["busy_s"] for row in timing["per_proc"]
        )

    def test_record_values_supported(self, water_trace):
        result = simulate(
            water_trace, "LI", page_size=1024, link_model=LOSSY,
            record_values=True,
        )
        plain = simulate(water_trace, "LI", page_size=1024, record_values=True)
        assert result.read_values == plain.read_values


class TestChannelFifo:
    def test_schedule_clamps_to_fifo(self):
        channel = Channel(0, 1)
        assert channel.schedule(5.0) == 5.0
        assert channel.schedule(3.0) == 5.0  # cannot overtake
        assert channel.schedule(7.0) == 7.0
        assert channel.in_flight_times == (5.0, 5.0, 7.0)
        assert channel.deliver_due(5.0) == 2
        assert channel.in_flight_times == (7.0,)

    def test_jitter_never_reorders_a_channel(self):
        # Drive one channel directly with heavy jitter: every scheduled
        # arrival (as returned by the FIFO clamp) must be nondecreasing.
        link = LinkModel(jitter_s=5e-3, latency_s=1e-5)
        channel = Channel(0, 1)
        timing = NetworkTiming(link, 2, network_seed=42, channel_of=lambda s, d: channel)
        arrivals = []
        original = channel.schedule

        def recording_schedule(arrival):
            clamped = original(arrival)
            arrivals.append(clamped)
            return clamped

        channel.schedule = recording_schedule  # type: ignore[method-assign]
        for _ in range(200):
            timing.on_send(0, 1, 64)
            # Freeze the receiver so in-flight arrivals accumulate and
            # the clamp actually has earlier messages to defend.
            timing.clock[1] = 0.0
        assert arrivals == sorted(arrivals)


class TestTimedSpans:
    def test_timed_timeline_reconciles_and_buckets_stalls(self, water_trace):
        from repro.analysis.critical_path import analyze_critical_path
        from repro.obs.spans import build_span_timeline

        link = LinkModel.ethernet_1992(loss=0.05, timeout_s=5e-3)
        result, timeline = build_span_timeline(
            water_trace, "LI", page_size=1024, link_model=link
        )
        assert result.timing is not None
        assert timeline.epoch_rows == list(result.metrics["epochs"])
        report = analyze_critical_path(timeline)
        totals = report.totals
        assert totals["serialization"] > 0.0  # finite bandwidth
        assert totals["retransmit"] > 0.0  # lossy link

    def test_sweep_rollups_carry_timing_columns(self, water_trace, tmp_path):
        from repro.experiments.export import export_sweep_rollups_csv

        config = SimConfig(n_procs=water_trace.n_procs, link_model=LOSSY)
        sweep = run_sweep(
            water_trace, protocols=["LI", "EU"], page_sizes=[1024],
            config=config, spans=True,
        )
        for cell in sweep.rollup_table()["LI"].values():
            assert cell["completion_s"] > 0.0
            assert cell["retries"] > 0
        assert "completion (ms)" in sweep.format_shape_table()
        csv_path = tmp_path / "rollups.csv"
        export_sweep_rollups_csv(sweep, csv_path)
        text = csv_path.read_text(encoding="utf-8")
        assert "completion_s" in text.splitlines()[0]
        assert len(text.splitlines()) == 3  # header + 2 cells


class TestTimingReport:
    def test_compare_timed_table(self, water_trace):
        results = compare_timed(
            water_trace, LOSSY, protocols=["LI", "EU"], page_size=1024
        )
        rows = timing_rows(results)
        assert [row["protocol"] for row in rows] == ["LI", "EU"]
        for row in rows:
            assert row["completion_s"] > 0.0
            assert row["retries"] > 0
            for name in TIMED_STALL_CATEGORIES:
                assert f"stall_{name}_s" in row
        table = format_timing_table(results)
        assert "LI" in table and "EU" in table and "retries" in table

    def test_detail_mentions_completion_and_retries(self, water_trace):
        result = run_timed(water_trace, "LI", LOSSY, page_size=1024)
        detail = format_timing_detail(result.timing)
        assert "completion=" in detail
        assert "retries=" in detail
        assert "network_seed=" in detail

    def test_counting_results_skipped(self, water_trace):
        counting = simulate(water_trace, "LI", page_size=1024)
        assert timing_rows({"LI": counting}) == []
        assert "no timed results" in format_timing_table({"LI": counting})


class TestCli:
    def _args(self):
        return ["--app", "water", "--n-procs", "2", "--seed", "1"]

    def test_run_network(self, capsys):
        from repro.cli import main

        assert main([
            "run", *self._args(), "--protocol", "LI", "--page-size", "1024",
            "--network", "ethernet_1992,loss=2%,timeout=2ms",
        ]) == 0
        out = capsys.readouterr().out
        assert "timed network model" in out
        assert "completion=" in out

    def test_report_timing(self, capsys):
        from repro.cli import main

        assert main([
            "report", *self._args(), "--protocol", "LI", "--page-size", "1024",
            "--timing", "--network", "ethernet_1992,loss=2%,timeout=2ms",
            "--no-spans",
        ]) == 0
        out = capsys.readouterr().out
        assert "simulated completion by protocol" in out
        assert "retries" in out
        assert "reconciliation: epoch sums == run totals" in out

    def test_sweep_network_rollups(self, tmp_path, capsys):
        from repro.cli import main

        csv_path = tmp_path / "rollups.csv"
        assert main([
            "sweep", *self._args(), "--page-sizes", "1024", "--spans",
            "--rollups-csv", str(csv_path),
            "--network", "ethernet_1992,loss=2%,timeout=2ms",
        ]) == 0
        header = csv_path.read_text(encoding="utf-8").splitlines()[0]
        assert "completion_s" in header and "retries" in header

    def test_bad_network_spec_raises_config_error(self, capsys):
        from repro.cli import main
        from repro.common.errors import ConfigError
        from repro.network.link import parse_link_spec

        with pytest.raises(ConfigError, match="unknown --network key 'warp'"):
            parse_link_spec("warp=9")
        # The CLI reports it as a one-line user error, not a traceback.
        assert main(["run", *self._args(), "--network", "warp=9"]) == 2
        assert capsys.readouterr().err.startswith(
            "lrc-sim: error: unknown --network key 'warp'"
        )
