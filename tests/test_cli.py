"""CLI tests (in-process through main())."""

import pytest

from repro.cli import build_parser, main
from repro.protocols.registry import all_protocol_names
from tests.conftest import SMALL_SCALE


def small_args(app: str):
    return ["--app", app, "--n-procs", "2", "--seed", "1"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "doom3d"])

    def test_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "MESI"])

    def test_run_accepts_every_protocol(self):
        for protocol in all_protocol_names():
            assert build_parser().parse_args(["run", "--protocol", protocol]).protocol == protocol


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", *small_args("water"), "--protocol", "LI", "--page-size", "512"]) == 0
        out = capsys.readouterr().out
        assert "water" in out and "msgs=" in out

    def test_sweep(self, capsys):
        assert main(["sweep", *small_args("cholesky"), "--page-sizes", "512", "1024"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "Figure 8" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "cells match the analytical model" in out
        assert "FAIL" not in out

    def test_trace_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "w.trcb"
        assert main(["trace", *small_args("water"), "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert (
            main(
                [
                    "run",
                    "--trace-file",
                    str(out_file),
                    "--protocol",
                    "EI",
                    "--page-size",
                    "1024",
                ]
            )
            == 0
        )
        assert "EI" in capsys.readouterr().out

    def test_stats(self, capsys):
        assert main(["stats", *small_args("mp3d"), "--page-size", "512"]) == 0
        assert "mp3d" in capsys.readouterr().out

    def test_check(self, capsys):
        assert main(["check", *small_args("water"), "--protocol", "EU", "--page-size", "512"]) == 0
        assert "reads verified" in capsys.readouterr().out

    def test_check_extra_protocol(self, capsys):
        assert main(["check", *small_args("water"), "--protocol", "EW", "--page-size", "512"]) == 0
        assert "reads verified" in capsys.readouterr().out

    def test_compare(self, capsys):
        # Default link (ethernet_1992), then an explicit preset.
        for network in ([], ["--network", "modern_cluster"]):
            assert main(["compare", *small_args("cholesky"), "--page-size", "1024", *network]) == 0
            rows = capsys.readouterr().out.splitlines()[1:]
            assert [row.split()[0] for row in rows] == all_protocol_names()
            for row in rows:
                assert "sim=" in row and "retries=0" in row

    def test_run_hlrc(self, capsys):
        assert main(["run", *small_args("water"), "--protocol", "HLRC", "--page-size", "512"]) == 0
        assert "HLRC" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", *small_args("water"), "--page-size", "1000"],
            ["compare", *small_args("water"), "--network", "loss=150%"],
        ],
    )
    def test_user_errors_print_one_line(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lrc-sim: error: ")
        assert "Traceback" not in captured.err

    def test_corrupt_trace_file_is_a_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.trcb"
        bad.write_bytes(b"garbage")
        assert main(["run", "--trace-file", str(bad)]) == 2
        assert capsys.readouterr().err == "lrc-sim: error: not a binary trace (magic b'garbage')\n"

    def test_locks(self, capsys):
        assert main(["locks", *small_args("cholesky")]) == 0
        assert "handoff rate" in capsys.readouterr().out

    def test_mstats(self, capsys):
        assert main(["mstats", *small_args("water"), "--protocol", "LI", "--page-size", "512"]) == 0
        assert "modifiers per miss" in capsys.readouterr().out

    def test_chart(self, capsys):
        assert main(["chart", *small_args("water"), "--page-sizes", "512", "2048"]) == 0
        out = capsys.readouterr().out
        assert "messages by page size" in out and "█" in out

    def test_timeline(self, capsys):
        assert (
            main(
                [
                    "timeline",
                    *small_args("mp3d"),
                    "--page-size",
                    "1024",
                    "--protocols",
                    "LI",
                    "HLRC",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "burstiness" in out and "HLRC" in out

    def test_run_metrics_and_trace_out(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "run",
                    *small_args("water"),
                    "--protocol",
                    "LI",
                    "--page-size",
                    "1024",
                    "--metrics",
                    "--trace-out",
                    str(events_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "traffic by barrier epoch" in out
        from repro.obs import read_jsonl

        events = read_jsonl(events_path)
        assert events and all("kind" in e and "epoch" in e for e in events)

    def test_report(self, capsys):
        assert (
            main(["report", *small_args("water"), "--protocol", "LU", "--page-size", "1024"])
            == 0
        )
        out = capsys.readouterr().out
        assert "traffic by barrier epoch" in out
        assert "traffic by lock" in out
        assert "epoch sums == run totals" in out

    def test_report_json(self, tmp_path, capsys):
        import json

        json_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "report",
                    *small_args("mp3d"),
                    "--protocol",
                    "LI",
                    "--page-size",
                    "512",
                    "--json",
                    str(json_path),
                ]
            )
            == 0
        )
        doc = json.loads(json_path.read_text())
        assert doc["protocol"] == "LI" and doc["seed"] == 1
        assert doc["metrics"]["epochs"]
        assert doc["manifest"]["trace_digest"] == doc["trace_digest"]

    def test_verbose_logs_to_stderr(self, capsys):
        assert main(["-v", "run", *small_args("water"), "--page-size", "1024"]) == 0
        captured = capsys.readouterr()
        assert "generated water" in captured.err
        assert "generated water" not in captured.out

    def test_quiet_suppresses_info(self, capsys):
        assert main(["-q", "run", *small_args("water"), "--page-size", "1024"]) == 0
        assert "generated water" not in capsys.readouterr().err

    def test_export(self, tmp_path, capsys):
        assert (
            main(
                [
                    "export",
                    "--out",
                    str(tmp_path / "results"),
                    "--apps",
                    "water",
                    "--n-procs",
                    "2",
                    "--seed",
                    "1",
                ]
            )
            == 0
        )
        assert (tmp_path / "results" / "manifest.json").exists()
        assert (tmp_path / "results" / "fig11_water_messages.csv").exists()
