"""Tests for the lazy diff garbage collector."""

import pytest

from repro.analysis.checker import check_protocol
from repro.config import SimConfig
from repro.simulator.engine import simulate
from tests.conftest import small_trace


class TestGarbageCollection:
    def test_gc_reduces_peak_retention(self):
        trace = small_trace("mp3d", n_procs=8)
        off = simulate(trace, "LI", page_size=1024)
        on = simulate(trace, "LI", page_size=1024, gc_at_barriers=True)
        assert on.counters["gc_runs"] > 0
        assert on.counters["gc_collected_bytes"] > 0
        assert (
            on.counters["peak_retained_diff_bytes"]
            < off.counters["peak_retained_diff_bytes"]
        )

    def test_gc_never_changes_traffic(self):
        trace = small_trace("water", n_procs=4)
        for protocol in ("LI", "LU"):
            off = simulate(trace, protocol, page_size=512)
            on = simulate(trace, protocol, page_size=512, gc_at_barriers=True)
            assert on.messages == off.messages
            assert on.data_bytes == off.data_bytes

    @pytest.mark.parametrize("protocol", ["LI", "LU"])
    def test_gc_runs_stay_consistent(self, protocol):
        trace = small_trace("mp3d", n_procs=4)
        config = SimConfig(n_procs=4, gc_at_barriers=True)
        report = check_protocol(trace, protocol, page_size=512, config=config)
        assert report.ok

    def test_retention_accounting_balances(self):
        trace = small_trace("mp3d", n_procs=4)
        on = simulate(trace, "LI", page_size=1024, gc_at_barriers=True)
        retained = on.counters["retained_diff_bytes"]
        collected = on.counters["gc_collected_bytes"]
        assert retained >= 0
        # Created = still retained + collected.
        off = simulate(trace, "LI", page_size=1024)
        assert retained + collected == off.counters["retained_diff_bytes"]

    def test_no_barriers_no_gc(self):
        trace = small_trace("cholesky", n_procs=4)
        on = simulate(trace, "LI", page_size=1024, gc_at_barriers=True)
        assert on.counters["gc_runs"] == 0
