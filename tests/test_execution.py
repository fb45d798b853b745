"""Execution time under the timed network mode.

Per-processor virtual clocks (:class:`~repro.network.timed.NetworkTiming`)
turn a protocol's traffic into simulated completion time: ordinary
accesses charge the link's per-word compute cost, messages charge their
delays to the processors they stall, and lock grants and barrier
releases carry the sender's clock to the waiter. These tests pin that
overlap, serialization, and stall attribution behave like a parallel
execution.
"""

import pytest

from repro.analysis.timing_report import run_timed
from repro.config import SimConfig
from repro.network.link import LinkModel
from repro.simulator.engine import simulate
from repro.trace.events import Event
from tests.conftest import build_trace, lock_chain_trace, small_trace

#: An ideal link that charges 1 us of compute per word accessed.
COMPUTE_ONLY = LinkModel(access_s=1e-6)


def timed(trace, protocol, link, page_size=512):
    return simulate(trace, protocol, page_size=page_size, link_model=link).timing


class TestModel:
    def test_presets(self):
        """The same miss costs more over 1992 Ethernet than a modern cluster."""
        trace = build_trace(2, [Event.read(1, 0x0)])
        slow = timed(trace, "EI", LinkModel.ethernet_1992())
        fast = timed(trace, "EI", LinkModel.modern_cluster())
        assert slow["completion_s"] > 100 * fast["completion_s"] > 0.0


class TestClockMechanics:
    def test_independent_procs_overlap(self):
        """Two processors writing their own home pages run in parallel time."""
        trace = build_trace(
            2,
            [
                Event.write(0, 0x0),
                Event.write(0, 0x4),
                Event.write(1, 0x200),
                Event.write(1, 0x204),
            ],
        )
        timing = timed(trace, "LI", COMPUTE_ONLY)
        busy = [row["busy_s"] for row in timing["per_proc"]]
        assert timing["messages"] == 0
        assert timing["completion_s"] == max(busy) == pytest.approx(2e-6)
        assert timing["completion_s"] < sum(busy)

    def test_lock_serializes_clocks(self):
        """A lock chain forces each acquire after the previous release."""
        timing = timed(lock_chain_trace(n_procs=3, rounds=1), "LI", COMPUTE_ONLY)
        # 3 procs x 2 accesses strictly serialized: completion == total work.
        assert timing["completion_s"] == pytest.approx(timing["busy_s"])
        assert timing["stall_s"]["sync_wait"] > 0

    def test_barrier_aligns_clocks(self):
        trace = build_trace(
            2,
            [
                Event.write(0, 0x0),
                Event.write(0, 0x0),
                Event.write(0, 0x0),
                Event.at_barrier(0, 0),
                Event.at_barrier(1, 0),  # p1 arrives with an empty clock
            ],
        )
        timing = timed(trace, "LI", COMPUTE_ONLY)
        waiter = timing["per_proc"][1]
        # p1 waited for p0's three writes.
        assert waiter["stall_s"]["sync_wait"] >= 3 * COMPUTE_ONLY.access_s - 1e-12

    def test_comm_stall_charged_to_faulting_proc(self):
        link = LinkModel.ethernet_1992()
        trace = build_trace(3, [Event.read(1, 0x0)])  # cold miss: 2 messages
        timing = timed(trace, "EI", link)
        home, faulting, bystander = timing["per_proc"]
        assert timing["messages"] == 2
        assert timing["completion_s"] == faulting["finish_s"] > home["finish_s"]
        # The round trip's two sends are all stall, not compute.
        assert faulting["finish_s"] - faulting["busy_s"] >= 2 * link.overhead_s
        assert bystander["finish_s"] == 0.0


class TestProtocolRanking:
    def test_fewer_messages_less_time(self):
        """On a lock-heavy kernel the protocol ranking follows messages."""
        trace = small_trace("locusroute", n_procs=8)
        link = LinkModel.ethernet_1992()
        times = {
            p: timed(trace, p, link, page_size=2048)["completion_s"]
            for p in ("LI", "EI", "EU")
        }
        assert times["LI"] < times["EI"]
        assert times["LI"] < times["EU"]


class TestSimulatorReuse:
    def test_explicit_config(self):
        trace = lock_chain_trace(n_procs=2)
        config = SimConfig(n_procs=2, page_size=4096)
        result = run_timed(trace, "EU", LinkModel.ethernet_1992(), page_size=512, config=config)
        assert result.protocol == "EU"
        assert result.page_size == 512
        assert result.messages > 0
        assert result.timing["completion_s"] > 0.0
