"""Extension benches: diff retention/GC and simulated runtime cost.

Two things the paper flags but does not measure: LRC's memory cost
(§5.1 assumes infinite memory) and its runtime cost (§7's future work).
"""

import pytest

from repro.analysis.timing_report import compare_timed
from repro.apps import APPS
from repro.network.link import LinkModel
from repro.simulator.engine import simulate


@pytest.fixture(scope="module")
def mp3d_trace():
    return APPS["mp3d"](n_procs=16, seed=0)


def test_diff_retention_and_gc(benchmark, mp3d_trace):
    """Peak retained diff bytes with and without barrier-time GC."""
    def runs():
        off = simulate(mp3d_trace, "LI", page_size=2048)
        on = simulate(mp3d_trace, "LI", page_size=2048, gc_at_barriers=True)
        return off, on

    off, on = benchmark.pedantic(runs, rounds=1, iterations=1)
    print()
    print(
        f"LI diff retention on MP3D: peak {off.counters['peak_retained_diff_bytes']/1024:.1f} kB "
        f"without GC, {on.counters['peak_retained_diff_bytes']/1024:.1f} kB with barrier GC "
        f"({on.counters['gc_collected_bytes']/1024:.1f} kB reclaimed over "
        f"{on.counters['gc_runs']} collections)"
    )
    assert on.counters["peak_retained_diff_bytes"] < off.counters["peak_retained_diff_bytes"]
    # GC is pure memory accounting: traffic identical.
    assert on.messages == off.messages and on.data_bytes == off.data_bytes


def test_estimated_runtime_cost(benchmark, mp3d_trace):
    """§7 future work: simulated completion over a 1992 Ethernet link."""
    link = LinkModel.ethernet_1992()
    results = benchmark.pedantic(
        lambda: compare_timed(mp3d_trace, link, ("LI", "LU", "EI", "EU"), page_size=2048),
        rounds=1,
        iterations=1,
    )
    completion = {p: result.timing["completion_s"] for p, result in results.items()}
    print()
    print("simulated completion, 1992 Ethernet-class link:")
    for name, seconds in completion.items():
        print(f"  {name}: {seconds:.3f}s ({results[name].messages} msgs)")
    # With 1 ms messages and 10 Mbit wire, LRC's message savings
    # dominate: LI finishes first.
    assert completion["LI"] == min(completion.values())
