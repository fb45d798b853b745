"""Simulated execution time per protocol (§7's future work, full loop).

Timed runs over the ``ethernet_1992`` link turn each protocol's traffic
into simulated parallel completion time: per-processor virtual clocks,
lock grants and barrier releases carrying the sender's clock, and
per-message overhead and serialization charged to the processors they
stall. The paper conjectured LRC "will outperform eager RC in a
software DSM environment" — this bench asserts it under 1992-class
constants on two contrasting workloads.
"""

import pytest

from repro.analysis.timing_report import compare_timed
from repro.apps import APPS
from repro.network.link import LinkModel

PROTOCOLS = ("LI", "LU", "EI", "EU", "EW")


@pytest.fixture(scope="module")
def traces():
    return {
        "locusroute": APPS["locusroute"](n_procs=16, seed=0),
        "mp3d": APPS["mp3d"](n_procs=16, seed=0),
    }


def test_estimated_execution_time(benchmark, traces):
    link = LinkModel.ethernet_1992()

    def runs():
        return {
            app: {
                p: result.timing["completion_s"]
                for p, result in compare_timed(trace, link, PROTOCOLS, page_size=2048).items()
            }
            for app, trace in traces.items()
        }

    table = benchmark.pedantic(runs, rounds=1, iterations=1)
    print()
    for app, completion in table.items():
        print(f"{app}: " + "  ".join(f"{p}={completion[p]:.3f}s" for p in PROTOCOLS))
    for app, completion in table.items():
        lazy_best = min(completion[p] for p in ("LI", "LU"))
        eager_best = min(completion[p] for p in ("EI", "EU"))
        # The paper's conjecture: LRC outperforms eager RC end-to-end.
        assert lazy_best < eager_best, app
        # And both RC families beat the SC exclusive-writer baseline.
        assert eager_best < completion["EW"] or app == "mp3d"
