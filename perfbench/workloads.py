"""The benchmark's workloads, declared as data.

Each workload names the traces its set-up generates from the seed and
the pass time it was sized for. The pass bodies live in ``worker.py``
(they need the simulator); this module imports nothing from it, so the
orchestrator in ``run.py`` stays free of simulator imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Every trace uses the paper's processor count.
N_PROCS = 16

#: The lossy link of the timed workload: ethernet_1992 with 2% loss, a
#: 2 ms retransmission timeout and 50 us jitter, as in
#: ``scripts/bench_core.py``.
LOSSY_ETHERNET = dict(loss=0.02, timeout_s=2e-3, jitter_s=5e-5)


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(app, generate() keyword arguments)`` per trace, in pass order.
    traces: Tuple[Tuple[str, Dict[str, float]], ...]
    #: Serial wall time of one cold pass on the reference host (2 shared
    #: x86-64 vCPUs, Python 3.11). ``--seconds`` divided by this fixes
    #: the pass count, so both sides of a comparison measure the same
    #: number of passes and cell samples however fast the code is.
    nominal_pass_s: float


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's evaluation, on the batched/tape path.
        Workload(
            "figures-sweep",
            tuple((app, {}) for app in ("locusroute", "cholesky", "mp3d", "water", "pthor")),
            nominal_pass_s=20.0,
        ),
        # Timed mode: the per-event interpreter, batched layer bypassed.
        Workload(
            "timed-paper-scale",
            (("water", {"scale": 3.0}),),
            nominal_pass_s=10.0,
        ),
        # The report and check paths: the only load on obs and analysis.
        Workload(
            "audit",
            (("locusroute", {}),),
            nominal_pass_s=5.0,
        ),
    )
}


def pass_count(workload: Workload, seconds: float) -> int:
    """Passes that fill ``seconds`` at the workload's nominal pass time."""
    return max(1, round(seconds / workload.nominal_pass_s))
