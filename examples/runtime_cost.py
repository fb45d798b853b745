#!/usr/bin/env python3
"""Simulate LRC's runtime cost — the paper's stated future work (§7).

"We intend to implement LRC to evaluate its runtime cost. The message
and data reductions seen in our simulations seem to indicate that LRC
will outperform eager RC in a software DSM environment."

This example closes that loop with the timed network mode: every
protocol replays the same trace over a link model (per-message software
overhead, wire bandwidth, per-word compute), and per-processor virtual
clocks turn its messages into simulated completion time. Lock grants
and barrier releases carry the sender's clock, so the result is a
parallel completion time, not a serial sum of costs. The message and
byte counts are identical to the counting runs.

Run:  python examples/runtime_cost.py
"""

from repro.analysis.timing_report import compare_timed
from repro.apps import mp3d
from repro.network.link import LinkModel

PROTOCOLS = ("LI", "LU", "EI", "EU")


def show(title: str, trace, link: LinkModel) -> None:
    print(title)
    results = compare_timed(trace, link, PROTOCOLS, page_size=2048)
    baseline = results["EI"].timing["completion_s"]
    for protocol, result in results.items():
        completion = result.timing["completion_s"]
        print(
            f"  {protocol}: {completion:.4f}s simulated, {result.messages} msgs"
            f"   [{completion / baseline:.2f}x EI]"
        )
    print()


def main() -> None:
    print("generating a 16-processor MP3D trace ...")
    trace = mp3d.generate(n_procs=16, seed=3)
    print(f"  {trace!r}\n")

    show("1992 Ethernet-class link (1 ms/message, 10 Mbit/s):", trace, LinkModel.ethernet_1992())
    show("modern cluster link (5 us/message, ~10 GB/s):", trace, LinkModel.modern_cluster())
    print(
        "The lazy protocols send fewer messages and finish first on both\n"
        "links: the paper's conjecture, simulated."
    )


if __name__ == "__main__":
    main()
