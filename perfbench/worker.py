"""One child process of the benchmark: a set-up or one cold pass.

    python3 perfbench/worker.py setup --workload W --seed N --dir D
    python3 perfbench/worker.py pass --workload W --dir D [--traced]

``setup`` generates the workload's traces from the seed and writes them
to ``D`` as ``.trcb`` files. ``pass`` reads those bytes (the only input
the program receives) and times one cold pass through the public API.
Each pass is a fresh process, so every program cache starts empty. The
child prints one JSON line: pass wall, per-cell times, peak RSS, a digest
of every cell's simulated statistics, output checks and layer counts.
With ``--traced`` the layer entry points are wrapped (see ``layers.py``)
and the per-layer self times are added.
"""

from __future__ import annotations

import time

#: Start of a set-up's timed region: every import below is part of it.
STARTED = time.perf_counter()

import argparse
import gc
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from layers import SELF_LAYERS, Tracer, install
from repro.analysis import checker, critical_path, epoch_report
from repro.apps import APPS
from repro.common.errors import ConsistencyViolation
from repro.config import PAPER_PAGE_SIZES
from repro.experiments.figures import expected_shapes
from repro.hb.skeleton import plan_stats
from repro.network.link import LinkModel
from repro.protocols.registry import all_protocol_names, protocol_names
from repro.simulator import engine
from repro.simulator import sweep as sweep_mod
from repro.trace import codec
from workloads import LOSSY_ETHERNET, N_PROCS, WORKLOADS, Workload

PAGE_SIZE = 4096
AUDIT_PROTOCOLS = ("LI", "LU", "EI", "EU")

#: Per-layer counts read from a pass's outputs. Every pass reports all
#: of them; a layer the workload does not exercise counts 0.
COUNTS = (
    "trace.events",
    "protocols.misses",
    "protocols.diffs_fetched",
    "protocols.intervals_closed",
    "protocols.notices_sent",
    "network.messages",
    "network.data_kb",
    "network.retries",
    "network.sim_completion_s",
    "obs.span_count",
    "analysis.reads_checked",
    "analysis.violations",
    "experiments.shape_checks",
    "experiments.shape_failures",
)


class Cells:
    """Host time of each cell of a pass: ``(name, seconds, trace events)``."""

    def __init__(self) -> None:
        self.rows: List[Tuple[str, float, int]] = []

    def run(self, name: str, events: int, fn, *args, **kwargs):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        self.rows.append((name, time.perf_counter() - start, events))
        return value


# -- pass bodies: everything here is inside the timed region ---------------
# Entry points are called through their modules, so the traced run's
# wrappers (layers.install) see every call.


def figures_sweep(blobs, cells: Cells):
    """``run_sweep`` over the paper's grid for each SPLASH trace.

    One cell per ``run_sweep`` call: the serial sweep loop is the same
    Engine per (protocol, page size) on one TraceStream, so the grid,
    the memos it shares and their build order match one whole-grid call.
    """
    sweeps = {}
    for app, data in blobs:
        trace = codec.load_binary(io.BytesIO(data))
        grid = sweep_mod.SweepResult(
            app=trace.meta.app, protocols=protocol_names(), page_sizes=list(PAPER_PAGE_SIZES)
        )
        for protocol in grid.protocols:
            for size in grid.page_sizes:
                part = cells.run(
                    f"{app}/{protocol}/{size}", len(trace),
                    sweep_mod.run_sweep, trace, [protocol], [size], jobs=1,
                )
                grid.grid.update(part.grid)
        sweeps[app] = grid
    return sweeps


def timed_paper_scale(blobs, cells: Cells):
    """Every protocol, timed over the lossy link, on one large trace."""
    ((_app, data),) = blobs
    trace = codec.load_binary(io.BytesIO(data))
    link = LinkModel.ethernet_1992(**LOSSY_ETHERNET)
    return {
        protocol: cells.run(
            protocol, len(trace),
            engine.simulate, trace, protocol, page_size=PAGE_SIZE, link_model=link,
        )
        for protocol in all_protocol_names()
    }


def audit(blobs, cells: Cells):
    """Per protocol: the ``lrc-sim report`` path, then ``check_protocol``."""
    ((_app, data),) = blobs
    trace = codec.load_binary(io.BytesIO(data))

    def report(protocol):
        result, timeline = epoch_report.run_with_spans(trace, protocol, page_size=PAGE_SIZE)
        result.spans = critical_path.analyze_critical_path(timeline).rollups()
        return result, timeline, epoch_report.format_report(result, timeline=timeline)

    def check(protocol):
        try:
            return checker.check_protocol(trace, protocol, page_size=PAGE_SIZE)
        except ConsistencyViolation as exc:
            return exc

    return [
        (
            protocol,
            cells.run(f"report/{protocol}", len(trace), report, protocol),
            cells.run(f"check/{protocol}", len(trace), check, protocol),
        )
        for protocol in AUDIT_PROTOCOLS
    ]


# -- output checks and counts: outside the timed region --------------------


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def result_digest(result) -> str:
    """Every simulated statistic of one cell (wall-clock fields dropped)."""
    stats = result.to_dict()
    stats.pop("manifest", None)
    return digest(stats)


def add_result_counts(counts, result) -> None:
    counts["protocols.misses"] += result.misses
    counts["protocols.diffs_fetched"] += result.diffs_fetched
    counts["protocols.intervals_closed"] += result.counters.get("intervals_closed", 0)
    counts["protocols.notices_sent"] += result.counters.get("notices_sent", 0)
    counts["network.messages"] += result.messages
    counts["network.data_kb"] += result.data_kbytes
    if result.timing is not None:
        counts["network.retries"] += result.timing["retries"]
        counts["network.sim_completion_s"] += result.timing["completion_s"]


def verify_figures(sweeps, digests, checks, counts) -> None:
    for app, sweep in sweeps.items():
        counts["trace.events"] += next(iter(sweep.grid.values())).events
        for (protocol, size), result in sweep.grid.items():
            digests[f"{app}/{protocol}/{size}"] = result_digest(result)
            add_result_counts(counts, result)
        for name, shape in expected_shapes(app).items():
            ok = bool(shape(sweep))
            checks.append((f"shape {app}: {name}", ok))
            counts["experiments.shape_checks"] += 1
            counts["experiments.shape_failures"] += not ok


def verify_timed(results, digests, checks, counts) -> None:
    counts["trace.events"] += next(iter(results.values())).events
    for protocol, result in results.items():
        digests[protocol] = result_digest(result)
        add_result_counts(counts, result)
        checks.append((f"timed {protocol}: completion > 0", result.timing["completion_s"] > 0))


def verify_audit(rows, digests, checks, counts) -> None:
    counts["trace.events"] += rows[0][1][0].events
    for protocol, (result, timeline, text), report in rows:
        digests[f"report/{protocol}"] = digest([result_digest(result), len(timeline.spans)])
        add_result_counts(counts, result)
        counts["obs.span_count"] += len(timeline.spans)
        checks.append((f"report {protocol}: epoch sums == run totals",
                       "reconciliation: epoch sums == run totals" in text))
        checks.append((f"report {protocol}: span audit reconciles",
                       "span audit: timeline epoch rows == metrics snapshot" in text))
        if isinstance(report, Exception):
            checks.append((f"check {protocol}: {report}", False))
            counts["analysis.violations"] += 1
            continue
        digests[f"check/{protocol}"] = digest(
            [report.reads_checked, report.reads_racy, report.violations]
        )
        counts["analysis.reads_checked"] += report.reads_checked
        counts["analysis.violations"] += len(report.violations)
        checks.append((f"check {protocol}: zero violations", report.ok))


PASSES = {
    "figures-sweep": (figures_sweep, verify_figures),
    "timed-paper-scale": (timed_paper_scale, verify_timed),
    "audit": (audit, verify_audit),
}


# -- modes -----------------------------------------------------------------


def setup(workload: Workload, seed: int, directory: Path) -> Dict[str, object]:
    generate_s = 0.0
    sha256 = {}
    for app, params in workload.traces:
        start = time.perf_counter()
        trace = APPS[app](n_procs=N_PROCS, seed=seed, **params)
        generate_s += time.perf_counter() - start
        buffer = io.BytesIO()
        codec.dump_binary(trace, buffer)
        data = buffer.getvalue()
        (directory / f"{app}.trcb").write_bytes(data)
        sha256[app] = hashlib.sha256(data).hexdigest()
    return {
        "setup_s": time.perf_counter() - STARTED,
        "generate_s": generate_s,
        "sha256": sha256,
    }


def layer_report(tracer, wall_s: float, plan_delta: Dict[str, int]) -> Dict[str, float]:
    self_s = tracer.layer_self_s()
    calls = tracer.layer_calls()
    out = {f"{layer}_s": self_s.get(layer, 0.0) for layer in SELF_LAYERS}
    attributed = sum(out.values())
    sweep_s, replay_in_sweep_s = tracer.inclusive_under("protocols.replay", "simulator.sweep")
    builds = sum(v for k, v in plan_delta.items() if k.endswith("_builds"))
    hits = sum(v for k, v in plan_delta.items() if k.endswith("_hits"))
    out.update({
        "hb.fetch_plan_calls": calls.get("hb.fetch_plan", 0),
        "hb.plan_builds": builds,
        "hb.plan_hit_ratio": hits / (builds + hits) if builds + hits else 0.0,
        "network.send_calls": calls.get("network.send", 0),
        "protocols.lazy_cell_s": tracer.tagged_s.get("lazy", 0.0),
        "protocols.eager_cell_s": tracer.tagged_s.get("eager", 0.0),
        "simulator.sweep_overhead_s": sweep_s - replay_in_sweep_s,
        "simulator.traced_wall_s": wall_s,
        "simulator.unattributed_frac": (wall_s - attributed) / wall_s,
        "spans": len(tracer.spans),
        "self_sum_s": attributed,
        "covered_s": tracer.covered_s(),
    })
    return out


def run_pass(workload: Workload, directory: Path, traced: bool) -> Dict[str, object]:
    blobs = [(app, (directory / f"{app}.trcb").read_bytes()) for app, _ in workload.traces]
    body, verify = PASSES[workload.name]
    tracer = None
    if traced:
        tracer = Tracer()
        install(tracer)
    cells = Cells()
    before = plan_stats()
    gc.collect()
    start = time.perf_counter()
    outputs = body(blobs, cells)
    wall_s = time.perf_counter() - start
    after = plan_stats()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out: Dict[str, object] = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "cells": cells.rows}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_report(
            tracer, wall_s, {k: after[k] - before[k] for k in after}
        )
    digests: Dict[str, str] = {}
    checks: List[Tuple[str, bool]] = []
    counts: Dict[str, float] = dict.fromkeys(COUNTS, 0.0)
    verify(outputs, digests, checks, counts)
    out.update(digests=digests, checks=checks, counts=counts)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        out = setup(workload, args.seed, args.dir)
    else:
        out = run_pass(workload, args.dir, args.traced)
    out["repro_file"] = sys.modules["repro"].__file__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
