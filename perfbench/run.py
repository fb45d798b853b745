#!/usr/bin/env python3
"""Cold end-to-end benchmark of the LRC simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; there is no build step, the
simulator is imported from ``src/``. The set-up generates the workload's
traces from the seed and encodes them to ``.trcb`` bytes (several times,
in fresh processes; each child times its own imports, generation and
encoding, and ``setup_s`` is the median). Each measured pass is a
fresh process that decodes those bytes and runs the workload through the
public API with every program cache empty. ``--seconds`` fixes how many
passes run (see ``workloads.pass_count``). Every output is checked: cell
digests against ``digests.json``, the paper's figure shapes, the report
span audit and the consistency checker. ``--trace 1`` adds a traced pass
after each untraced one and reports per-layer self times and counts.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (output checks) and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from layers import SELF_LAYERS
from workloads import WORKLOADS, Workload, pass_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

SETUP_ROUNDS = 11
CHILD_TIMEOUT_S = 170

#: Largest share of a traced pass's wall that may fall outside every
#: wrapped layer. Measured shares are under 0.001 on every workload; a
#: wrapper that stops reaching the name the program calls shows here.
MAX_UNATTRIBUTED = 0.01
#: Float tolerance of the self-time identity, in seconds.
RECONCILE_TOL_S = 1e-6

END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "trace.load_s": "s",
    "trace.compile_s": "s",
    "trace.segment_s": "s",
    "trace.events": "count",
    "hb.skeleton_s": "s",
    "hb.lazy_tape_s": "s",
    "hb.eager_tape_s": "s",
    "hb.fetch_plan_s": "s",
    "hb.fetch_plan_calls": "count",
    "hb.plan_builds": "count",
    "hb.plan_hit_ratio": "ratio",
    "protocols.replay_s": "s",
    "protocols.lazy_cell_s": "s",
    "protocols.eager_cell_s": "s",
    "protocols.misses": "count",
    "protocols.diffs_fetched": "count",
    "protocols.intervals_closed": "count",
    "protocols.notices_sent": "count",
    "network.send_s": "s",
    "network.send_calls": "count",
    "network.messages": "count",
    "network.data_kb": "kB",
    "network.retries": "count",
    "network.sim_completion_s": "sim_s",
    "obs.span_build_s": "s",
    "obs.span_count": "count",
    "analysis.critical_path_s": "s",
    "analysis.report_s": "s",
    "analysis.check_s": "s",
    "analysis.reads_checked": "count",
    "analysis.violations": "count",
    "experiments.shape_checks": "count",
    "experiments.shape_failures": "count",
    "runtime.generate_s": "s",
    "simulator.cell_p50_s": "s",
    "simulator.cell_tail_s": "s",
    "simulator.cell_tail_pct": "pct",
    "simulator.cell_samples": "count",
    "simulator.sweep_s": "s",
    "simulator.simulate_s": "s",
    "simulator.sweep_overhead_s": "s",
    "simulator.traced_wall_s": "s",
    "simulator.unattributed_frac": "ratio",
    "simulator.trace_overhead_frac": "ratio",
}

#: Layer self times that, with the unattributed rest, make up the traced wall.
SELF_TIMES = [f"{layer}_s" for layer in SELF_LAYERS]


class BenchError(Exception):
    """A child failed or the checkout is not what the benchmark expects."""


def child(*args: str) -> Dict[str, object]:
    """Run ``worker.py`` in a fresh interpreter and return its JSON line."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(out["repro_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"worker imported repro from {out['repro_file']}, not {SRC}")
    return out


def tail(samples: List[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples beyond)``: the highest percentile
    with at least 10 samples beyond it, or the maximum below 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def committed_digests(workload: str, seed: int) -> Optional[Dict[str, str]]:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def check_passes(passes, reference) -> List[Tuple[str, bool]]:
    checks: List[Tuple[str, bool]] = []
    for index, result in enumerate(passes):
        checks += [(f"pass {index}: {name}", ok) for name, ok in result["checks"]]
        digests = result["digests"]
        checks.append((
            f"pass {index}: cell digests equal pass 0's", digests == passes[0]["digests"]
        ))
        if reference is not None:
            for cell in sorted(set(digests) | set(reference)):
                checks.append((
                    f"pass {index}: {cell} digest matches digests.json",
                    digests.get(cell) == reference.get(cell),
                ))
        layers = result.get("layers")
        if layers is not None:
            checks += [
                (f"pass {index}: no layer self time is negative",
                 min(layers[name] for name in SELF_TIMES) >= -1e-9),
                (f"pass {index}: Σ layer self times == Σ root spans + hot time outside spans",
                 abs(layers["self_sum_s"] - layers["covered_s"]) <= RECONCILE_TOL_S),
                (f"pass {index}: unattributed share of the traced wall < {MAX_UNATTRIBUTED}",
                 -1e-9 <= layers["simulator.unattributed_frac"] < MAX_UNATTRIBUTED),
            ]
    return checks


def measure(workload: Workload, seed: int, seconds: float, trace: bool, directory: Path) -> int:
    common = ("--workload", workload.name, "--dir", str(directory))
    setups = [child("setup", *common, "--seed", str(seed)) for _ in range(SETUP_ROUNDS)]
    checks = [(
        "set-up bytes identical in every round",
        len({json.dumps(out["sha256"], sort_keys=True) for out in setups}) == 1,
    )]

    # The traced run adds a traced pass after every second untraced one.
    passes = pass_count(workload, seconds)
    untraced, traced = [], []
    for index in range(passes):
        untraced.append(child("pass", *common))
        if trace and (index % 2 == 1 or passes == 1):
            traced.append(child("pass", *common, "--traced"))

    reference = committed_digests(workload.name, seed)
    checks += check_passes(untraced + traced, reference)
    failed = [name for name, ok in checks if not ok]

    wall_s = statistics.median(p["wall_s"] for p in untraced)
    cells = [cell_s for p in untraced for _name, cell_s, _events in p["cells"]]
    tail_s, tail_pct, beyond = tail(cells)
    if trace:
        # Counts repeat exactly in every pass; times are medians.
        measured = {
            **traced[0]["counts"],
            **{name: statistics.median(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]},
            "runtime.generate_s": statistics.median(out["generate_s"] for out in setups),
            "simulator.trace_overhead_frac":
                statistics.median(p["wall_s"] for p in traced) / wall_s - 1.0,
            "simulator.cell_p50_s": statistics.median(cells),
            "simulator.cell_tail_s": tail_s,
            "simulator.cell_tail_pct": tail_pct,
            "simulator.cell_samples": len(cells),
        }
        metrics = {name: measured[name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": wall_s,
            "events_per_s": sum(e for _n, _s, e in untraced[0]["cells"]) / wall_s,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "setup_s": statistics.median(out["setup_s"] for out in setups),
        }
        units = END_TO_END

    print(f"perfbench {workload.name} seed={seed}: {len(untraced)} pass(es)"
          f"{' + traced' if trace else ''}, {len(cells)} cells, {SETUP_ROUNDS} set-ups")
    print("  pass walls (s): " + " ".join(f"{p['wall_s']:.3f}" for p in untraced + traced))
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {units[name]}")
    print(f"  cells: p50 {statistics.median(cells):.6g} s, p{tail_pct:.1f} {tail_s:.6g} s"
          f" (highest percentile with {beyond} of {len(cells)} samples beyond it)")
    if trace:
        layers = traced[0]["layers"]
        print(f"  traced pass 0: {layers['spans']} spans; self times {layers['self_sum_s']:.4f} s"
              f" (root spans + hot time outside them {layers['covered_s']:.4f} s)"
              f" + unattributed {layers['simulator.unattributed_frac']:.4f}"
              f" x {layers['simulator.traced_wall_s']:.4f} s = traced wall;"
              f" overhead {metrics['simulator.trace_overhead_frac']:+.3f} vs untraced")
    if reference is None:
        print(f"  seed {seed} has no committed digests: ran the seed-independent checks only"
              " (determinism, figure shapes, span audit, consistency checker)")
    print(f"  failed_frac = {len(failed)}/{len(checks)} = {len(failed) / len(checks):.4f}")
    for name in failed[:20]:
        print(f"  FAILED: {name}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no simulator sources at {SRC / 'repro'};"
              " run from the root of a source checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        return measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), directory
        )
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
