#!/usr/bin/env python3
"""Rewrite ``digests.json``: every cell's digest for each shipped seed.

    python3 perfbench/record_digests.py

The benchmark compares each pass's cell digests (a hash of every
simulated statistic of the cell) with this file. A change meant only to
make the simulator faster must leave the file as it is; re-record it
only for a change that is meant to alter simulated results, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import DIGESTS, SRC, WORK, child
from workloads import WORKLOADS

#: The shipped seeds. The file is always rewritten for all of them.
SEEDS = tuple(range(10))


def main() -> int:
    if not (SRC / "repro").is_dir():
        print(f"record_digests: no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    table = {}
    WORK.mkdir(exist_ok=True)
    for name in WORKLOADS:
        table[name] = {}
        for seed in SEEDS:
            directory = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
            try:
                common = ("--workload", name, "--dir", str(directory))
                child("setup", *common, "--seed", str(seed))
                out = child("pass", *common)
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            failed = [check for check, ok in out["checks"] if not ok]
            if failed:
                print(f"record_digests: {name} seed {seed} fails {failed}", file=sys.stderr)
                return 1
            table[name][str(seed)] = out["digests"]
            print(f"{name} seed {seed}: {len(out['digests'])} cells", flush=True)
    WORK.rmdir()
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
