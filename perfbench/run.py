"""Benchmark launcher for regionmae.

    python3 perfbench/run.py --workload pretrain-96 --seed 1 --seconds 25 --trace 0

Run it from the repository root. It caps BLAS at one thread before numpy
is imported, puts ``src/`` on the path, and prints a
human-readable report followed by one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``). ``--workload all``
runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pretrain-96", "attribute-96", "ingest-96")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        # one process per workload, so that each peak RSS is one workload's
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return next((code for code in codes if code), 0)
    if not (ROOT / "src" / "regionmae" / "__init__.py").is_file():
        print(f"error: no regionmae sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads it. One thread keeps
    # the process on one core, so its CPU time is the work done: idle BLAS
    # threads spin between calls, which adds CPU time and no progress.
    cap = 1
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness

    return harness.main(args, cap, ROOT)


if __name__ == "__main__":
    sys.exit(main())
