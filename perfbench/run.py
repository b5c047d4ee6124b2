#!/usr/bin/env python3
"""fedswap benchmark: one workload, one run, in a fresh process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper4 --seed 0 --seconds 20 --trace 0

Workloads are paper4, wide64 and ragged16_cls (see perfbench/workloads.py).
--trace 0 prints the end-to-end metrics, with times scaled to a nominal
host speed by a yardstick loop timed around each unit (see bench.py), and
--trace 1 the per-layer ones, in plain wall-clock time. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the two lines before it carry the run's stamp
(git SHA, nproc, versions, thread settings) and information-only facts.

This launcher imports nothing heavy. It pins the BLAS/OpenMP thread count
before numpy can load, then runs bench.py as a child, so that each run's
peak resident memory belongs to that workload alone.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def main() -> int:
    if not (ROOT / "src" / "fedswap" / "__init__.py").is_file():
        print(f"fedswap sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "bench.py"), *sys.argv[1:]]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
