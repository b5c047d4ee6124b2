#!/usr/bin/env python3
"""Record reference.json: final losses and metrics.csv digest of each
workload's reference cell, at full and at tiny size.

Run from the root of a checkout, with the thread pinning run.py applies:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py

Re-record only for a change that is meant to alter simulation results, and
say so where the change is described.
"""

import hashlib
import json
import shutil
import sys

from bench import OUT_ROOT, REFERENCE_PATH, Runner, reference_cell, reference_key
from workloads import WORKLOADS

# Loose enough for a reordered floating-point sum (a fused or batched kernel
# moves final losses in the last bits), far tighter than any change to the
# algorithm, the data or the seed scheme moves them.
RTOL = 1e-6


def main() -> int:
    cells = {}
    root = OUT_ROOT / "record-reference"
    try:
        for name in WORKLOADS:
            for tiny in (False, True):
                with Runner() as runner:
                    cell = reference_cell(runner, name, tiny, root / reference_key(name, tiny))
                if cell.problems:
                    print(f"{name}: {cell.problems}", file=sys.stderr)
                    return 1
                cells[reference_key(name, tiny)] = {
                    "cell": cell.label,
                    "domain_losses": cell.final["domain_losses"],
                    "metrics_sha256": hashlib.sha256(cell.metrics_csv).hexdigest(),
                }
    finally:
        shutil.rmtree(root, ignore_errors=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"rtol": RTOL, "cells": cells}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
