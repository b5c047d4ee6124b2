#!/usr/bin/env python3
"""Ablation sweeps on the default setup: aggregation frequency and data fraction.

Writes runs/ablation_t/ (clustered strategy at T in {2, 5, 10, 40}) and
runs/fractions/ (clustered and fedavg_only at 100/50/10% of the training data),
and prints each root's comparison.txt: the T groups of the sweep, and the
strategies at each fraction, ranked by mean final average loss.
"""

import sys
from pathlib import Path

from fedswap.harness import ablation_T, default_experiment_config, run_experiment


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("runs")
    seeds = tuple(range(10))

    ablation_T(default_experiment_config(seeds=seeds), [2, 5, 10, 40], root / "ablation_t")
    print((root / "ablation_t" / "comparison.txt").read_text(), end="")

    for fraction in (1.0, 0.5, 0.1):
        sub = default_experiment_config(
            seeds=seeds, strategies=("clustered", "fedavg_only"), data_fraction=fraction
        )
        out = root / "fractions" / f"f{fraction:g}"
        run_experiment(sub, out)
        print(f"\nfraction {fraction:g}:")
        print((out / "comparison.txt").read_text(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
