#!/usr/bin/env python3
"""Run the default four-domain experiment over all strategies and 10 seeds.

Writes per-run metrics and the strategy comparison under runs/default/.
"""

import sys
from pathlib import Path

from fedswap.harness import default_experiment_config, run_experiment


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("runs/default")
    cfg = default_experiment_config(
        seeds=tuple(range(10)),
        strategies=("clustered", "round_robin", "random", "fedavg_only", "fedprox"),
    )
    summaries = run_experiment(cfg, out)
    print(f"wrote {len(summaries)} runs under {out}")
    print((out / "comparison.txt").read_text(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
