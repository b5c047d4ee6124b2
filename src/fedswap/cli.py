"""Command line front end: run experiments, compare runs, sweep T."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConfigInvalid, FedswapError
from .harness import (
    ExperimentConfig,
    ablation_T,
    collect_summaries,
    compare_strategies,
    default_experiment_config,
    load_config,
    run_experiment,
    write_comparison,
)


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default_experiment_config()
    # --strategy and --agg-frequency belong to run only
    strategy = getattr(args, "strategy", None)
    overrides = {
        "seeds": None if args.seed is None else (args.seed,),
        "strategies": None if strategy is None else (strategy,),
        "aggregation_frequency": getattr(args, "agg_frequency", None),
        "rounds": args.rounds,
        "data_fraction": args.data_fraction,
    }
    overrides = {key: value for key, value in overrides.items() if value is not None}
    return replace(cfg, **overrides) if overrides else cfg


def _print_comparison(root: Path) -> None:
    # the harness leaves a comparison exactly when more than one group ran
    if (root / "comparison.txt").exists():
        print((root / "comparison.txt").read_text(), end="")


def _cmd_run(args) -> int:
    summaries = run_experiment(_load(args), args.out)
    print(f"wrote {len(summaries)} run(s) under {args.out}")
    _print_comparison(Path(args.out))
    return 0


def _cmd_compare(args) -> int:
    root = Path(args.in_dir)
    write_comparison(compare_strategies(collect_summaries(root)), root)
    _print_comparison(root)
    return 0


def _cmd_ablate_t(args) -> int:
    try:
        t_values = [int(v) for v in args.t_values.split(",") if v.strip()]
    except ValueError:
        raise ConfigInvalid(f"--t-values must be comma-separated integers, "
                            f"got {args.t_values!r}") from None
    ablation_T(_load(args), t_values, args.out)
    _print_comparison(Path(args.out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedswap",
        description="Deterministic federated-learning simulator with "
                    "clustered decoder exchange",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags every command that runs cells shares
    cells = argparse.ArgumentParser(add_help=False)
    cells.add_argument("--config", help="path to a JSON experiment config")
    cells.add_argument("--seed", type=int, help="run a single seed")
    cells.add_argument("--out", default="runs", help="output directory (default: runs)")
    cells.add_argument("--rounds", type=int, help="protocol rounds R (multiple of T)")
    cells.add_argument("--data-fraction", type=float, dest="data_fraction",
                       help="fraction of each training split to keep, in (0, 1]")

    run = sub.add_parser("run", parents=[cells],
                         help="run an experiment from a JSON config")
    run.add_argument("--strategy", help="run a single strategy")
    run.add_argument("--agg-frequency", type=int, dest="agg_frequency",
                     help="aggregate every T rounds")
    run.set_defaults(func=_cmd_run)

    comp = sub.add_parser("compare", help="aggregate summaries under a directory")
    comp.add_argument("--in", dest="in_dir", required=True,
                      help="directory containing run outputs")
    comp.set_defaults(func=_cmd_compare)

    abl = sub.add_parser("ablate-t", parents=[cells],
                         help="sweep the aggregation frequency")
    abl.add_argument("--t-values", dest="t_values", required=True,
                     help="comma-separated frequencies, e.g. 2,5,10,50")
    abl.set_defaults(func=_cmd_ablate_t)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a diverging run overflows before the finiteness checks report it;
        # numpy's own warnings would only add lines to that one-line error
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (FedswapError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
