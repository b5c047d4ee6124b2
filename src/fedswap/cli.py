"""Command line front end: run experiments, compare runs, sweep T."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import FedswapError
from .harness import (
    ablation_T,
    collect_summaries,
    compare_strategies,
    default_experiment_config,
    load_config,
    render_comparison_text,
    run_experiment,
    write_comparison,
)


def _load(args) -> "ExperimentConfig":
    cfg = load_config(args.config) if args.config else default_experiment_config()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seeds"] = (args.seed,)
    if getattr(args, "strategy", None) is not None:
        overrides["strategies"] = (args.strategy,)
    if getattr(args, "agg_frequency", None) is not None:
        overrides["aggregation_frequency"] = args.agg_frequency
    if getattr(args, "rounds", None) is not None:
        overrides["rounds"] = args.rounds
    if getattr(args, "data_fraction", None) is not None:
        overrides["data_fraction"] = args.data_fraction
    if getattr(args, "out", None) is not None:
        overrides["out_dir"] = args.out
    return replace(cfg, **overrides) if overrides else cfg


def _cmd_run(args) -> int:
    cfg = _load(args)
    summaries = run_experiment(cfg)
    root = Path(cfg.out_dir)
    print(f"wrote {len(summaries)} run(s) under {root}")
    comparison = root / "comparison.txt"
    if comparison.exists():
        print(comparison.read_text(), end="")
    return 0


def _cmd_compare(args) -> int:
    root = Path(args.in_dir)
    comparison = compare_strategies(collect_summaries(root))
    write_comparison(comparison, root)
    print(render_comparison_text(comparison), end="")
    return 0


def _cmd_ablate_t(args) -> int:
    try:
        t_values = [int(v) for v in args.t_values.split(",") if v.strip()]
    except ValueError:
        print(f"error: --t-values must be comma-separated integers, "
              f"got {args.t_values!r}", file=sys.stderr)
        return 2
    cfg = _load(args)
    ablation_T(cfg, t_values)
    print((Path(cfg.out_dir) / "ablation_t.txt").read_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedswap",
        description="Deterministic federated-learning simulator with "
                    "clustered decoder exchange",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a JSON config")
    run.add_argument("--config", help="path to a JSON experiment config")
    run.add_argument("--seed", type=int, help="run a single seed")
    run.add_argument("--out", help="output directory (overrides config)")
    run.add_argument("--strategy", help="run a single strategy")
    run.add_argument("--agg-frequency", type=int, dest="agg_frequency",
                     help="aggregate every T rounds")
    run.add_argument("--rounds", type=int, help="protocol rounds R (multiple of T)")
    run.add_argument("--data-fraction", type=float, dest="data_fraction",
                     help="fraction of each training split to keep, in (0, 1]")
    run.set_defaults(func=_cmd_run)

    comp = sub.add_parser("compare", help="aggregate summaries under a directory")
    comp.add_argument("--in", dest="in_dir", required=True,
                      help="directory containing run outputs")
    comp.set_defaults(func=_cmd_compare)

    abl = sub.add_parser("ablate-t", help="sweep the aggregation frequency")
    abl.add_argument("--config", help="path to a JSON experiment config")
    abl.add_argument("--t-values", dest="t_values", required=True,
                     help="comma-separated frequencies, e.g. 2,5,10,50")
    abl.add_argument("--out", help="output directory (overrides config)")
    abl.add_argument("--seed", type=int, help="run a single seed")
    abl.add_argument("--rounds", type=int, help="protocol rounds R")
    abl.add_argument("--data-fraction", type=float, dest="data_fraction")
    abl.set_defaults(func=_cmd_ablate_t)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a diverging run overflows before the finiteness checks report it;
        # numpy's own warnings would only add lines to that one-line error
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (FedswapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
