#!/usr/bin/env python3
"""Regenerate the golden digests of the simulator's output files.

Runs a fixed matrix of experiments into a temporary directory and writes the
SHA-256 of every deterministic output file, keyed by its path under that
directory, to tests/golden/digests.json (or to the path given as the only
argument). tests/test_golden.py runs this script and compares its result with
the committed file, so a change that alters any output byte fails the suite.

The matrix: the default four-domain config at 10 rounds with seeds 0 and 1,
for both tasks, all five strategies and an ablation over T = 1, 2, 5; for both
tasks, one clustered cell at data fraction 0.5 (seed 0, 10 rounds), so a
training split that is a prefix of the drawn samples is covered; plus one
clustered cell of 32 drawn domains of 500 samples each, at 6 rounds; and one
ragged classification population of 8 drawn domains, clustered and fedprox at
6 rounds, whose train sizes 12, 20 and 30 are at most the batch size of 32 (so
those clients train full-batch, in three groups of one batch shape each) and
whose other clients train on mini-batches.

summary.json is hashed without its "metadata" entry, which holds the
wall-clock time of the run. A mismatch on another host is a finding about the
determinism contract (a run is a pure function of its master seed), not a
reason to regenerate.

Usage: PYTHONPATH=src python3 scripts/regen_golden.py [--threads N]
           [--only PART] [DIGESTS_JSON]

--threads runs with N BLAS and OpenMP threads instead of one; --only runs one
part of the matrix (regression, classification, wide32 or ragged8_cls), whose
digests keep their paths, so they can be checked against the committed ones.
"""

import argparse
import os
import sys
from pathlib import Path

PARTS = ("regression", "classification", "wide32", "ragged8_cls")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("digests", nargs="?", type=Path, help="where to write the digests")
    parser.add_argument("--threads", type=int, default=1, help="BLAS threads (default 1)")
    parser.add_argument("--only", choices=PARTS, help="run one part of the matrix")
    return parser.parse_args(argv)


if __name__ == "__main__":
    ARGS = parse_args(sys.argv[1:])
    # the thread count is read when numpy loads: the digests must not depend
    # on the host's setting, so one thread unless --threads says otherwise
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(ARGS.threads)

import hashlib  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from fedswap.clients import DomainSpec  # noqa: E402
from fedswap.harness import (  # noqa: E402
    ExperimentConfig,
    ablation_T,
    default_experiment_config,
    run_experiment,
)

DIGESTS = Path(__file__).resolve().parents[1] / "tests" / "golden" / "digests.json"
STRATEGIES = ("clustered", "round_robin", "random", "fedavg_only", "fedprox")
T_VALUES = (1, 2, 5)
# groups in first-member order: size 12 {0, 3}, mini-batch {1, 4, 7},
# size 20 {2, 5} and size 30 {6}
RAGGED_COUNTS = (12, 300, 20, 12, 500, 20, 30, 250)


def wide_domains(count: int = 32, seed: int = 32) -> tuple[DomainSpec, ...]:
    """count domains of 500 samples with shift and concept drawn from seed."""
    rng = np.random.default_rng(seed)
    shifts = rng.uniform(-1.2, 1.2, size=count)
    concepts = rng.uniform(0.3, 1.8, size=count)
    return tuple(
        DomainSpec(f"w{i:02d}", 500, 16, (float(s),) * 16, float(c), 0.1)
        for i, (s, c) in enumerate(zip(shifts, concepts))
    )


def ragged_domains(counts=RAGGED_COUNTS, seed: int = 8) -> tuple[DomainSpec, ...]:
    """One domain per count, with shift and concept drawn from seed."""
    rng = np.random.default_rng(seed)
    shifts = rng.uniform(-1.2, 1.2, size=len(counts))
    concepts = rng.uniform(0.3, 1.8, size=len(counts))
    return tuple(
        DomainSpec(f"r{i:02d}", count, 16, (float(s),) * 16, float(c), 0.1)
        for i, (count, s, c) in enumerate(zip(counts, shifts, concepts))
    )


def write_part(root: Path, part: str) -> None:
    """Run one part of the matrix into root / part."""
    if part in ("regression", "classification"):
        cfg = default_experiment_config(
            rounds=10, seeds=(0, 1), task=part, strategies=STRATEGIES
        )
        run_experiment(cfg, out_dir=root / part / "run")
        ablation_T(cfg, T_VALUES, out_dir=root / part / "ablate_t")
        half = default_experiment_config(
            rounds=10, seeds=(0,), task=part, strategies=("clustered",),
            data_fraction=0.5,
        )
        run_experiment(half, out_dir=root / part / "fraction")
    elif part == "wide32":
        wide = ExperimentConfig(
            rounds=6, strategies=("clustered",), seeds=(0,), domains=wide_domains()
        )
        run_experiment(wide, out_dir=root / part)
    else:
        ragged = ExperimentConfig(
            rounds=6, strategies=("clustered", "fedprox"), seeds=(0,),
            task="classification", domains=ragged_domains(),
        )
        run_experiment(ragged, out_dir=root / part)


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        summary = json.loads(data)
        summary.pop("metadata")
        data = (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): file_digest(path)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def main(args: argparse.Namespace) -> int:
    out = args.digests or DIGESTS
    with tempfile.TemporaryDirectory() as tmp:
        for part in [args.only] if args.only else PARTS:
            write_part(Path(tmp), part)
        table = digests(Path(tmp))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(ARGS))
