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
clustered cell of 32 drawn domains of 500 samples each, at 6 rounds.

summary.json is hashed without its "metadata" entry, which holds the
wall-clock time of the run. A mismatch on another host is a finding about the
determinism contract (a run is a pure function of its master seed), not a
reason to regenerate.

Usage: PYTHONPATH=src python3 scripts/regen_golden.py [DIGESTS_JSON]
"""

import os

# one BLAS thread: the digests must not depend on the host's thread count
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

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


def wide_domains(count: int = 32, seed: int = 32) -> tuple[DomainSpec, ...]:
    """count domains of 500 samples with shift and concept drawn from seed."""
    rng = np.random.default_rng(seed)
    shifts = rng.uniform(-1.2, 1.2, size=count)
    concepts = rng.uniform(0.3, 1.8, size=count)
    return tuple(
        DomainSpec(f"w{i:02d}", 500, 16, (float(s),) * 16, float(c), 0.1)
        for i, (s, c) in enumerate(zip(shifts, concepts))
    )


def write_matrix(root: Path) -> None:
    for task in ("regression", "classification"):
        cfg = default_experiment_config(
            rounds=10, seeds=(0, 1), task=task, strategies=STRATEGIES
        )
        run_experiment(cfg, out_dir=root / task / "run")
        ablation_T(cfg, T_VALUES, out_dir=root / task / "ablate_t")
        half = default_experiment_config(
            rounds=10, seeds=(0,), task=task, strategies=("clustered",),
            data_fraction=0.5,
        )
        run_experiment(half, out_dir=root / task / "fraction")
    wide = ExperimentConfig(
        rounds=6, strategies=("clustered",), seeds=(0,), domains=wide_domains()
    )
    run_experiment(wide, out_dir=root / "wide32")


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


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else DIGESTS
    with tempfile.TemporaryDirectory() as tmp:
        write_matrix(Path(tmp))
        table = digests(Path(tmp))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
