"""Workload generator: every config and master seed comes from the workload seed.

A workload is a fixed list of cell kinds (one strategy at one aggregation
frequency and data fraction) that the benchmark cycles through. Cycle c of a
workload runs every kind once under one master seed derived from
(workload seed, c), so a run that completes whole cycles holds the same seed
set in every (strategy, T, fraction) group and its output tree can be compared.

The simulator only ever sees the resulting ``ExperimentConfig`` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from fedswap.clients import DomainSpec
from fedswap.harness import ExperimentConfig, default_experiment_config

# The fixed warm-up cell of every run is the first cell of this workload
# seed; reference.json holds its final losses.
REFERENCE_SEED = 0

# Protocol length at the tiny size the self-test uses. Divisible by every T
# the workloads use, so each cell kind stays valid.
TINY_ROUNDS = 10
TINY_WARMUP = 1
TINY_MAX_DOMAINS = 8

SHIFT_RANGE = (-1.2, 1.2)
CONCEPT_RANGE = (0.3, 1.8)
LABEL_NOISE = 0.1
RAGGED_COUNTS = (8, 1500)


@dataclass(frozen=True)
class CellKind:
    """One strategy at one aggregation frequency and data fraction."""

    strategy: str
    frequency: int = 2
    fraction: float = 1.0

    @property
    def clustered(self) -> bool:
        return self.strategy == "clustered"


@dataclass(frozen=True)
class Workload:
    """A base config plus the cell kinds one cycle runs, in order.

    Every run completes at least min_cycles cycles, however short --seconds
    is, so figures taken from those cycles depend on the workload seed alone.
    """

    name: str
    seed: int
    base: ExperimentConfig
    kinds: tuple[CellKind, ...]
    min_cycles: int

    @property
    def clients(self) -> int:
        return len(self.base.domains)

    @property
    def rounds_per_cell(self) -> int:
        return self.base.warmup_rounds + self.base.rounds

    def master_seed(self, cycle: int) -> int:
        """Master seed of every cell in one cycle, a pure function of the workload seed."""
        ss = _seed_sequence(self.seed, self.name, _CYCLE_STREAM, cycle)
        return int(ss.generate_state(1, np.uint32)[0])

    def cell_config(self, kind: CellKind, master_seed: int) -> ExperimentConfig:
        return replace(
            self.base,
            strategies=(kind.strategy,),
            seeds=(master_seed,),
            aggregation_frequency=kind.frequency,
            data_fraction=kind.fraction,
        )

    def cycle(self, cycle: int) -> list[tuple[CellKind, ExperimentConfig]]:
        seed = self.master_seed(cycle)
        return [(kind, self.cell_config(kind, seed)) for kind in self.kinds]


# independent streams under one workload seed: the cycles' master seeds and
# the draws of the domain specs
_CYCLE_STREAM, _DOMAIN_STREAM = 0, 1


def _seed_sequence(seed: int, name: str, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, _WORKLOAD_TAGS[name], *path])


def _spec_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(_seed_sequence(seed, name, _DOMAIN_STREAM))


def _drawn_domains(rng, counts, input_dim: int, prefix: str) -> tuple[DomainSpec, ...]:
    shifts = rng.uniform(*SHIFT_RANGE, size=len(counts))
    concepts = rng.uniform(*CONCEPT_RANGE, size=len(counts))
    return tuple(
        DomainSpec(
            domain_id=f"{prefix}{i:02d}",
            sample_count=int(count),
            input_dim=input_dim,
            shift=(float(shift),) * input_dim,
            concept_shift=float(concept),
            label_noise=LABEL_NOISE,
        )
        for i, (count, shift, concept) in enumerate(zip(counts, shifts, concepts))
    )


def _ragged_counts(rng, n: int) -> list[int]:
    # log-uniform over RAGGED_COUNTS, one draw per equal-width stratum of the
    # log range, then shuffled: every seed gets the same spread of full-batch
    # and mini-batch clients, so seeds differ in data, not in shape of the mix
    lo, hi = (math.log(v) for v in RAGGED_COUNTS)
    u = (np.arange(n) + rng.uniform(size=n)) / n
    counts = np.rint(np.exp(lo + u * (hi - lo))).astype(int)
    return [int(c) for c in rng.permutation(counts)]


def _paper4(seed: int, tiny: bool) -> Workload:
    kinds = (
        CellKind("clustered", 2),
        CellKind("clustered", 5),
        CellKind("clustered", 10),
        CellKind("clustered", 2, 0.5),
        CellKind("random", 2),
        CellKind("round_robin", 2),
        CellKind("fedavg_only", 1),
        CellKind("fedprox", 1),
    )
    return Workload("paper4", seed, _sized(default_experiment_config(), tiny), kinds, 4)


def _wide64(seed: int, tiny: bool) -> Workload:
    n = TINY_MAX_DOMAINS if tiny else 64
    domains = _drawn_domains(_spec_rng(seed, "wide64"), [500] * n, 16, "w")
    base = ExperimentConfig(domains=domains)
    return Workload("wide64", seed, _sized(base, tiny), (CellKind("clustered", 2),), 2)


def _ragged16_cls(seed: int, tiny: bool) -> Workload:
    n = TINY_MAX_DOMAINS if tiny else 16
    rng = _spec_rng(seed, "ragged16_cls")
    domains = _drawn_domains(rng, _ragged_counts(rng, n), 16, "r")
    base = ExperimentConfig(domains=domains, task="classification")
    kinds = (CellKind("clustered", 2), CellKind("fedprox", 1))
    return Workload("ragged16_cls", seed, _sized(base, tiny), kinds, 4)


def _sized(base: ExperimentConfig, tiny: bool) -> ExperimentConfig:
    if not tiny:
        return base
    return replace(base, rounds=TINY_ROUNDS, warmup_rounds=TINY_WARMUP)


_BUILDERS = {"paper4": _paper4, "wide64": _wide64, "ragged16_cls": _ragged16_cls}
_WORKLOAD_TAGS = {name: i for i, name in enumerate(_BUILDERS)}
WORKLOADS = tuple(_BUILDERS)


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    if seed < 0:
        raise ValueError(f"workload seed must be non-negative, got {seed}")
    return _BUILDERS[name](seed, tiny)
