"""Server round loop: schedule branch, aggregation, exchange, redistribution.

The server alternates between two actions on a fixed period T: at rounds
divisible by T it aggregates uploads into a global decoder, their average
weighted by train size; at every other round it redistributes them by the
plan that the strategy's row in STRATEGIES builds. Only the clustered
protocol clusters the uploads by cosine distance first.

Clients, round outcomes and round records are immutable. run_simulation's
locals hold the only state that changes: each client's current decoder, a row
of one read-only (n, D) array (the linear head, then its bias, as the clients'
features fix it), the cell's training Workspace, the last plan and the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .clients import Clients, Workspace, _generator, evaluate, local_train, local_train_fedprox
from .clustering import build_distance_matrix, cluster_to_two
from .errors import ConfigInvalid, FedswapError, InvalidInput, NonFiniteLoss
from .exchange import (
    ExchangePlan,
    build_clustered_plan,
    build_random_plan,
    build_round_robin_plan,
)

AGGREGATE = "aggregate"
EXCHANGE = "exchange"
WARMUP = "warmup"
# cap on rounds and on warmup_rounds, checked before the cell's bulk seed table
# of (warmup_rounds + rounds) x clients entries is built: with harness's
# MAX_CLIENTS, 2e6 client-rounds, about 400 MB at peak; every workload and test
# runs at most 100 rounds
MAX_ROUNDS = 1000

# seed-derivation purpose tags; changing a value changes every stream derived from it
PURPOSES = {"init": 0, "concept": 1, "domain": 2, "backbone": 3,
            "train": 4, "exchange": 5, "warmup": 6}

# SeedSequence's hash (numpy/random/bit_generator.pyx). Its running multipliers do
# not depend on the data: hashmix k xors with _HASH_A[k], multiplies by _HASH_A[k + 1].
_MASK32, _MAX_PATH = 2**32 - 1, 64
_HASH_A, _HASH_B = (np.array([c * pow(m, k, 2**32) % 2**32 for k in range(n)], np.uint32)
                    for c, m, n in ((0x43B0D7E5, 0x931E8875, 4 * _MAX_PATH + 1),
                                    (0x8B51F9DD, 0x58F38DED, 2 * _MAX_PATH + 1)))
# the k of word s mixed into pool word d; column s of the first four rows is unused
_MIX_K = np.array([[4 + 3 * s + d - (d > s) if s < 4 else 4 * s + d for d in range(4)]
                   for s in range(_MAX_PATH)])
_MIX_XOR, _MIX_MUL, _CYCLE = _HASH_A[_MIX_K], _HASH_A[_MIX_K + 1], np.arange(2 * _MAX_PATH) % 4


def _seed_sequence_state(entropy: np.ndarray, n: int) -> np.ndarray:
    """SeedSequence(row).generate_state(n, np.uint32) for every row of the
    (m, L >= 4) uint32 entropy, as wrapping uint32 arithmetic over all rows."""
    def hashmix(v, xor, mul):
        v = (v ^ xor) * mul
        return v ^ (v >> 16)

    pool = hashmix(entropy[:, :4], _HASH_A[:4], _HASH_A[1:5])
    # each pool word into the other three, then each later entry into all four
    for s, (xor, mul) in enumerate(zip(_MIX_XOR[:entropy.shape[1]], _MIX_MUL)):
        word = hashmix((pool if s < 4 else entropy)[:, s:s + 1], xor, mul)
        mixed = pool * np.uint32(0xCA01F9DD) - word * np.uint32(0x4973F715)
        mixed ^= mixed >> 16
        if s < 4:  # a pool word is mixed into the other three, not into itself
            mixed[:, s] = pool[:, s]
        pool = mixed
    return hashmix(pool.take(_CYCLE[:n], 1), _HASH_B[:n], _HASH_B[1:n + 1])


def derive_seed(master_seed, *path, words: int = 1):
    """SeedSequence([master_seed, *path]).generate_state(words, np.uint64), an int for a
    scalar path; integer array entries broadcast, hashed in one pass into a uint64 array of
    their shape (last axis: words, if > 1). Every random draw flows from here. SeedSequence
    hashes missing pool words as zeros, so derive_seed(m, p) == derive_seed(m, p, 0, 0):
    purposes do not collide only because each PURPOSES tag has one path length."""
    entries = (master_seed, *path)
    if len(entries) > _MAX_PATH:
        raise ConfigInvalid(f"seed paths hold at most {_MAX_PATH} entries, got {len(entries)}")
    for a in map(np.asarray, entries):
        bad = (a < 0) | (a > _MASK32) if a.dtype.kind in "iu" else np.ones(a.shape, bool)
        if bad.any():
            raise ConfigInvalid(f"seed entries must be ints in [0, 2**32), got {a[bad][0]}")
    shape = np.broadcast_shapes(*map(np.shape, entries))
    entropy = np.zeros((*shape, max(4, len(entries))), np.uint32)  # padded with zero words
    for i, e in enumerate(entries):
        entropy[..., i] = e
    state = _seed_sequence_state(entropy.reshape(-1, entropy.shape[-1]), 2 * words)
    # each uint64 is a little-endian pair of uint32 words, as numpy assembles it
    seeds = state.astype("<u4", copy=False).view("<u8")
    seeds = seeds.reshape(shape + ((words,) if words > 1 else ()))
    return int(seeds) if seeds.ndim == 0 else seeds


@dataclass(frozen=True)
class ServerConfig:
    """Protocol settings for one simulation. It takes the configured T, refuses T < 1 for
    every strategy, and runs a strategy without an exchange plan at T = 1."""

    rounds: int
    aggregation_frequency: int
    strategy: str = "clustered"
    warmup_rounds: int = 5
    master_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.rounds <= MAX_ROUNDS:
            raise ConfigInvalid(f"rounds must be in [1, {MAX_ROUNDS}], got {self.rounds}")
        if self.aggregation_frequency < 1:
            raise ConfigInvalid(
                f"aggregation_frequency must be >= 1, got {self.aggregation_frequency}"
            )
        if self.strategy not in STRATEGIES:
            raise ConfigInvalid(f"unknown strategy {self.strategy!r}; "
                                f"expected one of {tuple(STRATEGIES)}")
        if STRATEGIES[self.strategy].plan is None:
            object.__setattr__(self, "aggregation_frequency", 1)
        if self.rounds % self.aggregation_frequency != 0:
            raise ConfigInvalid(
                f"rounds ({self.rounds}) must be divisible by aggregation_frequency "
                f"({self.aggregation_frequency}) so the final round aggregates"
            )
        if not 0 <= self.warmup_rounds <= MAX_ROUNDS:
            raise ConfigInvalid(
                f"warmup_rounds must be in [0, {MAX_ROUNDS}], got {self.warmup_rounds}"
            )
        if not 0 <= self.master_seed < 2**32:
            raise ConfigInvalid(f"master_seed must lie in [0, 2**32), got {self.master_seed}")


@dataclass(frozen=True)
class RoundRecord:
    """One row of the simulation trace, built from a RoundOutcome once its
    deliveries are evaluated.

    Warm-up rows carry non-positive round indices and decision "warmup".
    plan is an exchange round's delivery tuple, None in every other round.
    """

    round_index: int
    decision: str
    strategy_tag: str
    plan: Optional[tuple[int, ...]]
    domain_losses: tuple[float, ...]
    domain_accuracies: Optional[tuple[float, ...]]
    avg_loss: float
    std_loss: float


def schedule_decision(r: int, T: int) -> str:
    """Aggregate iff the 1-based round index is a multiple of T."""
    return AGGREGATE if r % T == 0 else EXCHANGE


@dataclass(frozen=True)
class Strategy:
    """One row of STRATEGIES.

    plan(r, rng, last_plan, uploads) builds round r's ExchangePlan from its
    exchange generator; None means the strategy aggregates every round.
    proximal adds FedProx's pull toward the decoder a client starts the round
    with to local training.
    """

    plan: Optional[Callable]
    proximal: bool = False


# The builders look up the clustering and exchange functions in this module's
# namespace at call time, so wrappers patched onto those names see every call.
def _clustered_plan(r, rng, last_plan, uploads):
    return build_clustered_plan(cluster_to_two(build_distance_matrix(uploads)), last_plan, rng)


def _round_robin_plan(r, rng, last_plan, uploads):
    return build_round_robin_plan(len(uploads), r)


def _random_plan(r, rng, last_plan, uploads):
    return build_random_plan(len(uploads), rng)


STRATEGIES = {
    "clustered": Strategy(_clustered_plan),
    "round_robin": Strategy(_round_robin_plan),
    "random": Strategy(_random_plan),
    "fedavg_only": Strategy(None),
    "fedprox": Strategy(None, proximal=True),
}


@dataclass(frozen=True, eq=False)
class RoundOutcome:
    """What one round decided and delivered: deliveries is the read-only
    (n, D) array, row i client i's; plan is the exchange plan, None unless the
    decision is EXCHANGE."""

    decision: str
    deliveries: np.ndarray
    plan: Optional[ExchangePlan] = None


def weighted_average(decoders: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Average of the rows of decoders (n, D), row i weighted by its train size
    over the total, as a read-only (D,) array; raises InvalidInput unless there
    is one positive size per row and the average is finite. Rows are summed one
    at a time in client order, as np.add.accumulate does for every D, while
    np.add.reduce pairs them when D = 1; + 0.0 turns a sum of -0.0 rows into
    +0.0, as the sum from 0 did."""
    u = np.asarray(decoders)
    if u.ndim != 2 or 0 in u.shape:
        raise InvalidInput(f"decoders must be an (n, D) array with n, D >= 1, "
                           f"got shape {u.shape}")
    if len(sizes) != len(u):
        raise InvalidInput(f"{len(u)} decoders but {len(sizes)} train sizes")
    if min(sizes) <= 0:
        raise InvalidInput(f"train sizes must be positive, got {min(sizes)}")
    total = sum(sizes)
    weights = np.array([s / total for s in sizes])
    out = np.add.accumulate(weights[:, None] * u, axis=0)[-1] + 0.0
    if not np.isfinite(out).all():
        raise InvalidInput("aggregated decoder entries must be finite")
    out.setflags(write=False)
    return out


def run_round(
    r: int,
    uploads: np.ndarray,
    sizes: Sequence[int],
    cfg: ServerConfig,
    last_plan: Optional[tuple[int, ...]],
    rng: Optional[np.random.Generator],
) -> RoundOutcome:
    """Process round r's uploads (n, D); rounds r < 1 are warm-up rounds.

    Every decision but EXCHANGE broadcasts to all rows one average weighted
    by the clients' train sizes.
    An exchange runs the strategy's plan builder with the previous exchange
    plan, last_plan, and the round's exchange generator, rng (None in
    warm-up); client i receives uploads[plan.assignment[i]].
    """
    decision = WARMUP if r < 1 else schedule_decision(r, cfg.aggregation_frequency)
    if decision != EXCHANGE:
        return RoundOutcome(decision, np.broadcast_to(weighted_average(uploads, sizes),
                                                      uploads.shape))
    plan = STRATEGIES[cfg.strategy].plan(r, rng, last_plan, uploads)
    deliveries = uploads.take(plan.assignment, axis=0)
    deliveries.setflags(write=False)
    return RoundOutcome(decision, deliveries, plan)


def run_simulation(cfg: ServerConfig, clients: Clients) -> tuple[RoundRecord, ...]:
    """Warm-up then R protocol rounds; returns the trace.

    Every client starts from one shared randomly initialized decoder. Each
    round trains every client in one call on the cell's Workspace, runs
    run_round and scores each delivery on its client's test split. The W
    warm-up rounds, 1 - W..0, all aggregate, so clients enter round 1 with
    identical decoders. The whole trace is a pure function of cfg.master_seed.
    A FedswapError raised in round r, whether in training, run_round or
    evaluation, names the cell's strategy, T and seed, and the round.
    """
    n = len(clients)
    # the initial decoder's, every client-round's and every exchange round's
    # PCG64 state words, hashed for the whole cell in bulk; only the initial
    # decoder and the exchange rounds build a generator from them
    W, R = cfg.warmup_rounds, cfg.rounds
    tags = np.repeat([PURPOSES["warmup"], PURPOSES["train"]], [W, R])
    rounds = np.concatenate([np.arange(1, W + 1), np.arange(1, R + 1)])
    seeds = np.concatenate([
        np.array([derive_seed(cfg.master_seed, PURPOSES["init"])], np.uint64),
        derive_seed(cfg.master_seed, tags[:, None], rounds[:, None], np.arange(n)).ravel(),
        derive_seed(cfg.master_seed, PURPOSES["exchange"], np.arange(1, R + 1))])
    words = derive_seed(seeds & _MASK32, seeds >> 32, words=4)
    train_words, exchange_words = words[1:-R].reshape(W + R, n, 4), words[-R:]
    dim = clients.decoder_dim
    decoders = np.broadcast_to(_generator(words[0]).normal(0.0, 0.1, size=dim), (n, dim))
    work, last_plan, trace = Workspace(clients), None, []
    train = local_train_fedprox if STRATEGIES[cfg.strategy].proximal else local_train

    for r in range(1 - W, R + 1):
        try:
            uploads = train(decoders, work, train_words[W + r - 1])
            exchange = r >= 1 and schedule_decision(r, cfg.aggregation_frequency) == EXCHANGE
            outcome = run_round(r, uploads, clients.train_sizes, cfg, last_plan,
                                _generator(exchange_words[r - 1]) if exchange else None)
            decoders, plan = outcome.deliveries, outcome.plan
            losses, accuracies = evaluate(decoders, clients)
            # np.mean's and np.std's own arithmetic, bit for bit, without their wrappers
            a = np.array(losses)
            avg = float(np.add.reduce(a) / n)
            a -= avg
            std = math.sqrt(np.add.reduce(np.multiply(a, a, out=a)) / n)
            if not np.isfinite(std):  # an overflowing mean makes it inf or NaN too
                raise NonFiniteLoss("test loss std overflows; reduce the learning rate")
        except FedswapError as exc:
            raise type(exc)(f"{cfg.strategy} T={cfg.aggregation_frequency} seed "
                            f"{cfg.master_seed}, round {r}: {exc}") from exc
        trace.append(RoundRecord(r, outcome.decision, cfg.strategy, plan and plan.assignment,
                                 losses, accuracies, avg, std))
        last_plan = plan.assignment if plan else last_plan

    return tuple(trace)
