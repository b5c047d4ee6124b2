"""Server round loop: schedule branch, aggregation, exchange, redistribution.

The server alternates between two actions on a fixed period T: at rounds
divisible by T it aggregates uploads into a global decoder via a weighted
average; at every other round it redistributes them by the plan that the
strategy's row in STRATEGIES builds. Only the clustered protocol clusters the
uploads by cosine distance first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .clients import (
    ClientState,
    evaluate,
    local_train,
    local_train_fedprox,
)
from .clustering import build_distance_matrix, cluster_to_two
from .errors import ConfigInvalid, FedswapError
from .exchange import (
    build_clustered_plan,
    build_random_plan,
    build_round_robin_plan,
)
from .params import AggregationWeights, ParamVector, weighted_average

__all__ = [
    "AGGREGATE",
    "EXCHANGE",
    "WARMUP",
    "STRATEGIES",
    "ServerConfig",
    "ServerState",
    "RoundRecord",
    "derive_seed",
    "schedule_decision",
    "run_round",
    "run_simulation",
]

AGGREGATE = "aggregate"
EXCHANGE = "exchange"
WARMUP = "warmup"

# seed-derivation purpose tags; changing a value changes every stream derived from it
PURPOSES = {"init": 0, "concept": 1, "domain": 2, "backbone": 3,
            "train": 4, "exchange": 5, "warmup": 6}


def derive_seed(master_seed: int, *path: int) -> int:
    """Stable per-purpose seed: SeedSequence entropy [master, *path].

    Every random draw in a simulation flows through here, so a run is a pure
    function of master_seed and the (purpose, round, client) path.
    """
    entries = [int(master_seed)] + [int(p) for p in path]
    if any(e < 0 for e in entries):
        raise ConfigInvalid(f"seed path entries must be non-negative, got {entries}")
    ss = np.random.SeedSequence(entries)
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ServerConfig:
    """Protocol settings for one simulation."""

    rounds: int
    aggregation_frequency: int
    strategy: str = "clustered"
    warmup_rounds: int = 5
    master_seed: int = 0

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigInvalid(f"rounds must be >= 1, got {self.rounds}")
        if self.aggregation_frequency < 1:
            raise ConfigInvalid(
                f"aggregation_frequency must be >= 1, got {self.aggregation_frequency}"
            )
        if self.rounds % self.aggregation_frequency != 0:
            raise ConfigInvalid(
                f"rounds ({self.rounds}) must be divisible by aggregation_frequency "
                f"({self.aggregation_frequency}) so the final round aggregates"
            )
        if self.strategy not in STRATEGIES:
            raise ConfigInvalid(
                f"unknown strategy {self.strategy!r}; expected one of {tuple(STRATEGIES)}"
            )
        if STRATEGIES[self.strategy].plan is None and self.aggregation_frequency != 1:
            raise ConfigInvalid(
                f"strategy {self.strategy!r} aggregates every round; "
                f"set aggregation_frequency=1"
            )
        if self.warmup_rounds < 0:
            raise ConfigInvalid(f"warmup_rounds must be >= 0, got {self.warmup_rounds}")
        if self.master_seed < 0:
            raise ConfigInvalid(f"master_seed must be non-negative, got {self.master_seed}")


@dataclass
class RoundRecord:
    """One row of the simulation trace; metrics are filled after redistribution.

    Warm-up rows carry non-positive round indices and decision "warmup".
    assignment is the two-cluster split behind a clustered exchange.
    """

    round_index: int
    decision: str
    strategy_tag: str
    assignment: Optional[tuple[int, ...]] = None
    plan: Optional[tuple[int, ...]] = None
    domain_losses: tuple[float, ...] = ()
    domain_accuracies: Optional[tuple[float, ...]] = None
    avg_loss: float = float("nan")
    std_loss: float = float("nan")


@dataclass
class ServerState:
    current_round: int = 0
    last_plan: Optional[tuple[int, ...]] = None
    trace: list[RoundRecord] = field(default_factory=list)


def schedule_decision(r: int, T: int) -> str:
    """Aggregate iff the 1-based round index is a multiple of T."""
    if r < 1 or T < 1:
        raise ConfigInvalid(f"round index and frequency must be >= 1, got r={r}, T={T}")
    return AGGREGATE if r % T == 0 else EXCHANGE


@dataclass(frozen=True)
class Strategy:
    """One row of STRATEGIES.

    plan(cfg, state, uploads) builds an exchange round's ExchangePlan and
    returns it with the cluster assignment it was built from, if any; None
    means the strategy aggregates every round. proximal adds FedProx's pull
    toward the decoder a client starts the round with to local training.
    """

    plan: Optional[Callable]
    proximal: bool = False


# The builders look up the clustering and exchange functions in this module's
# namespace at call time, so wrappers patched onto those names see every call.
def _clustered_plan(cfg, state, uploads):
    ca = cluster_to_two(build_distance_matrix(uploads))
    seed = derive_seed(cfg.master_seed, PURPOSES["exchange"], state.current_round)
    plan = build_clustered_plan(ca, state.last_plan, seed)
    return plan, ca.index_list


def _round_robin_plan(cfg, state, uploads):
    return build_round_robin_plan(len(uploads), state.current_round), None


def _random_plan(cfg, state, uploads):
    seed = derive_seed(cfg.master_seed, PURPOSES["exchange"], state.current_round)
    return build_random_plan(len(uploads), seed), None


STRATEGIES = {
    "clustered": Strategy(_clustered_plan),
    "round_robin": Strategy(_round_robin_plan),
    "random": Strategy(_random_plan),
    "fedavg_only": Strategy(None),
    "fedprox": Strategy(None, proximal=True),
}


def _aggregate(state: ServerState, uploads: Sequence[ParamVector],
               weights: AggregationWeights, cfg: ServerConfig,
               round_index: int, decision: str) -> list[ParamVector]:
    """Deliver the uploads' weighted average to every client and append the
    round's record (metrics unfilled) to state.trace."""
    global_decoder = weighted_average(uploads, weights)
    state.trace.append(RoundRecord(round_index, decision, cfg.strategy))
    return [global_decoder] * len(uploads)


def run_round(
    state: ServerState,
    uploads: Sequence[ParamVector],
    weights: AggregationWeights,
    cfg: ServerConfig,
) -> list[ParamVector]:
    """Process one protocol round's uploads; returns the per-client deliveries.

    Appends a RoundRecord (metrics unfilled) to state.trace. On aggregation
    every client receives the same weighted average; on exchange the
    strategy's plan builder runs, client i receives uploads[plan.assignment[i]]
    and the plan becomes state.last_plan.
    """
    r = state.current_round
    n = len(uploads)
    if n != len(weights):
        raise ConfigInvalid(
            f"round {r}: got {n} uploads for {len(weights)} aggregation weights"
        )
    decision = schedule_decision(r, cfg.aggregation_frequency)
    try:
        if decision == AGGREGATE:
            return _aggregate(state, uploads, weights, cfg, r, AGGREGATE)
        plan, assignment = STRATEGIES[cfg.strategy].plan(cfg, state, uploads)
        state.last_plan = plan.assignment
        state.trace.append(RoundRecord(
            r, EXCHANGE, cfg.strategy, assignment=assignment, plan=plan.assignment
        ))
        return [uploads[j] for j in plan.assignment]
    except FedswapError as exc:
        if str(exc).startswith(f"round {r}:"):
            raise
        raise type(exc)(f"round {r}: {exc}") from exc


def _train_all(clients: Sequence[ClientState], cfg: ServerConfig,
               purpose: str, r: int) -> list[ParamVector]:
    """Every client's upload after local training from its current decoder."""
    proximal = STRATEGIES[cfg.strategy].proximal
    uploads = []
    for i, client in enumerate(clients):
        seed = derive_seed(cfg.master_seed, PURPOSES[purpose], r, i)
        start = client.decoder
        uploads.append(
            local_train_fedprox(start, client, start, client.config.prox_mu, seed)
            if proximal else local_train(start, client, seed)
        )
    return uploads


def _redistribute(record: RoundRecord, clients: Sequence[ClientState],
                  deliveries: Sequence[ParamVector]) -> None:
    """Hand client i deliveries[i] and fill the record's metrics from them."""
    for client, decoder in zip(clients, deliveries):
        client.decoder = decoder
    results = [evaluate(dec, cl) for dec, cl in zip(deliveries, clients)]
    losses = np.array([res.loss for res in results])
    record.domain_losses = tuple(float(v) for v in losses)
    record.avg_loss = float(np.mean(losses))
    record.std_loss = float(np.std(losses))
    if all(res.accuracy is not None for res in results):
        record.domain_accuracies = tuple(float(res.accuracy) for res in results)


def run_simulation(
    cfg: ServerConfig, clients: Sequence[ClientState]
) -> tuple[RoundRecord, ...]:
    """Warm-up then R protocol rounds; returns the trace.

    Every client starts from one shared randomly initialized decoder. Each
    warm-up round trains locally and aggregates, so clients enter round 1
    with identical decoders. Protocol rounds follow the schedule branch.
    The whole trace is a pure function of cfg.master_seed.
    """
    if len(clients) < 2:
        raise ConfigInvalid(f"need at least 2 clients, got {len(clients)}")
    dims = {c.backbone.decoder_dim for c in clients}
    if len(dims) != 1:
        raise ConfigInvalid(f"clients disagree on decoder dimension: {sorted(dims)}")
    dim = dims.pop()

    init_rng = np.random.default_rng(derive_seed(cfg.master_seed, PURPOSES["init"]))
    initial = ParamVector(init_rng.normal(0.0, 0.1, size=dim))
    for client in clients:
        client.decoder = initial

    weights = AggregationWeights.from_sizes([c.train_size for c in clients])
    state = ServerState()

    for w in range(1, cfg.warmup_rounds + 1):
        uploads = _train_all(clients, cfg, "warmup", w)
        deliveries = _aggregate(state, uploads, weights, cfg,
                                w - cfg.warmup_rounds, WARMUP)
        _redistribute(state.trace[-1], clients, deliveries)

    for r in range(1, cfg.rounds + 1):
        state.current_round = r
        deliveries = run_round(state, _train_all(clients, cfg, "train", r), weights, cfg)
        _redistribute(state.trace[-1], clients, deliveries)

    return tuple(state.trace)
