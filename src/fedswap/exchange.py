"""Decoder-to-client delivery plans for exchange rounds.

The clustered plan shuffles each cluster's decoders, then walks the clients
in original index order handing each one the next unconsumed decoder from
the opposite cluster; once the smaller cluster is exhausted, remaining
clients draw from their own shuffled cluster. Round-robin and uniformly
random plans are the ablation variants.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clustering import ClusterAssignment
from .errors import InvalidAssignment

__all__ = [
    "ExchangePlan",
    "build_clustered_plan",
    "build_round_robin_plan",
    "build_random_plan",
]

logger = logging.getLogger(__name__)

# bounded rejection sampling: this many draws with the history constraint,
# then this many more with only the self-derangement constraint
_ATTEMPTS_PER_PHASE = 32


@dataclass(frozen=True)
class ExchangePlan:
    """assignment[i] is the decoder index delivered to client i; a permutation."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        assignment = tuple(int(v) for v in self.assignment)
        n = len(assignment)
        if sorted(assignment) != list(range(n)):
            raise InvalidAssignment("assignment must be a permutation of 0..n-1")
        object.__setattr__(self, "assignment", assignment)


def _cursor_walk(
    index_list: tuple[int, ...],
    shuffled: tuple[list[int], list[int]],
) -> list[int]:
    # one consumption cursor per shuffled cluster list; clients draw from the
    # opposite cluster until it is exhausted, then from their own
    cursors = [0, 0]
    assignment = []
    for cluster in index_list:
        other = 1 - cluster
        source = other if cursors[other] < len(shuffled[other]) else cluster
        assignment.append(shuffled[source][cursors[source]])
        cursors[source] += 1
    return assignment


def build_clustered_plan(
    ca: ClusterAssignment, last: Optional[tuple[int, ...]], rng_seed: int
) -> ExchangePlan:
    """Distance-clustered exchange: in-cluster shuffle plus cross-cluster walk.

    The shuffles are rejection-sampled so that no client receives the decoder
    it just uploaded and, unless last is None (no exchange yet), no client
    receives the same decoder as in last, the previous exchange round's plan.
    If that history constraint is infeasible (e.g. two clients alternating)
    it is dropped after a bounded number of attempts; the self-derangement
    constraint is kept.
    """
    if not isinstance(ca, ClusterAssignment):
        raise InvalidAssignment("ca must be a ClusterAssignment")
    n = ca.n
    if last is not None and len(last) != n:
        raise InvalidAssignment(
            f"history length {len(last)} does not match client count {n}"
        )
    rng = np.random.default_rng(rng_seed)
    members = (list(ca.members_0), list(ca.members_1))

    assignment = None
    for attempt in range(2 * _ATTEMPTS_PER_PHASE):
        shuffled = tuple(
            [m[k] for k in rng.permutation(len(m))] for m in members
        )
        candidate = _cursor_walk(ca.index_list, shuffled)
        assignment = candidate
        if any(candidate[i] == i for i in range(n)):
            continue
        enforce_history = last is not None and attempt < _ATTEMPTS_PER_PHASE
        if enforce_history and any(candidate[i] == last[i] for i in range(n)):
            continue
        break
    else:
        # self-derangement is feasible for every valid two-cluster partition,
        # so exhausting both phases means an extremely unlucky draw sequence
        logger.warning(
            "exchange constraints not satisfied after %d attempts; "
            "a client keeps its own decoder",
            2 * _ATTEMPTS_PER_PHASE,
        )
    return ExchangePlan(tuple(assignment))


def build_round_robin_plan(n: int, round: int) -> ExchangePlan:
    """Cyclic shift by 1 + (round mod (n-1)); every client sees every other decoder."""
    if n < 2:
        raise InvalidAssignment(f"round robin needs at least two clients, got {n}")
    k = 1 + (round % (n - 1))
    return ExchangePlan(tuple((i + k) % n for i in range(n)))


def build_random_plan(n: int, rng_seed: int) -> ExchangePlan:
    """Uniformly random permutation; fixed points are permitted."""
    if n < 2:
        raise InvalidAssignment(f"random exchange needs at least two clients, got {n}")
    rng = np.random.default_rng(rng_seed)
    return ExchangePlan(tuple(int(v) for v in rng.permutation(n)))
