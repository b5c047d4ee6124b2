"""Decoder-to-client delivery plans for exchange rounds.

The clustered plan shuffles each cluster's decoders, then walks the clients
in original index order handing each one the next unconsumed decoder from
the opposite cluster; once the smaller cluster is exhausted, remaining
clients draw from their own shuffled cluster. Round-robin and uniformly
random plans are the ablation variants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clustering import ClusterAssignment
from .errors import InvalidInput

__all__ = [
    "ExchangePlan",
    "build_clustered_plan",
    "build_round_robin_plan",
    "build_random_plan",
]

# rejection sampling: this many draws with the history constraint, then
# draws with only the self-derangement constraint until one meets it
_ATTEMPTS_PER_PHASE = 32


@dataclass(frozen=True)
class ExchangePlan:
    """assignment[i] is the decoder index delivered to client i; a permutation."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        assignment = tuple(int(v) for v in self.assignment)
        n = len(assignment)
        if sorted(assignment) != list(range(n)):
            raise InvalidInput("assignment must be a permutation of 0..n-1")
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
    ca: ClusterAssignment, last: Optional[tuple[int, ...]], rng: np.random.Generator
) -> ExchangePlan:
    """Distance-clustered exchange: in-cluster shuffle plus cross-cluster walk.

    The shuffles are rejection-sampled so that no client receives the decoder
    it just uploaded and, unless last is None (no exchange yet), no client
    receives the same decoder as in last, the previous exchange round's plan.
    If that history constraint is infeasible (e.g. two clients alternating)
    it is dropped after a bounded number of attempts. Draws then go on until
    no client receives its own upload, which every split allows: only the
    larger cluster serves its own clients, and with more than two clients it
    has at least two members. The shuffles are drawn from rng.
    """
    if not isinstance(ca, ClusterAssignment):
        raise InvalidInput("ca must be a ClusterAssignment")
    n = ca.n
    if last is not None and len(last) != n:
        raise InvalidInput(
            f"history length {len(last)} does not match client count {n}"
        )
    members = (list(ca.members_0), list(ca.members_1))
    for attempt in itertools.count():
        shuffled = tuple(
            [m[k] for k in rng.permutation(len(m))] for m in members
        )
        candidate = _cursor_walk(ca.index_list, shuffled)
        if any(candidate[i] == i for i in range(n)):
            continue
        enforce_history = last is not None and attempt < _ATTEMPTS_PER_PHASE
        if enforce_history and any(candidate[i] == last[i] for i in range(n)):
            continue
        return ExchangePlan(tuple(candidate))


def build_round_robin_plan(n: int, round: int) -> ExchangePlan:
    """Cyclic shift by 1 + (round mod (n-1)); every client sees every other decoder."""
    if n < 2:
        raise InvalidInput(f"round robin needs at least two clients, got {n}")
    k = 1 + (round % (n - 1))
    return ExchangePlan(tuple((i + k) % n for i in range(n)))


def build_random_plan(n: int, rng: np.random.Generator) -> ExchangePlan:
    """Uniformly random permutation drawn from rng; fixed points are permitted."""
    if n < 2:
        raise InvalidInput(f"random exchange needs at least two clients, got {n}")
    return ExchangePlan(tuple(int(v) for v in rng.permutation(n)))
