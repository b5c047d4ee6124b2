"""Decoder-to-client delivery plans for exchange rounds.

The clustered plan shuffles each cluster's decoders; the larger cluster's
first |smaller| clients receive the smaller cluster's, and every other client
the larger cluster's. Round-robin and uniformly random plans are the ablation
variants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .clustering import ClusterAssignment
from .errors import InvalidInput

# rejection sampling: this many draws with the history constraint, then
# draws with only the self-derangement constraint until one meets it
_ATTEMPTS_PER_PHASE = 32


@dataclass(frozen=True)
class ExchangePlan:
    """assignment[i] is the decoder index delivered to client i; a permutation.
    clusters, the split (merges included) behind a clustered plan, is not compared."""

    assignment: tuple[int, ...]
    clusters: Optional[ClusterAssignment] = field(default=None, compare=False)

    def __post_init__(self):
        assignment = tuple(int(v) for v in self.assignment)
        n = len(assignment)
        if sorted(assignment) != list(range(n)):
            raise InvalidInput("assignment must be a permutation of 0..n-1")
        object.__setattr__(self, "assignment", assignment)


def build_clustered_plan(
    ca: ClusterAssignment, last: Optional[tuple[int, ...]], rng: np.random.Generator
) -> ExchangePlan:
    """Distance-clustered exchange: in-cluster shuffles delivered across clusters.

    Clients receive decoders in index order: the larger cluster's first
    |smaller| clients the smaller cluster's, all others the larger cluster's.
    The shuffles, drawn from rng, are rejection-sampled so that no client
    receives the decoder it just uploaded and, unless last is None (no
    exchange yet), no client receives the same decoder as in last, the
    previous exchange round's plan. If that history constraint is infeasible
    (e.g. two clients alternating) it is dropped after a bounded number of
    attempts. Draws then go on until no client receives its own upload, which
    every split allows: only the larger cluster serves its own clients, and
    with more than two clients it has at least two members.
    """
    if not isinstance(ca, ClusterAssignment):
        raise InvalidInput("ca must be a ClusterAssignment")
    n = ca.n
    if last is not None and len(last) != n:
        raise InvalidInput(
            f"history length {len(last)} does not match client count {n}"
        )
    clients = np.arange(n)
    members = (np.array(ca.members_0), np.array(ca.members_1))
    big = int(len(members[1]) > len(members[0]))
    # receivers[c]: the clients that receive cluster c's decoders
    crossing = members[big][:len(members[1 - big])]
    receivers = {1 - big: crossing, big: np.delete(clients, crossing)}
    plan = np.empty(n, dtype=np.intp)
    for attempt in itertools.count():
        for c in (0, 1):
            plan[receivers[c]] = members[c][rng.permutation(len(members[c]))]
        if (plan == clients).any():
            continue
        enforce_history = last is not None and attempt < _ATTEMPTS_PER_PHASE
        if enforce_history and (plan == last).any():
            continue
        return ExchangePlan(plan, ca)


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
    return ExchangePlan(rng.permutation(n))
