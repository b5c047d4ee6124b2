"""The clustered plan's rejection sampler as a per-attempt cursor walk.

This is the sampler that `fedswap.exchange.build_clustered_plan` replaced,
its code kept verbatim (under another name, without its docstring) as a test
oracle: each attempt walks the clients in index order with one consumption
cursor per shuffled cluster list. The library states the same delivery as a
rule fixed once per call; the two must give the same plans from the same
random draws.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from fedswap.clustering import ClusterAssignment
from fedswap.errors import InvalidInput
from fedswap.exchange import ExchangePlan

# rejection sampling: this many draws with the history constraint, then
# draws with only the self-derangement constraint until one meets it
_ATTEMPTS_PER_PHASE = 32


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


def oracle_clustered_plan(
    ca: ClusterAssignment, last: Optional[tuple[int, ...]], rng: np.random.Generator
) -> ExchangePlan:
    if not isinstance(ca, ClusterAssignment):
        raise InvalidInput("ca must be a ClusterAssignment")
    n = len(ca.index_list)
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
