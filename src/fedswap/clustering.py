"""Agglomerative average-linkage clustering of uploaded decoders into two clusters.

Starts from singletons and repeatedly merges the pair of clusters with the
smallest average linkage (the mean of all cross-pair cosine distances), kept
up to date incrementally from running cross-cluster sums, until exactly two
clusters remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidAssignment, OverlappingClusters, TooFewDecoders, ZeroNormVector
from .params import ParamVector, cosine_distance

__all__ = [
    "DistanceMatrix",
    "ClusterAssignment",
    "MergeStep",
    "build_distance_matrix",
    "average_linkage",
    "cluster_to_two",
    "cluster_to_two_traced",
]


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric n x n matrix of pairwise cosine distances, zero diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"distance matrix must be square, got {arr.shape}")
        if not np.array_equal(arr, arr.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diag(arr) != 0.0):
            raise ValueError("distance matrix diagonal must be zero")
        if np.any(arr < 0.0) or np.any(arr > 2.0):
            raise ValueError("distances must lie in [0, 2]")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])


@dataclass(frozen=True)
class ClusterAssignment:
    """A two-block partition of decoder indices, as a binary index list."""

    index_list: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(v) for v in self.index_list)
        if len(idx) < 2:
            raise InvalidAssignment("an assignment needs at least two decoders")
        if any(v not in (0, 1) for v in idx):
            raise InvalidAssignment("index list entries must be 0 or 1")
        if all(v == 0 for v in idx) or all(v == 1 for v in idx):
            raise InvalidAssignment("both clusters must be non-empty")
        object.__setattr__(self, "index_list", idx)

    @property
    def n(self) -> int:
        return len(self.index_list)

    @property
    def members_0(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.index_list) if v == 0)

    @property
    def members_1(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.index_list) if v == 1)

    @classmethod
    def from_members(cls, n: int, members_0: Sequence[int]) -> "ClusterAssignment":
        zero = set(members_0)
        return cls(tuple(0 if i in zero else 1 for i in range(n)))


@dataclass(frozen=True)
class MergeStep:
    """One agglomerative merge: the two clusters joined and their linkage."""

    first: tuple[int, ...]
    second: tuple[int, ...]
    linkage: float


def build_distance_matrix(decoders: Sequence[ParamVector]) -> DistanceMatrix:
    """Pairwise cosine-distance matrix over the uploaded decoders."""
    n = len(decoders)
    if n < 2:
        raise TooFewDecoders(f"need at least two decoders, got {n}")
    for i, d in enumerate(decoders):
        if float(np.linalg.norm(d.values)) == 0.0:
            raise ZeroNormVector(f"decoder {i} has zero norm")
    entries = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d = cosine_distance(decoders[i], decoders[j])
            entries[i, j] = d
            entries[j, i] = d
    return DistanceMatrix(entries)


def average_linkage(dm: DistanceMatrix, ci: Sequence[int], cj: Sequence[int]) -> float:
    """Mean pairwise distance between two disjoint, non-empty clusters."""
    a = tuple(ci)
    b = tuple(cj)
    if not a or not b:
        raise OverlappingClusters("clusters must be non-empty")
    if set(a) & set(b):
        raise OverlappingClusters(f"clusters overlap: {sorted(set(a) & set(b))}")
    total = 0.0
    for u in a:
        for v in b:
            total += dm.entries[u, v]
    return total / (len(a) * len(b))


def cluster_to_two(dm: DistanceMatrix) -> ClusterAssignment:
    """Agglomerate singletons by minimal average linkage until two clusters remain.

    The cluster containing decoder 0 is labeled 0. Ties on the minimal
    linkage are broken toward the lexicographically smallest pair of
    cluster representatives (each cluster's smallest member).
    """
    assignment, _ = cluster_to_two_traced(dm)
    return assignment


def cluster_to_two_traced(dm: DistanceMatrix) -> tuple[ClusterAssignment, list[MergeStep]]:
    """Like cluster_to_two, but also returns the merge sequence.

    sums[a, b] is the total distance between the clusters held in slots a
    and b, so a merge is one row add and one column add (Lance & Williams
    1967). A cluster lives in the slot of its smallest member; the diagonal
    and merged-away slots hold inf. The row-major argmin of the linkage is
    then the tie-break of cluster_to_two.
    """
    n = dm.n
    if n < 2:
        raise TooFewDecoders(f"need at least two decoders, got {n}")
    sums = dm.entries.copy()
    np.fill_diagonal(sums, np.inf)
    sizes = np.ones(n)
    members = [(i,) for i in range(n)]
    merges: list[MergeStep] = []
    for _ in range(n - 2):
        linkage = sums / np.outer(sizes, sizes)
        a, b = divmod(int(np.argmin(linkage)), n)
        merges.append(MergeStep(members[a], members[b], float(linkage[a, b])))
        members[a] = tuple(sorted(members[a] + members[b]))
        sizes[a] += sizes[b]
        sums[a] += sums[b]
        sums[:, a] += sums[:, b]
        sums[b] = sums[:, b] = np.inf
    return ClusterAssignment.from_members(n, members[0]), merges
