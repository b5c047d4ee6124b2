"""Agglomerative average-linkage clustering of uploaded decoders into two clusters.

Starts from singletons and repeatedly merges the pair of clusters with the
smallest average linkage (the mean of all cross-pair cosine distances),
recomputed from the original pairwise matrix after every merge, until exactly
two clusters remain.
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


def _pair_key(ca: tuple[int, ...], cb: tuple[int, ...]) -> tuple[int, int]:
    # deterministic tie-break: sorted pair of the clusters' smallest members
    ra, rb = ca[0], cb[0]
    return (ra, rb) if ra < rb else (rb, ra)


def _merge_to_two(dm: DistanceMatrix) -> tuple[list[tuple[int, ...]], list[MergeStep]]:
    clusters: list[tuple[int, ...]] = [(i,) for i in range(dm.n)]
    merges: list[MergeStep] = []
    while len(clusters) > 2:
        best = None
        for p in range(len(clusters)):
            for q in range(p + 1, len(clusters)):
                link = average_linkage(dm, clusters[p], clusters[q])
                key = (link, _pair_key(clusters[p], clusters[q]))
                if best is None or key < best[0]:
                    best = (key, p, q)
        (link, _), p, q = best
        merged = tuple(sorted(clusters[p] + clusters[q]))
        merges.append(MergeStep(clusters[p], clusters[q], link))
        clusters = [c for k, c in enumerate(clusters) if k not in (p, q)]
        clusters.append(merged)
        clusters.sort(key=lambda c: c[0])
    return clusters, merges


def cluster_to_two(dm: DistanceMatrix) -> ClusterAssignment:
    """Agglomerate singletons by minimal average linkage until two clusters remain.

    The cluster containing decoder 0 is labeled 0. Ties on the minimal
    linkage are broken toward the lexicographically smallest pair of
    cluster representatives (each cluster's smallest member).
    """
    assignment, _ = cluster_to_two_traced(dm)
    return assignment


def cluster_to_two_traced(dm: DistanceMatrix) -> tuple[ClusterAssignment, list[MergeStep]]:
    """Like cluster_to_two, but also returns the merge sequence."""
    if dm.n < 2:
        raise TooFewDecoders(f"need at least two decoders, got {dm.n}")
    clusters, merges = _merge_to_two(dm)
    first, second = clusters
    zero_block = first if 0 in first else second
    return ClusterAssignment.from_members(dm.n, zero_block), merges

