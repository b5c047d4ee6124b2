"""Cosine distances between uploaded decoders, and their agglomerative
average-linkage clustering into two clusters.

The clustering starts from singletons and repeatedly merges the pair of
clusters with the smallest average linkage (the mean of all cross-pair cosine
distances), kept up to date incrementally from running cross-cluster sums,
until exactly two clusters remain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidInput

@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric n x n matrix of pairwise cosine distances, zero diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidInput(f"distance matrix must be square, got {arr.shape}")
        if not np.array_equal(arr, arr.T):
            raise InvalidInput("distance matrix must be symmetric")
        if np.any(np.diag(arr) != 0.0):
            raise InvalidInput("distance matrix diagonal must be zero")
        if np.any(arr < 0.0) or np.any(arr > 2.0):
            raise InvalidInput("distances must lie in [0, 2]")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


@dataclass(frozen=True)
class ClusterAssignment:
    """A two-block partition of decoder indices, as a binary index list.

    merges is the agglomeration that produced it, when there was one, as
    (first, second, linkage) tuples: the two clusters joined and their average
    linkage. It takes no part in equality or hashing."""

    index_list: tuple[int, ...]
    merges: tuple[tuple, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        idx = tuple(int(v) for v in self.index_list)
        if any(v not in (0, 1) for v in idx):
            raise InvalidInput("index list entries must be 0 or 1")
        if all(v == 0 for v in idx) or all(v == 1 for v in idx):
            raise InvalidInput("both clusters must be non-empty")
        object.__setattr__(self, "index_list", idx)

    @property
    def members_0(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.index_list) if v == 0)

    @property
    def members_1(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.index_list) if v == 1)

    @classmethod
    def from_members(
        cls, n: int, members_0: Sequence[int], merges: Sequence[tuple] = ()
    ) -> "ClusterAssignment":
        zero = set(members_0)
        return cls(tuple(0 if i in zero else 1 for i in range(n)), tuple(merges))


def build_distance_matrix(decoders: np.ndarray) -> DistanceMatrix:
    """Pairwise cosine distances 1 - (a.b)/(|a||b|), in [0, 2], between the
    uploaded decoders, the rows of one (n, D) array with n >= 2 and D >= 1.

    Norms are sqrt(vecdot(u, u)); one vecdot takes every pair's dot, so each
    pair gets the bits of its own np.dot, unlike a Gram product or an axis
    norm, which sum in another order. Raises InvalidInput for a zero or
    non-finite norm (a degenerate model must not be hidden by a default value)
    and for a non-finite cosine (an overflowing dot), naming the first pair."""
    u = np.asarray(decoders)
    if u.ndim != 2 or len(u) < 2 or u.shape[1] < 1:
        raise InvalidInput(f"decoders must be an (n, D) array with n >= 2 and D >= 1, "
                           f"got shape {u.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.vecdot(u, u))
        usable = np.isfinite(norms) & (norms > 0.0)
        if not usable.all():
            i = int(np.argmin(usable))
            raise InvalidInput(f"decoder {i} has norm {norms[i]}, not a finite non-zero one")
        cos = np.vecdot(u[:, None], u) / np.multiply.outer(norms, norms)
    np.fill_diagonal(cos, 1.0)  # distance 0 to itself
    finite = np.isfinite(cos)
    if not finite.all():
        # row-major, the first failure lies above the diagonal: (j, i) fails with (i, j)
        i, j = divmod(int(np.argmin(finite)), len(u))
        raise InvalidInput(f"decoders {i} and {j} have a non-finite cosine")
    # clamp rounding excursions so the result stays in [0, 2] exactly
    return DistanceMatrix(1.0 - np.minimum(np.maximum(cos, -1.0), 1.0))


def cluster_to_two(dm: DistanceMatrix) -> ClusterAssignment:
    """Agglomerate singletons by minimal average linkage until two clusters
    remain; the result carries the merge sequence.

    The cluster containing decoder 0 is labeled 0. Ties on the minimal
    linkage are broken toward the lexicographically smallest pair of
    cluster representatives (each cluster's smallest member).

    sums[a, b] is the total distance between the clusters in slots a and b;
    a merge adds row b into row a and mirrors row a into column a, which has
    the column add's bits as dm is exactly symmetric (Lance & Williams 1967).
    A cluster lives in the slot of its smallest member; the diagonal and
    merged-away slots hold inf, so the row-major argmin of linkage = sums /
    outer(sizes, sizes), kept across merges by dividing row a again, is that
    tie-break.
    """
    n = len(dm.entries)
    if n < 2:
        raise InvalidInput(f"need at least two decoders, got {n}")
    sums = dm.entries.copy()
    np.fill_diagonal(sums, np.inf)
    sizes = np.ones(n)
    linkage = sums.copy()  # x / (1.0 * 1.0) == x
    members = [(i,) for i in range(n)]
    merges = []
    for _ in range(n - 2):
        a, b = divmod(int(np.argmin(linkage)), n)
        merges.append((members[a], members[b], float(linkage[a, b])))
        members[a] = tuple(sorted(members[a] + members[b]))
        sizes[a] += sizes[b]
        sums[a] += sums[b]
        sums[:, a] = sums[a]
        sums[b] = sums[:, b] = linkage[b] = linkage[:, b] = np.inf
        linkage[a] = linkage[:, a] = sums[a] / (sizes[a] * sizes)
    return ClusterAssignment.from_members(n, members[0], merges)
