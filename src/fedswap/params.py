"""Decoder arrays, the cosine-distance kernel, and weighted aggregation.

A round's decoders are one (n, D) float64 array, row i client i's, each row
with the layout the shared backbone fixes (the linear head, then its bias),
so rows are directly comparable coordinate by coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInput

__all__ = [
    "AggregationWeights",
    "checked_vector",
    "cosine_distances",
    "weighted_average",
]


def checked_vector(values, name: str) -> np.ndarray:
    """A read-only float64 copy of values, a decoder or weights; raises
    InvalidInput unless it is one-dimensional, non-empty and finite."""
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise InvalidInput(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise InvalidInput(f"{name} must hold at least one entry")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class AggregationWeights:
    """Per-client aggregation weights; finite, non-negative and summing to one."""

    weights: np.ndarray

    _SUM_TOL = 1e-9

    def __post_init__(self):
        arr = checked_vector(self.weights, "weights")
        if np.any(arr < 0.0):
            raise InvalidInput("weights must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > self._SUM_TOL:
            raise InvalidInput(f"weights must sum to 1 (got {total!r})")
        object.__setattr__(self, "weights", arr)

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "AggregationWeights":
        """Weights proportional to local dataset sizes: w_i = n_i / sum(n)."""
        if len(sizes) == 0:
            raise InvalidInput("at least one dataset size is required")
        if any(s <= 0 for s in sizes):
            raise InvalidInput("dataset sizes must be positive")
        total = sum(sizes)
        return cls(np.array([s / total for s in sizes], dtype=np.float64))

    def __len__(self) -> int:
        return int(self.weights.size)


def _rows(decoders) -> np.ndarray:
    """decoders as an (n, D) array with n, D >= 1; raises InvalidInput otherwise."""
    u = np.asarray(decoders)
    if u.ndim != 2 or 0 in u.shape:
        raise InvalidInput(f"decoders must be an (n, D) array with n, D >= 1, "
                           f"got shape {u.shape}")
    return u


def cosine_distances(decoders: np.ndarray) -> np.ndarray:
    """Symmetric matrix of pairwise cosine distances 1 - (a.b)/(|a||b|), in [0, 2],
    between the rows of decoders (n, D).

    Norms are sqrt(vecdot(u, u)); row i is one vecdot of the later decoders with
    decoder i. Each pair gets the bits of its own np.dot, unlike a Gram product
    or an axis norm, which sum in another order. Raises InvalidInput for a zero
    or non-finite norm (a degenerate model must not be hidden by a default
    value) and for a non-finite cosine (an overflowing dot)."""
    u = _rows(decoders)
    cos = np.zeros((len(u), len(u)))
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.vecdot(u, u))
        usable = np.isfinite(norms) & (norms > 0.0)
        if not usable.all():
            i = int(np.argmin(usable))
            raise InvalidInput(f"decoder {i} has norm {norms[i]}, not a finite non-zero one")
        for i in range(len(u) - 1):
            cos[i, i + 1:] = np.vecdot(u[i + 1:], u[i]) / (norms[i] * norms[i + 1:])
    finite = np.isfinite(cos)
    if not finite.all():
        i, j = divmod(int(np.argmin(finite)), len(u))
        raise InvalidInput(f"decoders {i} and {j} have a non-finite cosine")
    # clamp rounding excursions so the result stays in [0, 2] exactly
    upper = np.triu(1.0 - np.clip(cos, -1.0, 1.0), k=1)
    return upper + upper.T


def weighted_average(decoders: np.ndarray, w: AggregationWeights) -> np.ndarray:
    """Elementwise weighted average sum_i w_i * g_i of the rows of decoders
    (n, D), as a read-only (D,) array; raises InvalidInput if it is not finite.
    The rows are summed one at a time in client order: np.add.reduce pairs
    them in another order when D = 1."""
    u = _rows(decoders)
    if len(u) != len(w):
        raise InvalidInput(f"{len(u)} decoders but {len(w)} weights")
    return checked_vector(sum(weight * row for weight, row in zip(w.weights, u)),
                          "aggregated decoder")
