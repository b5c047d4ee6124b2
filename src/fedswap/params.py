"""Flat decoder parameter vectors, the cosine-distance kernel, and weighted aggregation.

Every decoder in a simulation is represented as one float64 vector with the
layout the shared backbone fixes (the linear head, then its bias), so vectors
from different clients are directly comparable coordinate by coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInput

__all__ = [
    "ParamVector",
    "AggregationWeights",
    "cosine_distances",
    "weighted_average",
]


def _as_readonly_f64(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise InvalidInput(f"{name} must be one-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ParamVector:
    """An immutable flat decoder: float64 values, the head's weights then its bias."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_readonly_f64(self.values, "values")
        if arr.size < 1:
            raise InvalidInput("ParamVector must hold at least one entry")
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("ParamVector entries must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return int(self.values.size)

    def __repr__(self) -> str:  # avoid dumping long arrays
        return f"ParamVector(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class AggregationWeights:
    """Per-client aggregation weights; non-negative and summing to one."""

    weights: np.ndarray

    _SUM_TOL = 1e-9

    def __post_init__(self):
        arr = _as_readonly_f64(self.weights, "weights")
        if arr.size < 1:
            raise InvalidInput("at least one weight is required")
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


def _common_dim(decoders: Sequence[ParamVector]) -> int:
    """The one dim every decoder shares; raises for none or a mismatch."""
    if len(decoders) == 0:
        raise InvalidInput("no decoders given")
    dim = decoders[0].dim
    for i, d in enumerate(decoders):
        if d.dim != dim:
            raise InvalidInput(f"decoder {i} has dim {d.dim}, expected {dim}")
    return dim


def cosine_distances(decoders: Sequence[ParamVector]) -> np.ndarray:
    """Symmetric matrix of pairwise cosine distances 1 - (a.b)/(|a||b|), in [0, 2].

    Norms are sqrt(vecdot(u, u)); row i is one vecdot of the later decoders with
    decoder i. Each pair gets the bits of its own np.dot, unlike a Gram product
    or an axis norm, which sum in another order. Raises InvalidInput for a zero
    or non-finite norm (a degenerate model must not be hidden by a default
    value) and for a non-finite cosine (an overflowing dot)."""
    _common_dim(decoders)
    u = np.stack([d.values for d in decoders])
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


def weighted_average(
    decoders: Sequence[ParamVector], w: AggregationWeights
) -> ParamVector:
    """Elementwise weighted average sum_i w_i * g_i of same-dim decoders."""
    _common_dim(decoders)
    if len(decoders) != len(w):
        raise InvalidInput(f"{len(decoders)} decoders but {len(w)} weights")
    terms = (weight * dec.values for weight, dec in zip(w.weights, decoders))
    return ParamVector(sum(terms))
