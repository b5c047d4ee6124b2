"""Flat decoder parameter vectors, the cosine-distance kernel, and weighted aggregation.

Every decoder in a simulation is represented as one float64 vector with the
layout the shared backbone fixes (the linear head, then its bias), so vectors
from different clients are directly comparable coordinate by coordinate.
"""

from __future__ import annotations

import itertools
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

    One norm per decoder and one np.dot per pair, never a Gram product (it
    sums in another order), so each entry depends on its own pair alone.
    Raises InvalidInput for a zero decoder: it signals a degenerate or untrained
    model and must not be hidden by a default value."""
    _common_dim(decoders)
    norms = [float(np.linalg.norm(d.values)) for d in decoders]
    if 0.0 in norms:
        raise InvalidInput(f"decoder {norms.index(0.0)} has zero norm")
    out = np.zeros((len(decoders), len(decoders)))
    for i, j in itertools.combinations(range(len(decoders)), 2):
        cos = float(np.dot(decoders[i].values, decoders[j].values)) / (norms[i] * norms[j])
        # clamp rounding excursions so the result stays in [0, 2] exactly
        out[i, j] = out[j, i] = 1.0 - min(1.0, max(-1.0, cos))
    return out


def weighted_average(
    decoders: Sequence[ParamVector], w: AggregationWeights
) -> ParamVector:
    """Elementwise weighted average sum_i w_i * g_i of same-dim decoders."""
    _common_dim(decoders)
    if len(decoders) != len(w):
        raise InvalidInput(f"{len(decoders)} decoders but {len(w)} weights")
    terms = (weight * dec.values for weight, dec in zip(w.weights, decoders))
    return ParamVector(sum(terms))
