"""The per-pair cosine-distance loop the whole-array kernel replaced, kept as
its bitwise reference: one np.linalg.norm per vector, one np.dot per pair and
a Python min/max clamp."""

import itertools

import numpy as np


def oracle_distance_matrix(values):
    """Pairwise 1 - (a.b)/(|a||b|) of the rows of values, pair by pair."""
    norms = [float(np.linalg.norm(v)) for v in values]
    out = np.zeros((len(values), len(values)))
    for i, j in itertools.combinations(range(len(values)), 2):
        cos = float(np.dot(values[i], values[j])) / (norms[i] * norms[j])
        out[i, j] = out[j, i] = 1.0 - min(1.0, max(-1.0, cos))
    return out
