"""Unfused tape ops, and the level distributions, that only the tests use.

The package fuses ReLU, dropout and the row sums into ``ffnn`` and the
attention pass. These single-purpose nodes rebuild those computations op
by op, as the oracle chain that the fused code is checked against.
``distributions`` is the per-level softmax that the probability checks
read.
"""

import numpy as np

from spancascade import autodiff as ad
from spancascade.errors import DimensionError, EmptyCandidateError


def distributions(scores):
    """Softmax (``autodiff._softmax``) of each active level's scores of a
    ``model.CascadeScores``; keyed by level name."""
    out = {}
    for level, phi in scores.values().active():
        phi = np.asarray(phi)
        if phi.size == 0:
            raise EmptyCandidateError(f"level {level.name} has no candidates")
        out[level.name] = ad._softmax(phi, axis=0)
    return out


def relu(a):
    mask = a.value > 0
    return a.tape._push(np.where(mask, a.value, 0.0), (a.idx,),
                        lambda g: (g * mask,))


def sum_rows(a):
    """Sum a matrix over its rows, returning a vector."""
    if a.value.ndim != 2:
        raise DimensionError(f"sum_rows expects a matrix, got shape {a.value.shape}")
    n = a.value.shape[0]
    return a.tape._push(a.value.sum(axis=0), (a.idx,),
                        lambda g: (np.broadcast_to(g, (n, g.shape[0])),))


def dropout(a, state):
    """Zero units with probability ``rate``; kept units scale by 1/(1-rate)."""
    mask = ad.dropout_mask(state, a.value.shape)
    if mask is None:
        return a
    return a.tape._push(a.value * mask, (a.idx,), lambda g: (g * mask,))
