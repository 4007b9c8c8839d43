"""Unfused tape ops that only the tests use.

The package fuses ReLU, dropout and the row sums into ``ffnn`` and the
attention pass. These single-purpose nodes rebuild those computations op
by op, as the oracle chain that the fused code is checked against.
"""

import numpy as np

from spancascade import autodiff as ad
from spancascade.errors import DimensionError


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
