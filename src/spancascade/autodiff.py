"""Minimal dense reverse-mode differentiation on a flat tape.

Every value is a float64 numpy array recorded as a node on a ``Tape``.
Operations are free functions that push nodes; ``Tape.backward`` walks the
nodes in reverse creation order (a valid topological order by construction)
and accumulates gradients in that fixed order, so repeated runs are
bitwise identical. The ops are the ones the cascade calls, each taking
only the shapes it gives them: ``ffnn`` (one fused node, dropout
included) maps (n, d) rows to (n, w) rows and ``linear`` maps those to
(n,) scores; ``softmax`` runs over a vector or along one axis of a matrix,
``segment_softmax`` along each run of a matrix's columns; ``logsumexp``
maps (n,) to a scalar; ``matmul`` takes 1-D or 2-D operands,
``segment_matmul`` multiplies each column run of one matrix by the
matching row run of another; ``add`` takes equal shapes, matrix + bias row
or anything + scalar; ``scale`` multiplies by a constant; ``transpose``,
``concat``, ``hstack``, ``tile_rows``, ``gather`` and ``segment_sum`` move
entries and rows. A tape built with ``record=False`` runs the same
operations for inference without keeping any node; its one piece of
mutable state is the MAC count, taken under a lock, so threads may score
on it at once.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DimensionError,
    EmptyCandidateError,
    NonFiniteError,
)

Array = np.ndarray


def _f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


class TapeStats:
    """Forward-pass counters (multiply-accumulate count from matmuls);
    ``count`` adds under a lock, so threads sharing a tape lose no MACs."""

    __slots__ = ("macs", "_lock")

    def __init__(self):
        self.macs = 0
        self._lock = threading.Lock()

    def count(self, macs: int) -> None:
        with self._lock:
            self.macs += macs


class Tensor:
    """Handle to one node on a tape; ``value`` is a float64 ndarray."""

    __slots__ = ("tape", "idx", "value")

    def __init__(self, tape, idx, value):
        self.tape = tape
        self.idx = idx
        self.value = value

    def __sub__(self, other):
        return add(self, scale(other, -1.0))

    def __repr__(self):
        return f"Tensor(idx={self.idx}, shape={self.value.shape})"


class Tape:
    """Ordered record of forward operations for one unit of work.

    A recording tape keeps each node's parents and backward function, not
    its value, so a value that no backward reads is freed with its Tensor;
    a non-recording tape (``record=False``) keeps no node and refuses
    ``backward``. Neither inspects the values it computes: ``backward``
    rejects a non-finite root, and callers check their own inputs and
    outputs. A recording tape belongs to one thread; threads may share a
    non-recording one, which only counts MACs (``TapeStats.count``).
    Parameters bound to a tape via ``variable`` are read-only during the
    pass.
    """

    def __init__(self, record=True):
        self.record = record
        self._parents: list[tuple] = []
        self._backwards: list = []
        self._needs: list[bool] = []
        self.variables: dict[str, tuple] = {}  # name -> (node index, shape)
        self.stats = TapeStats()

    def __len__(self):
        return len(self._parents)

    def _push(self, value, parents=(), backward=None, needs=None) -> Tensor:
        value = _f64(value)
        if not self.record:
            return Tensor(self, -1, value)
        if needs is None:
            needs = any(self._needs[p] for p in parents)
        idx = len(self._parents)
        self._parents.append(tuple(parents))
        self._backwards.append(backward)
        self._needs.append(needs)
        return Tensor(self, idx, value)

    def constant(self, value) -> Tensor:
        """Leaf that never receives a gradient (e.g. fixed embeddings)."""
        return self._push(value, needs=False)

    def variable(self, value, name=None) -> Tensor:
        """Trainable leaf; ``name`` registers it for gradient collection."""
        t = self._push(value, needs=True)
        if name is not None:
            if name in self.variables:
                raise ContractError(f"duplicate variable name {name!r}")
            self.variables[name] = (t.idx, t.value.shape)
        return t

    def backward(self, root: Tensor) -> dict[str, Array]:
        """Propagate from a scalar root; returns grads of named variables.

        Traversal is in strictly decreasing node order, so accumulation
        order is deterministic. A variable the root never reaches gets
        exact zeros. Raises NonFiniteError for a non-finite root.
        """
        if not self.record:
            raise ContractError("backward needs a recording tape")
        if root.tape is not self:
            raise ContractError("root tensor belongs to a different tape")
        if root.value.ndim != 0:
            raise ContractError(
                f"backward root must be a scalar, got shape {root.value.shape}"
            )
        if not np.isfinite(root.value):
            raise NonFiniteError(f"non-finite loss {float(root.value)} at the "
                                 f"backward root")
        grads: list[Array | None] = [None] * len(self._parents)
        grads[root.idx] = np.ones((), dtype=np.float64)
        for i in range(root.idx, -1, -1):
            g = grads[i]
            if g is None:
                continue
            back = self._backwards[i]
            if back is None:
                continue
            parents = self._parents[i]
            for p, pg in zip(parents, back(g)):
                if pg is None or not self._needs[p]:
                    continue
                if grads[p] is None:
                    grads[p] = pg
                else:
                    grads[p] = grads[p] + pg
        out = {}
        for name, (i, shape) in self.variables.items():
            out[name] = (np.zeros(shape) if grads[i] is None else
                         np.asarray(grads[i], dtype=np.float64).reshape(shape))
        return out


def _check_same_tape(*tensors):
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ContractError("operands live on different tapes")
    return tape


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for equal shapes, matrix + bias row, or anything + scalar."""
    tape = _check_same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape == bv.shape:
        back = lambda g: (g, g)
    elif bv.ndim == 0:
        back = lambda g: (g, np.sum(g))
    elif av.ndim == 2 and bv.shape == av.shape[1:]:
        back = lambda g: (g, g.sum(axis=0))
    else:
        raise DimensionError(f"cannot add shapes {av.shape} and {bv.shape}")
    return tape._push(av + bv, (a.idx, b.idx), back)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return a.tape._push(a.value * c, (a.idx,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix/vector product for the 2x2 combinations of 1-D and 2-D."""
    tape = _check_same_tape(a, b)
    av, bv = a.value, b.value
    if not (av.ndim in (1, 2) and bv.ndim in (1, 2)
            and av.shape[-1] == bv.shape[0]):
        raise DimensionError(f"matmul shapes {av.shape} and {bv.shape}")
    tape.stats.count(av.size * (bv.shape[1] if bv.ndim == 2 else 1))
    if av.ndim == 2 and bv.ndim == 2:
        back = lambda g: (g @ bv.T, av.T @ g)
    elif av.ndim == 2:
        back = lambda g: (np.outer(g, bv), av.T @ g)
    elif bv.ndim == 2:
        back = lambda g: (bv @ g, np.outer(av, g))
    else:
        back = lambda g: (g * bv, g * av)
    return tape._push(av @ bv, (a.idx, b.idx), back)


def transpose(a: Tensor) -> Tensor:
    if a.value.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got shape {a.value.shape}")
    return a.tape._push(a.value.T, (a.idx,), lambda g: (g.T,))


def concat(xs: list[Tensor]) -> Tensor:
    """Join vectors end to end, or the rows of equal-width matrices."""
    if not xs:
        raise EmptyCandidateError("concat of an empty list")
    tape = _check_same_tape(*xs)
    width = xs[0].value.shape[1:]
    for x in xs:
        if x.value.ndim not in (1, 2) or x.value.shape[1:] != width:
            raise DimensionError(
                f"concat expects vectors or matrices of width {width}, "
                f"got shape {x.value.shape}")
    splits = np.cumsum([x.value.shape[0] for x in xs])[:-1]

    def back(g):
        return tuple(np.split(g, splits))

    return tape._push(np.concatenate([x.value for x in xs]),
                      tuple(x.idx for x in xs), back)


def hstack(xs: list[Tensor]) -> Tensor:
    """Column-concatenate matrices with equal row counts."""
    if not xs:
        raise EmptyCandidateError("hstack of an empty list")
    tape = _check_same_tape(*xs)
    rows = xs[0].value.shape[0]
    widths = []
    for x in xs:
        if x.value.ndim != 2 or x.value.shape[0] != rows:
            raise DimensionError(
                f"hstack expects matrices with {rows} rows, got {x.value.shape}"
            )
        widths.append(x.value.shape[1])

    def back(g):
        return tuple(np.split(g, np.cumsum(widths)[:-1], axis=1))

    return tape._push(np.concatenate([x.value for x in xs], axis=1),
                      tuple(x.idx for x in xs), back)


def tile_rows(a: Tensor, n: int) -> Tensor:
    """Repeat a vector as the rows of an (n, d) matrix."""
    if a.value.ndim != 1:
        raise DimensionError(f"tile_rows expects a vector, got shape {a.value.shape}")
    if n < 1:
        raise ContractError(f"tile_rows needs n >= 1, got {n}")

    def back(g):
        return (g.sum(axis=0),)

    return a.tape._push(np.broadcast_to(a.value, (n, a.value.shape[0])).copy(),
                        (a.idx,), back)


def _check_row_ids(idx: Array, n: int, op: str) -> None:
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise DimensionError(f"{op} row ids must lie in [0, {n}), got "
                             f"{idx.min()}..{idx.max()}")


def _run_sizes(starts, n: int, op: str) -> tuple:
    """(starts, sizes) of consecutive non-empty runs that tile [0, n);
    ``starts`` must rise strictly from 0 and stay below n."""
    starts = np.asarray(starts, dtype=np.intp)
    tiles = starts.ndim == 1 and starts.size > 0 and starts[0] == 0
    sizes = np.diff(starts, append=n) if tiles else None
    if not tiles or sizes.min() < 1:
        raise DimensionError(f"{op} run starts {starts.tolist()} do not split "
                             f"{n} entries into non-empty runs from 0")
    return starts, sizes


def _add_rows(out: Array, idx: Array, rows: Array) -> Array:
    """out[idx[i]] += rows[i] over i in order, in place, and return ``out``,
    a C-contiguous matrix. np.add.at over the flat (row, column) slots adds
    each slot's rows in row order; its 2-D form is several times slower."""
    width = rows.shape[1]
    slots = (idx[:, None] * width + np.arange(width)).ravel()
    np.add.at(out.reshape(-1), slots, rows.ravel())
    return out


def gather(a: Tensor, idx) -> Tensor:
    """Select vector entries or matrix rows by index; backward scatters with add."""
    idx = np.atleast_1d(np.asarray(idx, dtype=np.intp))
    shape = a.value.shape
    if a.value.ndim not in (1, 2):
        raise DimensionError(f"gather expects a vector or matrix, got {shape}")
    _check_row_ids(idx, shape[0], "gather")

    def back(g):
        rows = g.reshape(idx.size, math.prod(shape[1:]))
        sums = np.zeros((shape[0], rows.shape[1]))
        return (_add_rows(sums, idx, rows).reshape(shape),)

    return a.tape._push(a.value[idx], (a.idx,), back)


def segment_sum(a: Tensor, segment_ids, num_segments: int,
                into: Tensor | None = None) -> Tensor:
    """Sum matrix rows that share a segment id, in row order.

    ``into``, an earlier result, gets the rows added to its sums in place
    (no backward reads a sum), each sum continuing in row order: chained
    calls give one call's bits at a cost in rows, not in num_segments.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.intp)
    if a.value.ndim != 2:
        raise DimensionError(f"segment_sum expects a matrix, got {a.value.shape}")
    if segment_ids.shape[0] != a.value.shape[0]:
        raise DimensionError(
            f"{a.value.shape[0]} rows but {segment_ids.shape[0]} segment ids"
        )
    _check_row_ids(segment_ids, num_segments, "segment_sum")
    width = a.value.shape[1]
    if into is None:
        out = _add_rows(np.zeros((num_segments, width)), segment_ids, a.value)
        return a.tape._push(out, (a.idx,), lambda g: (g[segment_ids],))
    _check_same_tape(a, into)
    out = into.value
    if out.shape != (num_segments, width) or not out.flags.c_contiguous:
        raise DimensionError(f"segment_sum into a sum of shape {out.shape}")
    _add_rows(out, segment_ids, a.value)
    return a.tape._push(out, (into.idx, a.idx), lambda g: (g, g[segment_ids]))


def segment_matmul(a: Tensor, b: Tensor, starts) -> Tensor:
    """Per run r of columns of a (m, n) ``a``, the product a[:, r] @ b[r]
    with the matching rows of an (n, d) ``b``; the (runs * m, d) products
    are stacked run by run. Costs m * n * d multiply-accumulates."""
    tape = _check_same_tape(a, b)
    av, bv = a.value, b.value
    if not (av.ndim == bv.ndim == 2 and av.shape[1] == bv.shape[0]):
        raise DimensionError(f"segment_matmul shapes {av.shape} and {bv.shape}")
    starts, sizes = _run_sizes(starts, bv.shape[0], "segment_matmul")
    tape.stats.count(av.size * bv.shape[1])
    runs = [slice(s, s + n) for s, n in zip(starts.tolist(), sizes.tolist())]
    b_needs = tape.record and tape._needs[b.idx]

    def back(g):
        blocks = np.split(g, len(runs))
        ga = np.concatenate([gr @ bv[r].T for gr, r in zip(blocks, runs)],
                            axis=1)
        gb = (np.concatenate([av[:, r].T @ gr for gr, r in zip(blocks, runs)])
              if b_needs else None)
        return ga, gb

    return tape._push(np.concatenate([av[:, r] @ bv[r] for r in runs]),
                      (a.idx, b.idx), back)


# ---------------------------------------------------------------------------
# softmax family


def _softmax(v: Array, axis: int) -> Array:
    shifted = v - v.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = 0) -> Tensor:
    """Softmax of a vector, or of a matrix along ``axis`` (max-subtracted)."""
    shape = a.value.shape
    if not 0 <= axis < a.value.ndim <= 2:
        raise DimensionError(f"softmax along axis {axis} of shape {shape}")
    if shape[axis] == 0:
        raise EmptyCandidateError(f"softmax over an empty axis of shape {shape}")
    y = _softmax(a.value, axis)
    if y.ndim == 1:
        # np.dot, not (g * y).sum(): the two round differently, so the
        # question summary's gradients, and every checkpoint, would change
        back = lambda g: (y * (g - np.dot(g, y)),)
    else:
        back = lambda g: (y * (g - (g * y).sum(axis=axis, keepdims=True)),)
    return a.tape._push(y, (a.idx,), back)


def segment_softmax(a: Tensor, starts) -> Tensor:
    """Softmax of each matrix row over each run of columns that begins at
    one of ``starts``, max-subtracted per run."""
    v = a.value
    if v.ndim != 2:
        raise DimensionError(f"segment_softmax expects a matrix, got {v.shape}")
    starts, sizes = _run_sizes(starts, v.shape[1], "segment_softmax")

    def per_run(x, op):  # op over each run, repeated across its columns
        return np.repeat(op.reduceat(x, starts, axis=1), sizes, axis=1)

    e = np.exp(v - per_run(v, np.maximum))
    y = e / per_run(e, np.add)
    return a.tape._push(y, (a.idx,),
                        lambda g: (y * (g - per_run(g * y, np.add)),))


def logsumexp(a: Tensor) -> Tensor:
    """log(sum(exp(v))) of a 1-D tensor, max-subtracted, exactly summed."""
    if a.value.ndim != 1:
        raise DimensionError(f"logsumexp expects a vector, got {a.value.shape}")
    if a.value.shape[0] == 0:
        raise EmptyCandidateError("logsumexp over an empty set")
    m = a.value.max()
    out = m + np.log(math.fsum(np.exp(a.value - m)))
    soft = _softmax(a.value, axis=0)

    def back(g):
        return (g * soft,)

    return a.tape._push(out, (a.idx,), back)


# ---------------------------------------------------------------------------
# dropout


class DropoutState:
    """Inverted-scaling dropout: active only when training with rate > 0."""

    def __init__(self, rate: float = 0.0, rng: np.random.Generator | None = None,
                 training: bool = False):
        if not 0.0 <= rate < 1.0:
            raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
        if training and rate > 0.0 and rng is None:
            raise ContractError("training-mode dropout needs a random generator")
        self.rate = rate
        self.rng = rng
        self.training = training

    @classmethod
    def off(cls) -> "DropoutState":
        return cls(0.0, None, False)

    @property
    def active(self) -> bool:
        return self.training and self.rate > 0.0


def dropout_mask(state: DropoutState | None, shape) -> Array | None:
    """A fresh inverted-scaling mask of ``shape``; None when dropout is off."""
    if state is None or not state.active:
        return None
    return (state.rng.random(shape) >= state.rate) / (1.0 - state.rate)


# ---------------------------------------------------------------------------
# parameter containers and the two building-block layers


@dataclass
class FfnnParams:
    """Two-layer ReLU net h = ReLU(U @ ReLU(V @ x + a) + b).

    V maps input-dim -> width, U maps width -> width. Fields hold plain
    arrays in storage form and tape Tensors once bound.
    """

    V: object
    a: object
    U: object
    b: object

    @staticmethod
    def shapes(in_dim: int, width: int) -> tuple:
        """Shapes of V, a, U, b, in field order."""
        return (width, in_dim), (width,), (width, width), (width,)

    @classmethod
    def initialize(cls, in_dim: int, width: int, rng: np.random.Generator):
        # biases share the layer's scaled range; an exact-zero bias would
        # park dead-row pre-activations exactly on the ReLU kink
        r1 = np.sqrt(6.0 / (in_dim + width))
        r2 = np.sqrt(6.0 / (2 * width))
        return cls(
            V=_uniform_init(rng, width, in_dim),
            a=rng.uniform(-r1, r1, size=width),
            U=_uniform_init(rng, width, width),
            b=rng.uniform(-r2, r2, size=width),
        )


@dataclass
class LinearParams:
    """Scalar head s = w . h + z; w length equals the width it consumes."""

    w: object
    z: object

    @staticmethod
    def shapes(in_dim: int, width: int) -> tuple:
        """Shapes of w, z, in field order."""
        return (in_dim,), ()

    @classmethod
    def initialize(cls, in_dim: int, rng: np.random.Generator):
        return cls(w=_uniform_init(rng, in_dim), z=np.zeros(()))


def _uniform_init(rng: np.random.Generator, *shape) -> Array:
    # scaled uniform: r = sqrt(6 / (fan_in + fan_out)); for vectors fan_out=1
    if len(shape) == 2:
        fan_in, fan_out = shape[1], shape[0]
    else:
        fan_in, fan_out = shape[0], 1
    r = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-r, r, size=shape)


def ffnn(x: Tensor, p: FfnnParams, drop: DropoutState | None = None,
         masks: tuple | None = None) -> Tensor:
    """Apply the two-layer ReLU net to each row of a matrix.

    One fused node with a hand-written backward. In training mode dropout
    hits both ReLU outputs (inverted scaling, first layer's mask drawn
    first); at inference it is the identity. ``masks``, a (first, second)
    pair of masks drawn earlier, replaces the draws from ``drop``.
    """
    V, a, U, b = p.V, p.a, p.U, p.b
    tape = _check_same_tape(x, V, a, U, b)
    xv, Vv, Uv = x.value, V.value, U.value
    width, in_dim = Vv.shape
    if Uv.shape != (width, width):
        raise DimensionError(
            f"U must be {(width, width)} to chain after V {Vv.shape}, got {Uv.shape}")
    if xv.ndim != 2 or xv.shape[1] != in_dim:
        raise DimensionError(f"ffnn input must be rows of width {in_dim} for "
                             f"V shape {Vv.shape}, got shape {xv.shape}")
    rows = xv.shape[0]
    shape = (rows, width)
    drop1, drop2 = masks or (dropout_mask(drop, shape), dropout_mask(drop, shape))
    if masks and not drop1.shape == drop2.shape == shape:
        raise DimensionError(f"ffnn masks of shapes {drop1.shape} and "
                             f"{drop2.shape} for {rows} rows of width {width}")
    tape.stats.count(rows * in_dim * width + rows * width * width)
    pre1 = xv @ Vv.T
    pre1 += a.value
    on1 = pre1 > 0 if tape.record else None  # ReLU masks, for backward only
    h = np.maximum(pre1, 0.0, out=pre1)
    if drop1 is not None:
        h = h * drop1
    pre2 = h @ Uv.T
    pre2 += b.value
    on2 = pre2 > 0 if tape.record else None
    out = np.maximum(pre2, 0.0, out=pre2)
    if drop2 is not None:
        out = out * drop2
    parents = (x.idx, V.idx, a.idx, U.idx, b.idx)
    if not tape.record:
        return tape._push(out, parents)
    x_needs = tape._needs[x.idx]

    def back(g):
        # same products, in the same order, as the unfused chain of
        # matmul / add / ReLU / dropout nodes
        if drop2 is not None:
            g = g * drop2
        g = g * on2
        gU = (h.T @ g).T
        gb = g.sum(axis=0)
        gh = g @ Uv
        if drop1 is not None:
            gh = gh * drop1
        gh = gh * on1
        gV = (xv.T @ gh).T
        ga = gh.sum(axis=0)
        gx = gh @ Vv if x_needs else None
        return gx, gV, ga, gU, gb

    return tape._push(out, parents, back)


def linear(h: Tensor, p: LinearParams) -> Tensor:
    """Score head: one score w . h_i + z per row of a matrix."""
    if h.value.ndim != 2:
        raise DimensionError(f"linear input must be a matrix of rows, got "
                             f"shape {h.value.shape}")
    return add(matmul(h, p.w), p.z)


# ---------------------------------------------------------------------------
# finite-difference oracle


@dataclass
class GradCheckResult:
    """Worst-case comparison of analytic vs central-difference gradients."""

    max_rel_error: float
    worst_param: str
    worst_index: tuple

    def __repr__(self):
        return (
            f"GradCheckResult(max_rel_error={self.max_rel_error:.3e}, "
            f"worst_param={self.worst_param!r}, worst_index={self.worst_index})"
        )


def finite_difference_check(loss_fn, params: dict[str, Array],
                            epsilon: float = 1e-5) -> GradCheckResult:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` maps the parameter dict to a scalar Tensor on a fresh tape,
    binding each parameter it uses as a tape variable under the same name;
    it must be deterministic (dropout off). Each scalar coordinate is
    perturbed by +/- epsilon in place (and restored). The relative error is
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|), maximized
    over all coordinates. A non-finite loss at any perturbation raises
    NonFiniteError naming the coordinate.
    """
    if not 0.0 < epsilon < math.inf:
        raise ContractError(f"epsilon must be positive and finite, got {epsilon}")
    loss = loss_fn(params)
    grads = loss.tape.backward(loss)
    analytic = {name: grads.get(name, np.zeros_like(arr))
                for name, arr in params.items()}
    worst = GradCheckResult(0.0, "", ())
    for name, arr in params.items():
        grad = analytic[name]
        for ix in np.ndindex(arr.shape):
            orig = arr[ix]
            arr[ix] = orig + epsilon
            up = float(loss_fn(params).value)
            arr[ix] = orig - epsilon
            down = float(loss_fn(params).value)
            arr[ix] = orig
            if not (math.isfinite(up) and math.isfinite(down)):
                raise NonFiniteError(f"non-finite loss at {name}{list(ix)} "
                                     f"+/- {epsilon:g}: {up}, {down}")
            numeric = (up - down) / (2.0 * epsilon)
            a = float(grad[ix])
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if rel > worst.max_rel_error:
                worst = GradCheckResult(rel, name, ix)
    return worst
