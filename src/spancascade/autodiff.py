"""Minimal dense reverse-mode differentiation on a flat tape.

Every value is a float64 numpy array recorded as a node on a ``Tape``.
Operations are free functions that push nodes; ``Tape.backward`` walks the
nodes in reverse creation order (a valid topological order by construction)
and accumulates gradients in that fixed order, so repeated runs are
bitwise identical. Only the operations the span-scoring cascade needs are
provided: two-layer ReLU nets (one fused node each), linear score heads,
softmax normalization, row gather/scatter, segment sums and log-sum-exp.
There is no broadcasting beyond a bias row / scalar and no GPU support.
A tape built with ``record=False`` runs the same operations for inference
without keeping any node.
"""

from __future__ import annotations

import math
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
    """Forward-pass counters (multiply-accumulate count from matmuls)."""

    __slots__ = ("macs",)

    def __init__(self):
        self.macs = 0


class Tensor:
    """Handle to one node on a tape; ``value`` is a float64 ndarray."""

    __slots__ = ("tape", "idx", "value")

    def __init__(self, tape, idx, value):
        self.tape = tape
        self.idx = idx
        self.value = value

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def item(self) -> float:
        return float(self.value)

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            other = self.tape.constant(other)
        return add(self, scale(other, -1.0))

    def __repr__(self):
        return f"Tensor(idx={self.idx}, shape={self.value.shape})"


class Tape:
    """Ordered record of forward operations for one unit of work.

    A recording tape keeps every node for ``backward``; a non-recording
    tape (``record=False``) keeps none and refuses ``backward``. Neither
    inspects the values it computes: ``backward`` rejects a non-finite
    root, and callers check their own inputs and outputs. A tape is
    single-threaded; parameters bound to it via ``variable`` are read-only
    during the pass.
    """

    def __init__(self, record=True):
        self.record = record
        self._values: list[Array] = []
        self._parents: list[tuple] = []
        self._backwards: list = []
        self._needs: list[bool] = []
        self.variables: dict[str, int] = {}  # name -> node index
        self.stats = TapeStats()

    def __len__(self):
        return len(self._values)

    def _push(self, value, parents=(), backward=None, needs=None) -> Tensor:
        value = _f64(value)
        if not self.record:
            return Tensor(self, -1, value)
        if needs is None:
            needs = any(self._needs[p] for p in parents)
        idx = len(self._values)
        self._values.append(value)
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
            self.variables[name] = t.idx
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
        grads: list[Array | None] = [None] * len(self._values)
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
        for name, i in self.variables.items():
            value = self._values[i]
            out[name] = (np.zeros_like(value) if grads[i] is None else
                         np.asarray(grads[i], dtype=np.float64).reshape(value.shape))
        return out


def _check_same_tape(*tensors):
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ContractError("operands live on different tapes")
    return tape


def _as_tensor(tape, x):
    if isinstance(x, Tensor):
        return x
    return tape.constant(x)


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a: Tensor, b) -> Tensor:
    """a + b for equal shapes, matrix + bias row, or anything + scalar."""
    tape = a.tape
    b = _as_tensor(tape, b)
    _check_same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape == bv.shape:
        back = lambda g: (g, g)
    elif bv.ndim == 0:
        back = lambda g: (g, np.sum(g))
    elif av.ndim == 0:
        back = lambda g: (np.sum(g), g)
    elif av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]:
        back = lambda g: (g, g.sum(axis=0))
    elif bv.ndim == 2 and av.ndim == 1 and bv.shape[1] == av.shape[0]:
        back = lambda g: (g.sum(axis=0), g)
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
    if av.ndim == 2 and bv.ndim == 2:
        if av.shape[1] != bv.shape[0]:
            raise DimensionError(f"matmul shapes {av.shape} and {bv.shape}")
        tape.stats.macs += av.shape[0] * av.shape[1] * bv.shape[1]
        back = lambda g: (g @ bv.T, av.T @ g)
    elif av.ndim == 2 and bv.ndim == 1:
        if av.shape[1] != bv.shape[0]:
            raise DimensionError(f"matmul shapes {av.shape} and {bv.shape}")
        tape.stats.macs += av.shape[0] * av.shape[1]
        back = lambda g: (np.outer(g, bv), av.T @ g)
    elif av.ndim == 1 and bv.ndim == 2:
        if av.shape[0] != bv.shape[0]:
            raise DimensionError(f"matmul shapes {av.shape} and {bv.shape}")
        tape.stats.macs += bv.shape[0] * bv.shape[1]
        back = lambda g: (bv @ g, np.outer(av, g))
    elif av.ndim == 1 and bv.ndim == 1:
        if av.shape[0] != bv.shape[0]:
            raise DimensionError(f"matmul shapes {av.shape} and {bv.shape}")
        tape.stats.macs += av.shape[0]
        back = lambda g: (g * bv, g * av)
    else:
        raise DimensionError(f"matmul shapes {av.shape} and {bv.shape}")
    return tape._push(av @ bv, (a.idx, b.idx), back)


def transpose(a: Tensor) -> Tensor:
    if a.value.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got shape {a.value.shape}")
    return a.tape._push(a.value.T, (a.idx,), lambda g: (g.T,))


def relu(a: Tensor) -> Tensor:
    mask = a.value > 0
    return a.tape._push(np.where(mask, a.value, 0.0), (a.idx,),
                        lambda g: (g * mask,))


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


def stack_rows(xs: list[Tensor]) -> Tensor:
    """Stack equal-length vectors into the rows of a matrix."""
    if not xs:
        raise EmptyCandidateError("stack_rows of an empty list")
    tape = _check_same_tape(*xs)
    dim = xs[0].value.shape
    for x in xs:
        if x.value.ndim != 1 or x.value.shape != dim:
            raise DimensionError(
                f"stack_rows expects vectors of shape {dim}, got {x.value.shape}"
            )

    def back(g):
        return tuple(g)  # one row per input

    return tape._push(np.stack([x.value for x in xs]), tuple(x.idx for x in xs), back)


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


def sum_rows(a: Tensor) -> Tensor:
    """Sum a matrix over its rows, returning a vector."""
    if a.value.ndim != 2:
        raise DimensionError(f"sum_rows expects a matrix, got shape {a.value.shape}")
    n = a.value.shape[0]

    def back(g):
        return (np.broadcast_to(g, (n, g.shape[0])),)

    return a.tape._push(a.value.sum(axis=0), (a.idx,), back)


def _check_row_ids(idx: Array, n: int, op: str) -> None:
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise DimensionError(f"{op} row ids must lie in [0, {n}), got "
                             f"{idx.min()}..{idx.max()}")


def _scatter_add_rows(rows: Array, idx: Array, n: int) -> Array:
    """out[idx[i]] += rows[i] over i in order, from zeros: np.add.at's sums,
    computed by one bincount over flattened (row, column) slots."""
    width = rows.shape[1]
    slots = (idx[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(slots, weights=rows.ravel(), minlength=n * width)
    return out.reshape(n, width)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select matrix rows by integer index; backward scatters with add."""
    idx = np.atleast_1d(np.asarray(idx, dtype=np.intp))
    if a.value.ndim != 2:
        raise DimensionError(f"gather_rows expects a matrix, got {a.value.shape}")
    n = a.value.shape[0]
    _check_row_ids(idx, n, "gather_rows")

    def back(g):
        return (_scatter_add_rows(g, idx, n),)

    return a.tape._push(a.value[idx], (a.idx,), back)


def gather(a: Tensor, idx) -> Tensor:
    """Select entries of a vector by integer index."""
    idx = np.atleast_1d(np.asarray(idx, dtype=np.intp))
    if a.value.ndim != 1:
        raise DimensionError(f"gather expects a vector, got {a.value.shape}")
    shape = a.value.shape

    def back(g):
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        return (out,)

    return a.tape._push(a.value[idx], (a.idx,), back)


def segment_sum(a: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum matrix rows that share a segment id, in row order."""
    segment_ids = np.asarray(segment_ids, dtype=np.intp)
    if a.value.ndim != 2:
        raise DimensionError(f"segment_sum expects a matrix, got {a.value.shape}")
    if segment_ids.shape[0] != a.value.shape[0]:
        raise DimensionError(
            f"{a.value.shape[0]} rows but {segment_ids.shape[0]} segment ids"
        )
    _check_row_ids(segment_ids, num_segments, "segment_sum")
    out = _scatter_add_rows(a.value, segment_ids, num_segments)

    def back(g):
        return (g[segment_ids],)

    return a.tape._push(out, (a.idx,), back)


# ---------------------------------------------------------------------------
# softmax family


def _softmax(v: Array, axis: int) -> Array:
    shifted = v - v.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_normalize(a: Tensor) -> Tensor:
    """Probability vector over 1-D scores (max-subtracted for safety)."""
    if a.value.ndim != 1:
        raise DimensionError(f"softmax expects a vector, got {a.value.shape}")
    if a.value.shape[0] == 0:
        raise EmptyCandidateError("softmax over an empty candidate set")
    y = _softmax(a.value, axis=0)

    def back(g):
        return (y * (g - np.dot(g, y)),)

    return a.tape._push(y, (a.idx,), back)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax of a matrix."""
    if a.value.ndim != 2:
        raise DimensionError(f"softmax_rows expects a matrix, got {a.value.shape}")
    if a.value.shape[1] == 0:
        raise EmptyCandidateError("softmax over empty rows")
    y = _softmax(a.value, axis=1)

    def back(g):
        return (y * (g - (g * y).sum(axis=1, keepdims=True)),)

    return a.tape._push(y, (a.idx,), back)


def softmax_cols(a: Tensor) -> Tensor:
    """Column-wise softmax of a matrix."""
    if a.value.ndim != 2:
        raise DimensionError(f"softmax_cols expects a matrix, got {a.value.shape}")
    if a.value.shape[0] == 0:
        raise EmptyCandidateError("softmax over empty columns")
    y = _softmax(a.value, axis=0)

    def back(g):
        return (y * (g - (g * y).sum(axis=0, keepdims=True)),)

    return a.tape._push(y, (a.idx,), back)


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


def _dropout_mask(state: DropoutState | None, shape) -> Array | None:
    if state is None or not state.active:
        return None
    return (state.rng.random(shape) >= state.rate) / (1.0 - state.rate)


def dropout(a: Tensor, state: DropoutState | None) -> Tensor:
    """Zero units with probability ``rate``; kept units scale by 1/(1-rate)."""
    mask = _dropout_mask(state, a.value.shape)
    if mask is None:
        return a
    return a.tape._push(a.value * mask, (a.idx,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# parameter containers and the two building-block layers


@dataclass
class FfnnParams:
    """Two-layer ReLU net h = relu(U @ relu(V @ x + a) + b).

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


def ffnn(x: Tensor, p: FfnnParams, drop: DropoutState | None = None) -> Tensor:
    """Apply the two-layer ReLU net to a vector or to each matrix row.

    One fused node with a hand-written backward. In training mode dropout
    hits both ReLU outputs (inverted scaling, first layer's mask drawn
    first); at inference it is the identity.
    """
    V, a, U, b = p.V, p.a, p.U, p.b
    tape = _check_same_tape(x, V, a, U, b)
    xv, Vv, Uv = x.value, V.value, U.value
    width, in_dim = Vv.shape
    if Uv.shape != (width, width):
        raise DimensionError(
            f"U must be {(width, width)} to chain after V {Vv.shape}, got {Uv.shape}")
    if xv.ndim not in (1, 2):
        raise DimensionError(f"ffnn input must be 1-D or 2-D, got shape {xv.shape}")
    if xv.shape[-1] != in_dim:
        raise DimensionError(f"ffnn input shape {xv.shape} vs V shape {Vv.shape}")
    vec = xv.ndim == 1
    rows = 1 if vec else xv.shape[0]
    tape.stats.macs += rows * in_dim * width + rows * width * width
    pre1 = Vv @ xv if vec else xv @ Vv.T
    pre1 += a.value
    on1 = pre1 > 0 if tape.record else None  # ReLU masks, for backward only
    h = np.maximum(pre1, 0.0, out=pre1)
    drop1 = _dropout_mask(drop, h.shape)
    if drop1 is not None:
        h = h * drop1
    pre2 = Uv @ h if vec else h @ Uv.T
    pre2 += b.value
    on2 = pre2 > 0 if tape.record else None
    out = np.maximum(pre2, 0.0, out=pre2)
    drop2 = _dropout_mask(drop, out.shape)
    if drop2 is not None:
        out = out * drop2
    parents = (x.idx, V.idx, a.idx, U.idx, b.idx)
    if not tape.record:
        return tape._push(out, parents)
    x_needs = tape._needs[x.idx]

    def back(g):
        # same products, in the same order, as the unfused chain of
        # matmul / add / relu / dropout nodes
        if drop2 is not None:
            g = g * drop2
        g = g * on2
        gU = np.outer(g, h) if vec else (h.T @ g).T
        gb = g if vec else g.sum(axis=0)
        gh = Uv.T @ g if vec else g @ Uv
        if drop1 is not None:
            gh = gh * drop1
        gh = gh * on1
        gV = np.outer(gh, xv) if vec else (xv.T @ gh).T
        ga = gh if vec else gh.sum(axis=0)
        gx = None
        if x_needs:
            gx = Vv.T @ gh if vec else gh @ Vv
        return gx, gV, ga, gU, gb

    return tape._push(out, parents, back)


def linear(h: Tensor, p: LinearParams) -> Tensor:
    """Score head: scalar for a vector input, one score per matrix row."""
    w, z = p.w, p.z
    wdim = w.value.shape[0]
    hs = h.value.shape
    if h.value.ndim == 1:
        if hs[0] != wdim:
            raise DimensionError(f"linear input shape {hs} vs weight shape ({wdim},)")
        return add(matmul(w, h), z)
    if h.value.ndim == 2:
        if hs[1] != wdim:
            raise DimensionError(f"linear input shape {hs} vs weight shape ({wdim},)")
        return add(matmul(h, w), z)
    raise DimensionError(f"linear input must be 1-D or 2-D, got shape {hs}")


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
