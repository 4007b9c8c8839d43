"""Tape autodiff: forward oracles, gradient checks, softmax properties."""

import gc
import weakref

import numpy as np
import pytest

from spancascade import autodiff as ad
from spancascade.errors import (
    ContractError,
    DimensionError,
    EmptyCandidateError,
    NonFiniteError,
)


def plain_ffnn(x, V, a, U, b):
    """Independent straight-line forward oracle (explicit loops)."""
    width, in_dim = V.shape
    h1 = [0.0] * width
    for j in range(width):
        s = a[j]
        for k in range(in_dim):
            s += V[j][k] * x[k]
        h1[j] = s if s > 0 else 0.0
    out = [0.0] * width
    for j in range(width):
        s = b[j]
        for k in range(width):
            s += U[j][k] * h1[k]
        out[j] = s if s > 0 else 0.0
    return np.array(out)


def test_ffnn_zero_input_zero_params():
    tape = ad.Tape()
    p = ad.FfnnParams(
        V=tape.constant(np.zeros((3, 2))), a=tape.constant(np.zeros(3)),
        U=tape.constant(np.zeros((3, 3))), b=tape.constant(np.zeros(3)))
    out = ad.ffnn(tape.constant(np.zeros((1, 2))), p)
    assert np.array_equal(out.value, np.zeros((1, 3)))


def test_ffnn_identity_clips_negative():
    tape = ad.Tape()
    p = ad.FfnnParams(
        V=tape.constant(np.eye(2)), a=tape.constant(np.zeros(2)),
        U=tape.constant(np.eye(2)), b=tape.constant(np.zeros(2)))
    out = ad.ffnn(tape.constant(np.array([[-1.0, 2.0]])), p)
    assert np.array_equal(out.value, np.array([[0.0, 2.0]]))


def test_ffnn_matches_plain_loop_oracle():
    rng = np.random.default_rng(42)
    for trial in range(5):
        in_dim, width = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        V = rng.uniform(-1, 1, (width, in_dim))
        a = rng.uniform(-1, 1, width)
        U = rng.uniform(-1, 1, (width, width))
        b = rng.uniform(-1, 1, width)
        x = rng.uniform(-2, 2, in_dim)
        tape = ad.Tape()
        p = ad.FfnnParams(tape.constant(V), tape.constant(a),
                          tape.constant(U), tape.constant(b))
        got = ad.ffnn(tape.constant(x[None]), p).value[0]
        np.testing.assert_allclose(got, plain_ffnn(x, V, a, U, b), rtol=1e-12)


def test_ffnn_batch_rows_match_single():
    rng = np.random.default_rng(3)
    V, a = rng.normal(size=(4, 3)), rng.normal(size=4)
    U, b = rng.normal(size=(4, 4)), rng.normal(size=4)
    X = rng.normal(size=(6, 3))
    tape = ad.Tape()
    p = ad.FfnnParams(tape.constant(V), tape.constant(a),
                      tape.constant(U), tape.constant(b))
    batch = ad.ffnn(tape.constant(X), p).value
    for i in range(6):
        single = ad.ffnn(tape.constant(X[i:i + 1]), p).value[0]
        np.testing.assert_allclose(batch[i], single, rtol=1e-12)


def test_ffnn_shape_mismatch_names_shapes():
    tape = ad.Tape()
    p = ad.FfnnParams(
        V=tape.constant(np.zeros((3, 2))), a=tape.constant(np.zeros(3)),
        U=tape.constant(np.zeros((3, 3))), b=tape.constant(np.zeros(3)))
    with pytest.raises(DimensionError, match=r"\(3, 2\)"):
        ad.ffnn(tape.constant(np.zeros((1, 5))), p)


def test_ffnn_and_linear_reject_a_vector():
    tape = ad.Tape()
    p = ad.FfnnParams(
        V=tape.constant(np.zeros((3, 2))), a=tape.constant(np.zeros(3)),
        U=tape.constant(np.zeros((3, 3))), b=tape.constant(np.zeros(3)))
    with pytest.raises(DimensionError, match=r"shape \(2,\)"):
        ad.ffnn(tape.constant(np.zeros(2)), p)
    head = ad.LinearParams(w=tape.constant(np.zeros(3)),
                           z=tape.constant(np.array(0.0)))
    with pytest.raises(DimensionError, match=r"shape \(3,\)"):
        ad.linear(tape.constant(np.zeros(3)), head)


def test_linear_constant_and_dot():
    tape = ad.Tape()
    p = ad.LinearParams(w=tape.constant(np.zeros(4)),
                        z=tape.constant(np.array(3.0)))
    assert np.array_equal(ad.linear(tape.constant(np.ones((1, 4))), p).value,
                          [3.0])
    p2 = ad.LinearParams(w=tape.constant(np.array([1.0, 1.0])),
                         z=tape.constant(np.array(0.0)))
    out = ad.linear(tape.constant(np.array([[2.0, 5.0], [1.0, -1.0]])), p2)
    assert np.array_equal(out.value, [7.0, 0.0])


def test_linear_gradient_is_weight_vector():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(1, 5))
    w = rng.normal(size=5)

    def loss_fn(params):
        # the log-sum-exp of one score is that score, with gradient 1
        tape = ad.Tape()
        hv = tape.variable(params["h"], "h")
        p = ad.LinearParams(w=tape.constant(w), z=tape.constant(np.array(0.5)))
        return ad.logsumexp(ad.linear(hv, p))

    res = ad.finite_difference_check(loss_fn, {"h": h.copy()})
    assert res.max_rel_error < 1e-8
    out = loss_fn({"h": h})
    grads = out.tape.backward(out)
    np.testing.assert_array_equal(grads["h"], w[None])


def test_softmax_examples():
    tape = ad.Tape()
    np.testing.assert_allclose(
        ad.softmax(tape.constant([2.0, 2.0])).value, [0.5, 0.5])
    np.testing.assert_allclose(
        ad.softmax(tape.constant([0.0, np.log(3)])).value,
        [0.25, 0.75], rtol=1e-12)
    np.testing.assert_allclose(
        ad.softmax(tape.constant([1000.0, 1000.0])).value, [0.5, 0.5])
    m = np.array([[2.0, 2.0], [0.0, np.log(3)]])
    np.testing.assert_allclose(ad.softmax(tape.constant(m), axis=1).value,
                               [[0.5, 0.5], [0.25, 0.75]], rtol=1e-12)
    np.testing.assert_allclose(ad.softmax(tape.constant(m.T), axis=0).value,
                               [[0.5, 0.25], [0.5, 0.75]], rtol=1e-12)


def test_softmax_probability_vector_properties():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.uniform(-50, 50, size=int(rng.integers(1, 20)))
        tape = ad.Tape()
        y = ad.softmax(tape.constant(v)).value
        assert np.all(y >= 0)
        assert abs(y.sum() - 1.0) < 1e-12
        shifted = ad.softmax(tape.constant(v + 123.456)).value
        assert np.max(np.abs(shifted - y)) < 1e-12
        # monotone: larger score, larger probability
        order = np.argsort(v)
        assert np.all(np.diff(y[order]) >= -1e-15)


def test_softmax_empty_raises():
    tape = ad.Tape()
    for shape, axis in [((0,), 0), ((2, 0), 1), ((0, 2), 0)]:
        with pytest.raises(EmptyCandidateError):
            ad.softmax(tape.constant(np.zeros(shape)), axis)


@pytest.mark.parametrize("shape, axis", [
    ((), 0), ((3,), 1), ((3,), -1), ((2, 2), 2), ((2, 2, 2), 0)])
def test_softmax_wrong_shape_raises(shape, axis):
    with pytest.raises(DimensionError, match="softmax along axis"):
        ad.softmax(ad.Tape().constant(np.zeros(shape)), axis)


def test_aggregate_ops():
    tape = ad.Tape()
    cc = ad.concat([tape.constant([1.0]), tape.constant([2.0, 3.0])])
    np.testing.assert_array_equal(cc.value, [1.0, 2.0, 3.0])
    rows = ad.concat([tape.constant(np.ones((1, 2))), tape.constant(np.zeros((2, 2)))])
    np.testing.assert_array_equal(rows.value, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DimensionError):
        ad.concat([tape.constant(np.ones((1, 2))), tape.constant(np.ones((1, 3)))])


def test_backward_linear_grads():
    tape = ad.Tape()
    h = tape.constant(np.array([[2.0, 5.0]]))
    p = ad.LinearParams(w=tape.variable(np.array([1.0, -1.0]), "w"),
                        z=tape.variable(np.array(0.0), "z"))
    out = ad.logsumexp(ad.linear(h, p))  # one score: the root is that score
    grads = tape.backward(out)
    np.testing.assert_array_equal(grads["w"], [2.0, 5.0])
    assert grads["z"] == 1.0


def test_backward_unreachable_parameter_gets_exact_zero():
    tape = ad.Tape()
    x = tape.variable(np.array([1.0, 2.0]), "x")
    unused = tape.variable(np.array([[3.0, 4.0]]), "unused")
    out = ad.logsumexp(x)
    grads = tape.backward(out)
    assert np.array_equal(grads["unused"], np.zeros((1, 2)))
    assert grads["unused"].dtype == np.float64


def test_backward_requires_scalar_root():
    tape = ad.Tape()
    x = tape.variable(np.array([1.0, 2.0]), "x")
    with pytest.raises(ContractError):
        tape.backward(x)


def test_backward_deterministic_bitwise():
    def run():
        rng = np.random.default_rng(5)
        tape = ad.Tape()
        x = tape.variable(rng.normal(size=(4, 3)), "x")
        w = tape.variable(rng.normal(size=(3, 3)), "w")
        out = ad.logsumexp(ad.sum_rows(ad.relu(ad.matmul(x, w))))
        grads = tape.backward(out)
        return out.value.copy(), {k: v.copy() for k, v in grads.items()}

    v1, g1 = run()
    v2, g2 = run()
    assert v1.tobytes() == v2.tobytes()
    for k in g1:
        assert g1[k].tobytes() == g2[k].tobytes()


def _random_op_check(build, sizes, seed, eps=1e-5, tol=1e-4):
    """Gradient-check `build` over random inputs with magnitudes in [-2, 2]."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in sizes.items():
        v = rng.uniform(-2.0, 2.0, size=shape)
        # keep relu inputs away from the kink where the derivative is undefined
        v[np.abs(v) < 1e-3] += 2e-3
        arrays[name] = v

    def loss_fn(params):
        tape = ad.Tape()
        leaves = {k: tape.variable(a, k) for k, a in params.items()}
        return build(tape, leaves)

    res = ad.finite_difference_check(loss_fn, arrays, eps)
    assert res.max_rel_error < tol, res


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradients_matmul_relu_chain(seed):
    _random_op_check(
        lambda t, p: ad.logsumexp(ad.sum_rows(ad.relu(ad.matmul(p["x"], p["w"])))),
        {"x": (4, 3), "w": (3, 5)}, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_gradients_softmax_weighted(seed):
    _random_op_check(
        lambda t, p: ad.matmul(ad.softmax(p["logits"]),
                               ad.matmul(p["m"], p["v"])),
        {"logits": (4,), "m": (4, 3), "v": (3,)}, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_gradients_segment_and_gather(seed):
    def build(tape, p):
        seg = ad.segment_sum(p["x"], np.array([0, 1, 0, 2]), 3)
        picked = ad.gather(seg, np.array([2, 0]))
        return ad.logsumexp(ad.gather(ad.sum_rows(picked), np.array([0, 1])))

    _random_op_check(build, {"x": (4, 2)}, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_gradients_attention_style(seed):
    def build(tape, p):
        eta = ad.matmul(p["q"], ad.transpose(p["d"]))
        rows = ad.softmax(eta, axis=1)
        cols = ad.softmax(eta, axis=0)
        mix = ad.add(ad.matmul(rows, p["d"]),
                     ad.matmul(ad.transpose(cols), p["q"]))
        return ad.logsumexp(ad.sum_rows(mix))

    _random_op_check(build, {"q": (3, 4), "d": (3, 4)}, seed)


RUN_STARTS = [0, 1, 4]  # runs of 1, 3 and 2 of six columns


def test_segment_softmax_is_softmax_of_each_run():
    eta = np.random.default_rng(3).normal(size=(3, 6)) * 5.0
    y = ad.segment_softmax(ad.Tape().constant(eta), RUN_STARTS).value
    for lo, hi in ((0, 1), (1, 4), (4, 6)):
        np.testing.assert_allclose(y[:, lo:hi], ad._softmax(eta[:, lo:hi], 1),
                                   rtol=0, atol=1e-15)


def test_segment_matmul_multiplies_each_run_and_counts_its_macs():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(2, 6)), rng.normal(size=(6, 3))
    tape = ad.Tape()
    out = ad.segment_matmul(tape.constant(a), tape.constant(b), RUN_STARTS)
    expect = np.concatenate([a[:, lo:hi] @ b[lo:hi]
                             for lo, hi in ((0, 1), (1, 4), (4, 6))])
    np.testing.assert_allclose(out.value, expect, rtol=0, atol=1e-15)
    assert tape.stats.macs == 2 * 6 * 3


@pytest.mark.parametrize("seed", [0, 1])
def test_gradients_segment_softmax(seed):
    weights = np.random.default_rng(seed + 10).normal(size=6)
    _random_op_check(
        lambda t, p: ad.logsumexp(ad.matmul(
            ad.segment_softmax(p["eta"], RUN_STARTS), t.constant(weights))),
        {"eta": (3, 6)}, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_gradients_segment_matmul(seed):
    weights = np.random.default_rng(seed + 10).normal(size=3)
    _random_op_check(
        lambda t, p: ad.logsumexp(ad.matmul(
            ad.segment_matmul(p["a"], p["b"], RUN_STARTS), t.constant(weights))),
        {"a": (2, 6), "b": (6, 3)}, seed)


@pytest.mark.parametrize("starts", [[1, 4], [0, 4, 4], [0, 3, 1], [0, 6],
                                    [0, 7], [], [[0, 1]]])
def test_segment_ops_reject_starts_that_do_not_tile_the_columns(starts):
    tape = ad.Tape()
    eta = tape.constant(np.zeros((3, 6)))
    with pytest.raises(DimensionError):
        ad.segment_softmax(eta, starts)
    with pytest.raises(DimensionError):
        ad.segment_matmul(eta, tape.constant(np.zeros((6, 2))), starts)


def test_segment_matmul_rejects_mismatched_operands():
    tape = ad.Tape()
    with pytest.raises(DimensionError):
        ad.segment_matmul(tape.constant(np.zeros((3, 6))),
                          tape.constant(np.zeros((5, 2))), [0])


@pytest.mark.parametrize("seed", [0, 1])
def test_gradients_full_ffnn_linear(seed):
    def build(tape, p):
        net = ad.FfnnParams(p["V"], p["a"], p["U"], p["b"])
        head = ad.LinearParams(p["w"], p["z"])
        h = ad.ffnn(tape.constant(np.array([[0.3, -1.2, 0.8]])), net)
        return ad.logsumexp(ad.linear(h, head))

    _random_op_check(
        build,
        {"V": (4, 3), "a": (4,), "U": (4, 4), "b": (4,), "w": (4,), "z": ()},
        seed)


def _ffnn_arrays(in_dim, width, rng):
    return {"V": rng.uniform(-1, 1, (width, in_dim)),
            "a": rng.uniform(-1, 1, width),
            "U": rng.uniform(-1, 1, (width, width)),
            "b": rng.uniform(-1, 1, width)}


@pytest.mark.parametrize("x_shape", [(1, 3), (5, 3)])
def test_gradients_fused_ffnn_with_dropout(x_shape):
    rng = np.random.default_rng(7)
    arrays = {"x": rng.uniform(-2, 2, x_shape), **_ffnn_arrays(3, 6, rng)}

    def loss_fn(params):
        # a fresh generator per call: every evaluation draws the same masks
        tape = ad.Tape()
        leaves = {k: tape.variable(v, k) for k, v in params.items()}
        net = ad.FfnnParams(leaves["V"], leaves["a"], leaves["U"], leaves["b"])
        drop = ad.DropoutState(0.3, np.random.default_rng(11), training=True)
        out = ad.ffnn(leaves["x"], net, drop)
        return ad.logsumexp(ad.sum_rows(out))

    res = ad.finite_difference_check(loss_fn, arrays)
    assert res.max_rel_error < 1e-4, res


@pytest.mark.parametrize("x_shape", [(1, 3), (5, 3)])
def test_fused_ffnn_equals_unfused_chain_bitwise(x_shape):
    """Same values, gradients, MACs and dropout draws as the op-by-op net."""
    rng = np.random.default_rng(8)
    arrays = {"x": rng.uniform(-2, 2, x_shape), **_ffnn_arrays(3, 6, rng)}

    def run(fused):
        tape = ad.Tape()
        p = {k: tape.variable(v, k) for k, v in arrays.items()}
        drop = ad.DropoutState(0.3, np.random.default_rng(11), training=True)
        if fused:
            net = ad.FfnnParams(p["V"], p["a"], p["U"], p["b"])
            out = ad.ffnn(p["x"], net, drop)
        else:
            h = ad.dropout(ad.relu(ad.add(
                ad.matmul(p["x"], ad.transpose(p["V"])), p["a"])), drop)
            out = ad.dropout(ad.relu(ad.add(
                ad.matmul(h, ad.transpose(p["U"])), p["b"])), drop)
        root = ad.logsumexp(ad.sum_rows(out))
        return out.value, tape.backward(root), tape.stats.macs, len(tape)

    fused, chain = run(True), run(False)
    assert fused[0].tobytes() == chain[0].tobytes()
    for name in arrays:
        assert fused[1][name].tobytes() == chain[1][name].tobytes(), name
    assert fused[2] == chain[2]
    assert fused[3] < chain[3]


def test_non_recording_tape_keeps_nothing_and_refuses_backward():
    tape = ad.Tape(record=False)
    x = tape.variable(np.array([1.0, 2.0]), "x")
    out = ad.logsumexp(ad.scale(x, 2.0))
    assert len(tape) == 0
    with pytest.raises(ContractError):
        tape.backward(out)


def test_tape_with_gathers_and_stacks_is_freed_without_cyclic_gc():
    def run():
        tape = ad.Tape()
        x = tape.variable(np.arange(6.0).reshape(3, 2), "x")
        v = tape.variable(np.arange(3.0), "v")
        rows = ad.concat([ad.sum_rows(ad.gather(x, [0, 2])),
                          ad.gather(v, [1, 2])])
        grads = tape.backward(ad.logsumexp(rows))
        assert set(grads) == {"x", "v"}
        return weakref.ref(tape)

    gc.disable()
    try:
        assert run()() is None
    finally:
        gc.enable()


def test_segment_sum_matches_sequential_add_at_bitwise():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(300, 7)) * 10.0 ** rng.integers(-8, 8, (300, 1))
    ids = rng.integers(0, 20, 300)
    expect = np.zeros((23, 7))
    np.add.at(expect, ids, rows)
    got = ad.segment_sum(ad.Tape().constant(rows), ids, 23).value
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("record", [True, False])
def test_segment_sum_into_matches_sequential_loop_bitwise(record):
    """Chained calls, whose ids repeat within and across calls, add each
    row in call and row order, as a plain loop does."""
    rng = np.random.default_rng(6)
    calls = [np.array(ids) for ids in
             ([2, 0, 2, 5], [5, 2, 2, 1, 0, 5], [0, 0, 3, 2])]
    rows = [rng.normal(size=(len(ids), 7))
            * 10.0 ** rng.integers(-8, 8, (len(ids), 1)) for ids in calls]
    expect = np.zeros((6, 7))
    for ids, block in zip(calls, rows):
        for i, row in zip(ids, block):
            expect[i] += row
    tape = ad.Tape(record=record)
    summed = None
    for ids, block in zip(calls, rows):
        summed = ad.segment_sum(tape.constant(block), ids, 6, into=summed)
    assert summed.value.tobytes() == expect.tobytes()
    with pytest.raises(DimensionError):
        ad.segment_sum(tape.constant(rows[0]), calls[0], 6,
                       into=tape.constant(np.zeros((7, 6)).T))


@pytest.mark.parametrize("op", [
    lambda x: ad.gather(x, [0, 3]),
    lambda x: ad.gather(x, [-1]),
    lambda x: ad.segment_sum(x, [0, 1, 3], 3),
    lambda x: ad.segment_sum(x, [0, -1, 2], 3),
    lambda x: ad.gather(ad.sum_rows(ad.transpose(x)), [-1]),
    lambda x: ad.gather(ad.sum_rows(ad.transpose(x)), [3]),
])
def test_row_ids_out_of_range_raise(op):
    with pytest.raises(DimensionError):
        op(ad.Tape().constant(np.zeros((3, 2))))


def test_gather_vector_backward_matches_add_at_bitwise():
    rng = np.random.default_rng(5)
    v = rng.normal(size=6)
    ids = np.array([4, 0, 4, 5, 4])
    g = rng.normal(size=5) * 10.0 ** rng.integers(-8, 8, 5)
    expect = np.zeros(6)
    np.add.at(expect, ids, g)
    tape = ad.Tape()
    picked = ad.gather(tape.variable(v, "v"), ids)
    got = tape.backward(ad.matmul(picked, tape.constant(g)))["v"]
    assert got.tobytes() == expect.tobytes()


def test_value_consumed_only_by_hstack_is_freed_while_tape_lives():
    tape = ad.Tape()
    x = tape.variable(np.ones((2, 3)), "x")
    mid = ad.scale(x, 2.0)
    ref = weakref.ref(mid.value)
    out = ad.hstack([mid, x])
    del mid
    assert ref() is None
    grads = tape.backward(ad.logsumexp(ad.sum_rows(out)))
    assert grads["x"].shape == (2, 3)


def test_quadratic_fd_is_tight():
    def loss_fn(params):
        tape = ad.Tape()
        th = tape.variable(params["theta"], "theta")
        return ad.matmul(th, th)

    res = ad.finite_difference_check(loss_fn, {"theta": np.array([3.0])}, 1e-5)
    assert res.max_rel_error < 1e-8


def test_dropout_inverted_scaling_and_inference_identity():
    rng = np.random.default_rng(9)
    tape = ad.Tape()
    x = tape.constant(np.ones((200, 10)))
    state = ad.DropoutState(0.25, np.random.default_rng(1), training=True)
    y = ad.dropout(x, state)
    kept = y.value[y.value > 0]
    np.testing.assert_allclose(kept, 1.0 / 0.75)
    assert 0.6 < (y.value > 0).mean() < 0.9
    off = ad.dropout(x, ad.DropoutState.off())
    assert off is x  # identity at inference


def test_ffnn_masks_drawn_earlier_replace_the_draws():
    rng = np.random.default_rng(6)
    x = rng.uniform(-2, 2, (4, 3))
    net_arrays = _ffnn_arrays(3, 5, rng)
    tape = ad.Tape()
    net = ad.FfnnParams(*[tape.variable(v, k) for k, v in net_arrays.items()])
    drawn = ad.ffnn(tape.constant(x), net, ad.DropoutState(
        0.3, np.random.default_rng(2), training=True))
    state = ad.DropoutState(0.3, np.random.default_rng(2), training=True)
    masks = (ad.dropout_mask(state, (4, 5)), ad.dropout_mask(state, (4, 5)))
    given = ad.ffnn(tape.constant(x), net, masks=masks)
    assert given.value.tobytes() == drawn.value.tobytes()
    with pytest.raises(DimensionError):
        ad.ffnn(tape.constant(x), net, masks=(masks[0], masks[1][:1]))


def test_dropout_contract_checks():
    with pytest.raises(ContractError):
        ad.DropoutState(1.0)
    with pytest.raises(ContractError):
        ad.DropoutState(0.5, None, training=True)


def test_non_finite_forward_raises():
    tape = ad.Tape()
    big = tape.variable(np.array(1e308), "big")
    with np.errstate(over="ignore"):
        root = ad.add(big, big)  # the forward computes inf without a check
    with pytest.raises(NonFiniteError, match="non-finite loss inf"):
        tape.backward(root)


def test_finite_difference_names_coordinate_of_non_finite_loss():
    w = np.array([0.0, 1.7e308])

    def loss_fn(p):
        tape = ad.Tape()
        return ad.matmul(tape.variable(p["x"], "x"), tape.constant(w))

    # x[1] + epsilon overflows; every other evaluation is finite
    with np.errstate(over="ignore"), pytest.raises(
            NonFiniteError, match=r"x\[1\]"):
        ad.finite_difference_check(loss_fn, {"x": np.array([0.5, 1.0])},
                                   epsilon=0.1)


def test_tile_rows_and_sum_rows_roundtrip():
    tape = ad.Tape()
    v = tape.variable(np.array([1.0, 2.0, 3.0]), "v")
    tiled = ad.tile_rows(v, 4)
    assert tiled.value.shape == (4, 3)
    out = ad.logsumexp(ad.sum_rows(tiled))
    grads = tape.backward(out)
    assert grads["v"].shape == (3,)
    assert np.all(np.isfinite(grads["v"]))


def test_matmul_mac_counting():
    tape = ad.Tape()
    a = tape.constant(np.zeros((3, 4)))
    b = tape.constant(np.zeros((4, 5)))
    ad.matmul(a, b)
    assert tape.stats.macs == 3 * 4 * 5
    ad.matmul(tape.constant(np.zeros(4)), b)
    assert tape.stats.macs == 3 * 4 * 5 + 4 * 5
