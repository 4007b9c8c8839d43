"""biLSTM baseline correctness and benchmark harness behavior."""

import numpy as np
import pytest

from spancascade.bench import (
    BiLstmParams,
    LstmDirection,
    baseline_macs,
    baseline_position_scores,
    bilstm_forward,
    run_benchmark,
    synthetic_example,
)
from spancascade.errors import ContractError, UsageError


def test_bilstm_zero_weights_zero_inputs_zero_states():
    params = BiLstmParams.initialize(4, state_size=3, seed=0)
    for d in (params.forward, params.backward):
        for name in vars(d):
            getattr(d, name)[:] = 0.0
    out = bilstm_forward(np.zeros((5, 4)), params)
    np.testing.assert_array_equal(out, np.zeros((5, 6)))


def test_bilstm_output_shape():
    params = BiLstmParams.initialize(6, state_size=50, seed=1)
    for n in (1, 3, 17):
        X = np.random.default_rng(n).normal(size=(n, 6))
        assert bilstm_forward(X, params).shape == (n, 100)


def test_bilstm_reversal_correspondence():
    # with both directions sharing weights, running the reversed input
    # swaps the roles of the forward and backward state tracks
    rng = np.random.default_rng(2)
    direction = LstmDirection.initialize(4, 3, rng)
    params = BiLstmParams(direction, direction, np.zeros(6), np.zeros(6))
    X = rng.normal(size=(3, 4))
    out = bilstm_forward(X, params)
    rev = bilstm_forward(X[::-1], params)
    fwd_states, bwd_states = out[:, :3], out[:, 3:]
    rev_fwd, rev_bwd = rev[:, :3], rev[:, 3:]
    np.testing.assert_allclose(rev_fwd, bwd_states[::-1], rtol=1e-12)
    np.testing.assert_allclose(rev_bwd, fwd_states[::-1], rtol=1e-12)


def test_bilstm_rejects_empty():
    params = BiLstmParams.initialize(4, state_size=3, seed=0)
    with pytest.raises(ContractError):
        bilstm_forward(np.zeros((0, 4)), params)


def test_position_heads_shapes():
    params = BiLstmParams.initialize(4, state_size=5, seed=3)
    X = np.random.default_rng(0).normal(size=(7, 4))
    start, end = baseline_position_scores(X, params)
    assert start.shape == (7,) and end.shape == (7,)


def test_baseline_macs_linear_in_n():
    m1 = baseline_macs(100, 32, 50)
    m2 = baseline_macs(200, 32, 50)
    assert m2 == 2 * m1


def test_synthetic_example_token_count_and_sentences():
    for n in (37, 200, 1000):
        ex = synthetic_example(n, sentence_len=20, seed=0)
        doc = ex.documents[0]
        assert len(doc.tokens) == n
        assert all(e - s <= 20 for s, e in doc.sentences)
    # determinism
    a = synthetic_example(100, seed=1).documents[0].tokens
    b = synthetic_example(100, seed=1).documents[0].tokens
    assert a == b


def test_run_benchmark_validation():
    with pytest.raises(UsageError):
        run_benchmark([], reps=1)
    with pytest.raises(UsageError):
        run_benchmark([200, 100], reps=1)
    with pytest.raises(UsageError):
        run_benchmark([100], reps=0)


def test_run_benchmark_small_and_csv(tmp_path):
    result = run_benchmark([60, 120], reps=2,
                           embed_dim=8, hidden_width=8, seed=0)
    assert [r.n for r in result.rows] == [60, 120]
    for row in result.rows:
        assert row.cascade_ms > 0 and row.baseline_ms > 0
        assert row.cascade_peak_mb > 0
        assert row.speedup == pytest.approx(
            row.baseline_ms / row.cascade_ms, rel=1e-9)
    # operation counts are deterministic and scale with n
    assert result.rows[1].cascade_macs > result.rows[0].cascade_macs
    assert result.rows[1].baseline_macs == 2 * result.rows[0].baseline_macs
    path = tmp_path / "bench.csv"
    result.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "n,cascade_ms,baseline_ms,speedup,cascade_peak_mb"
    assert len(lines) == 3


def test_run_benchmark_identical_counts_across_reps():
    r1 = run_benchmark([80], reps=1, embed_dim=8, hidden_width=8,
                       seed=4)
    r2 = run_benchmark([80], reps=3, embed_dim=8, hidden_width=8,
                       seed=4)
    assert r1.rows[0].cascade_macs == r2.rows[0].cascade_macs
    assert r1.rows[0].baseline_macs == r2.rows[0].baseline_macs
