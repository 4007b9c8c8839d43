"""Objective, Adagrad, configuration wiring, and the training loop."""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from spancascade import autodiff as ad
from spancascade import model as mdl
from spancascade import synth
from spancascade.corpus import build_candidates
from spancascade.errors import (
    ContractError,
    NonFiniteError,
    NoTrainableDataError,
    UsageError,
)
from spancascade.training import (
    LAMBDA_KEYS,
    AdagradState,
    LossWeights,
    TrainConfig,
    adagrad_step,
    multi_loss,
    parse_config_file,
    train,
)


def test_loss_weights_validation():
    LossWeights(0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ContractError):
        LossWeights(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ContractError):
        LossWeights(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ContractError, match="nonnegative"):
        LossWeights(float("nan"), 0.5, 0.5, 0.0)


def test_default_weights_match_tuned_optimum():
    w = LossWeights()
    assert w.as_tuple() == (0.35, 0.35, 0.2, 0.1)


def test_config_single_loss_forces_weights():
    cfg = TrainConfig(ablation="single_loss")
    assert cfg.weights.as_tuple() == (0.0, 0.0, 0.0, 1.0)
    # given weights override the ablation's defaults
    cfg = TrainConfig(ablation="single_loss", weights=LossWeights())
    assert cfg.weights == LossWeights()


def test_config_rejects_weight_for_inactive_level():
    cases = [
        ("level12_only", LossWeights()),  # lambda4 = 0.1 > 0
        ("level1_qs_only", LossWeights(0.5, 0.5, 0.0, 0.0)),
        ("level1_qs_only", LossWeights(0.5, 0.0, 0.5, 0.0)),
        ("level1_sc_only", LossWeights(0.5, 0.5, 0.0, 0.0)),
        ("combined_level1", LossWeights()),  # lambda2 = 0.35 > 0
    ]
    for ablation, weights in cases:
        with pytest.raises(ContractError, match=ablation):
            TrainConfig(ablation=ablation, weights=weights)
    with pytest.raises(ContractError, match="lambda2"):
        TrainConfig.from_mapping({"ablation": "level1_qs_only",
                                  "lambda1": "0.5", "lambda2": "0.5"})
    # all weight on one slot is rejected exactly when no level of that
    # slot is active
    inactive = {
        "full": [], "single_loss": [], "combined_level1": ["lambda2"],
        "level12_only": ["lambda4"],
        "level1_qs_only": ["lambda2", "lambda3", "lambda4"],
        "level1_sc_only": ["lambda1", "lambda3", "lambda4"],
    }
    assert LAMBDA_KEYS == ("lambda1", "lambda2", "lambda3", "lambda4")
    assert len(dataclasses.fields(LossWeights)) == len(LAMBDA_KEYS)
    for ablation, keys in inactive.items():
        for slot, key in enumerate(LAMBDA_KEYS):
            weights = LossWeights(*(float(i == slot) for i in range(4)))
            if key in keys:
                with pytest.raises(ContractError, match=f"{key} is 1.0"):
                    TrainConfig(ablation=ablation, weights=weights)
            else:
                TrainConfig(ablation=ablation, weights=weights)


def test_config_from_mapping_and_unknown_key():
    cfg = TrainConfig.from_mapping({
        "epochs": "3", "seed": "9", "dropout": "0.2", "lambda1": "0.5",
        "lambda2": "0.5", "lambda3": "0", "lambda4": "0",
        "ablation": "level12_only",
    })
    assert cfg.epochs == 3 and cfg.seed == 9 and cfg.dropout == 0.2
    assert cfg.weights.as_tuple() == (0.5, 0.5, 0.0, 0.0)
    assert cfg.arch(8).wiring == "level12_only"
    # a lambda overrides only its own slot of the ablation's weights
    cfg = TrainConfig.from_mapping({"ablation": "single_loss",
                                    "lambda3": "0.5", "lambda4": "0.5"})
    assert cfg.weights.as_tuple() == (0.0, 0.0, 0.5, 0.5)
    with pytest.raises(ContractError, match="sum to 1"):
        TrainConfig.from_mapping({"ablation": "single_loss", "lambda3": "0.5"})
    with pytest.raises(UsageError, match="bogus_key"):
        TrainConfig.from_mapping({"bogus_key": "1"})
    with pytest.raises(UsageError, match="'single_loss'"):
        TrainConfig.from_mapping({"single_loss": "true"})
    for key, raw in (("epochs", "abc"), ("dropout", "x"), ("lambda1", "")):
        with pytest.raises(UsageError, match=f"'{key}' expects"):
            TrainConfig.from_mapping({key: raw})
    assert len(TrainConfig().as_flat_dict()) == 17


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("# comment\nepochs = 7\nseed=3   # trailing\n\n")
    assert parse_config_file(path) == {"epochs": "7", "seed": "3"}
    bad = tmp_path / "bad.conf"
    bad.write_text("epochs 7\n")
    with pytest.raises(UsageError):
        parse_config_file(bad)


def test_ablation_config_names():
    single = TrainConfig(ablation="single_loss")
    assert single.weights.as_tuple() == (0, 0, 0, 1)
    assert single.arch(8) == TrainConfig().arch(8)
    full = TrainConfig(ablation="full")
    assert full.weights.as_tuple() == (0.35, 0.35, 0.2, 0.1)
    assert single.arch(8).wiring == full.arch(8).wiring == "full"
    # the other ablations each run the wiring of the same name
    for name in ("combined_level1", "level12_only", "level1_qs_only",
                 "level1_sc_only"):
        assert TrainConfig(ablation=name).arch(8).wiring == name
    combined = TrainConfig(ablation="combined_level1")
    assert combined.weights.level1_qs == pytest.approx(0.7)
    l12 = TrainConfig(ablation="level12_only")
    assert sum(l12.weights.as_tuple()) == pytest.approx(1.0)
    with pytest.raises(UsageError, match="valid names"):
        TrainConfig(ablation="not_a_thing")


# ---------------------------------------------------------------------------
# multi_loss closed forms


def _loss_with_phis(span_logprobs, gold_spans, weights):
    tape = ad.Tape()
    phi = tape.constant(np.log(np.asarray(span_logprobs)))
    scores = mdl.CascadeScores(phi1=phi, phi2=phi, phi3=phi, phi4=phi)
    out = multi_loss(scores, gold_spans, gold_spans, weights)
    return None if out is None else float(out.value)


def test_multi_loss_perfect_prediction_is_zero():
    # single candidate, gold: every level assigns it probability 1
    val = _loss_with_phis([1.0], [0], LossWeights())
    assert val == 0.0


def test_multi_loss_two_gold_closed_form():
    # probabilities (0.3, 0.3, 0.4); gold mass 0.6 at every level
    val = _loss_with_phis([0.3, 0.3, 0.4], [0, 1], LossWeights())
    assert val == pytest.approx(-np.log(0.6), rel=1e-12)
    lopsided = _loss_with_phis([0.3, 0.3, 0.4], [0, 1],
                               LossWeights(1.0, 0.0, 0.0, 0.0))
    assert lopsided == pytest.approx(-np.log(0.6), rel=1e-12)


def test_multi_loss_empty_gold_is_skip_signal():
    assert _loss_with_phis([0.5, 0.5], [], LossWeights()) is None


def test_multi_loss_weight_for_missing_level_raises():
    tape = ad.Tape()
    phi = tape.constant(np.zeros(2))
    scores = mdl.CascadeScores(phi1=phi)  # no level-3 scores
    with pytest.raises(ContractError):
        multi_loss(scores, [0], [0], LossWeights())


# ---------------------------------------------------------------------------
# Adagrad


def test_adagrad_hand_computed_step():
    theta = np.array([1.0])
    state = AdagradState(learning_rate=0.05, initial_accumulator=0.1)
    adagrad_step([("theta", theta)], {"theta": np.array([1.0])}, state)
    assert theta[0] == pytest.approx(1.0 - 0.05 / np.sqrt(1.1), abs=1e-15)
    assert state.accumulators["theta"][0] == pytest.approx(1.1, abs=1e-15)


def test_adagrad_zero_gradient_no_change():
    theta = np.array([2.0, -3.0])
    state = AdagradState()
    adagrad_step([("theta", theta)], {"theta": np.zeros(2)}, state)
    np.testing.assert_array_equal(theta, [2.0, -3.0])
    np.testing.assert_array_equal(state.accumulators["theta"], [0.1, 0.1])


def test_adagrad_second_identical_step_is_smaller():
    theta = np.array([0.0])
    state = AdagradState()
    adagrad_step([("theta", theta)], {"theta": np.array([1.0])}, state)
    first = abs(theta[0])
    before = theta[0]
    adagrad_step([("theta", theta)], {"theta": np.array([1.0])}, state)
    second = abs(theta[0] - before)
    assert second < first
    # accumulators only grow
    assert state.accumulators["theta"][0] == pytest.approx(2.1)


def test_adagrad_nonfinite_gradient_names_parameter():
    theta = np.array([1.0])
    with pytest.raises(NonFiniteError, match="ffnn_qs.V"):
        adagrad_step([("ffnn_qs.V", theta)],
                     {"ffnn_qs.V": np.array([np.nan])}, AdagradState())


def test_adagrad_shape_mismatch():
    with pytest.raises(ContractError):
        adagrad_step([("t", np.zeros(2))], {"t": np.zeros(3)}, AdagradState())


# ---------------------------------------------------------------------------
# the loop


@pytest.fixture(scope="module")
def tiny_corpus():
    train_ex, heldout = synth.make_overfit_corpus(8, 4, seed=5)
    table = synth.make_table(embed_dim=8, seed=7)
    return train_ex, heldout, table


def test_train_zero_epochs_returns_initial_params(tiny_corpus):
    train_ex, _, table = tiny_corpus
    cfg = TrainConfig(epochs=0, hidden_width=8, seed=3)
    result = train(train_ex, cfg, table)
    fresh = mdl.CascadeParams.initialize(cfg.arch(table.dimension), 3)
    for (n1, a1), (n2, a2) in zip(result.params.named_arrays(),
                                  fresh.named_arrays()):
        assert a1.tobytes() == a2.tobytes(), n1


def test_train_loss_decreases(tiny_corpus):
    train_ex, _, table = tiny_corpus
    cfg = TrainConfig(epochs=20, hidden_width=8, seed=0)
    result = train(train_ex, cfg, table)
    assert result.metrics[19].mean_loss < result.metrics[0].mean_loss


def test_train_requires_gold(tiny_corpus):
    _, _, table = tiny_corpus
    from spancascade.corpus import QAExample, tokenize

    hopeless = [QAExample("h", ["who"], [tokenize("alpha beta .")], ["zzz"])]
    with pytest.raises(NoTrainableDataError):
        train(hopeless, TrainConfig(epochs=1, hidden_width=8), table)
    with pytest.raises(NoTrainableDataError):
        train([], TrainConfig(epochs=1, hidden_width=8), table)


def test_train_writes_metrics_and_checkpoints(tmp_path, tiny_corpus):
    train_ex, _, table = tiny_corpus
    cfg = TrainConfig(epochs=2, hidden_width=8, seed=0)
    result = train(train_ex, cfg, table, out_dir=tmp_path)
    lines = (tmp_path / "metrics.jsonl").read_text().strip().split("\n")
    assert len(lines) == 2
    entry = json.loads(lines[0])
    assert set(entry) == {"epoch", "mean_loss", "train_em", "steps", "skipped"}
    assert (tmp_path / "checkpoint-epoch001.ckpt").exists()
    assert (tmp_path / "checkpoint-epoch002.ckpt").exists()
    loaded = mdl.load_checkpoint(tmp_path / "checkpoint.ckpt")
    for (n1, a1), (n2, a2) in zip(result.params.named_arrays(),
                                  loaded.named_arrays()):
        assert a1.tobytes() == a2.tobytes()


def test_train_deterministic_checkpoint_bytes(tmp_path, tiny_corpus):
    train_ex, _, table = tiny_corpus
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = TrainConfig(epochs=3, hidden_width=8, seed=11)
        train(train_ex, cfg, table, out_dir=out)
        outs.append((out / "checkpoint.ckpt").read_bytes())
    assert outs[0] == outs[1]


def _grads_for(cfg, table, example):
    arch = cfg.arch(table.dimension)
    params = mdl.CascadeParams.initialize(arch, cfg.seed)
    cands = build_candidates(example, arch.span_limit)
    enc = mdl.encode_example(example, cands, table, arch)
    tape = ad.Tape()
    scores = mdl.forward_cascade(tape, params.bind(tape), enc)
    loss = multi_loss(scores, enc.gold_spans, enc.gold_uniques, cfg.weights)
    return tape.backward(loss)


def test_single_loss_score_heads_get_exact_zero_gradient(tiny_corpus):
    train_ex, _, table = tiny_corpus
    grads = _grads_for(TrainConfig(hidden_width=8, ablation="single_loss"),
                       table, train_ex[0])
    for head in ("linear_qs", "linear_c", "linear_l2"):
        assert np.all(grads[f"{head}.w"] == 0.0)
        assert np.all(grads[f"{head}.z"] == 0.0)
    # but the lower submodels still receive gradient through the hiddens
    for net in ("ffnn_qs", "ffnn_c", "ffnn_att1", "ffnn_att2", "ffnn_q"):
        assert np.any(grads[f"{net}.V"] != 0.0), net


def test_full_weights_reach_every_head(tiny_corpus):
    train_ex, _, table = tiny_corpus
    grads = _grads_for(TrainConfig(hidden_width=8), table, train_ex[0])
    for head in ("linear_qs", "linear_c", "linear_l2", "linear_l3"):
        assert np.any(grads[f"{head}.w"] != 0.0), head


def test_train_em_reported(tiny_corpus):
    train_ex, _, table = tiny_corpus
    cfg = TrainConfig(epochs=1, hidden_width=8, seed=0)
    result = train(train_ex, cfg, table)
    assert 0.0 <= result.metrics[0].train_em <= 1.0
    assert result.metrics[0].steps == len(train_ex)


def test_train_em_is_evaluate_em_over_the_training_set(tiny_corpus):
    from spancascade.corpus import QAExample, tokenize
    from spancascade.evaluation import evaluate

    train_ex, _, table = tiny_corpus
    # one example without candidates and one without gold: both are skipped
    # by the optimizer but count in the EM denominator
    examples = train_ex + [
        QAExample("empty", ["who"], [tokenize("")], ["zarek"]),
        QAExample("nogold", ["who"], [tokenize("alpha beta .")], ["zzz"])]
    result = train(examples, TrainConfig(epochs=2, hidden_width=8, seed=1),
                   table)
    assert result.skipped == 2
    report = evaluate(mdl.make_scorer(result.params, table), examples)
    assert result.metrics[-1].train_em == report.em


def test_training_step_tape_is_freed_without_cyclic_gc():
    example, table = synth.gradcheck_instance(embed_dim=8, seed=13)
    config = TrainConfig(hidden_width=8, dropout=0.2)
    arch = config.arch(table.dimension)
    params = mdl.CascadeParams.initialize(arch, 0)
    enc = mdl.encode_example(example, build_candidates(example, arch.span_limit),
                             table, arch)
    state = AdagradState(config.learning_rate, config.accumulator_init)

    def step():
        tape = ad.Tape()
        drop = ad.DropoutState(config.dropout, np.random.default_rng(0),
                               training=True)
        scores = mdl.forward_cascade(tape, params.bind(tape), enc, drop)
        loss = multi_loss(scores, enc.gold_spans, enc.gold_uniques,
                          config.weights)
        adagrad_step(params.named_arrays(), tape.backward(loss), state)
        return weakref.ref(tape)

    gc.disable()
    try:
        dead_tape = step()
        # reference counting alone frees it: the tape holds no cycle
        assert dead_tape() is None
    finally:
        gc.enable()
