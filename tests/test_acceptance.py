"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; add `-s` to see the measured values as they print. The
experiments train real models from scratch and together take several
minutes on one CPU core. Every run is seeded and deterministic.
"""

import dataclasses
import time

import numpy as np
import pytest

from spancascade import autodiff as ad
from spancascade import evaluation, model, synth, training
from spancascade.bench import run_benchmark
from spancascade.corpus import Document, QAExample, build_candidates, tokenize
from spancascade.embeddings import random_table
from spancascade.evaluation import evaluate, exact_match, token_f1
from spancascade.training import LossWeights, TrainConfig


def _status(name, detail):
    print(f"\n[criterion] {name}: {detail}")


# ---------------------------------------------------------------------------
# 1. gradient oracle


def test_gradient_oracle_full_cascade():
    """Full 4-level loss vs central differences: < 1e-3 within 30 s."""
    example, table = synth.gradcheck_instance(embed_dim=8, seed=13)
    doc = example.documents[0]
    assert len(doc.sentences) == 3 and len(doc.tokens) == 12
    config = TrainConfig(hidden_width=8, dropout=0.0)
    arch = config.arch(table.dimension)
    params = model.CascadeParams.initialize(arch, 0)
    cands = build_candidates(example, arch.span_limit)
    enc = model.encode_example(example, cands, table, arch)
    assert enc.gold_spans.size == 2  # two gold mentions

    def loss_fn(arrays):
        tape = ad.Tape()
        bound = model.CascadeParams.from_arrays(arch, 0, arrays).bind(tape)
        scores = model.forward_cascade(tape, bound, enc)
        return training.multi_loss(scores, enc.gold_spans, enc.gold_uniques,
                                   config.weights)

    t0 = time.perf_counter()
    result = ad.finite_difference_check(loss_fn, params.as_dict(),
                                        epsilon=1e-5)
    elapsed = time.perf_counter() - t0
    _status("gradient oracle",
            f"max rel error {result.max_rel_error:.2e} "
            f"(worst {result.worst_param}) in {elapsed:.1f}s")
    assert result.max_rel_error < 1e-3
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 2. normalization suite


def test_every_softmax_sums_to_one_on_100_random_instances(softmax_spy):
    table = synth.make_table(embed_dim=8, seed=7)
    arch = model.Architecture(embed_dim=8, hidden_width=8)
    rng = np.random.default_rng(2024)
    checked = 0
    instances = 0
    while instances < 100:
        example = synth.random_example(rng, instances)
        cands = build_candidates(example, arch.span_limit)
        if not cands.spans:
            continue
        instances += 1
        params = model.CascadeParams.initialize(arch, instances)
        enc = model.encode_example(example, cands, table, arch)
        softmax_spy.clear()
        tape = ad.Tape()
        scores = model.forward_cascade(tape, params.bind(tape), enc)
        model.distributions(scores)
        assert softmax_spy, "no distributions collected"
        for vec in softmax_spy:
            assert np.all(vec >= 0)
            assert abs(vec.sum() - 1.0) < 1e-12
            checked += 1
    _status("normalization suite",
            f"{checked} probability vectors over {instances} instances, "
            f"all sums within 1e-12")


# ---------------------------------------------------------------------------
# 3. span enumeration oracle


def _brute_force(doc, limit):
    out = []
    for si, (s, e) in enumerate(doc.sentences):
        for start in range(s, e):
            for end in range(start + 1, e + 1):
                if end - start <= limit:
                    out.append((si, start, end))
    return sorted(out)


def _spans(doc, limit):
    return build_candidates(QAExample("x", ["who"], [doc], []), limit).spans


def test_span_enumeration_matches_brute_force():
    rng = np.random.default_rng(77)
    total = 0
    for _ in range(100):
        tokens, sentences = [], []
        for _ in range(int(rng.integers(1, 5))):
            g = int(rng.integers(1, 61))
            start = len(tokens)
            tokens.extend(f"t{i}" for i in range(g))
            sentences.append((start, start + g))
        doc = Document(tokens, sentences)
        spans = _spans(doc, 5)
        got = sorted(zip(spans.sentence.tolist(), spans.start.tolist(),
                         (spans.start + spans.length).tolist()))
        assert got == _brute_force(doc, 5)
        total += len(spans)
    ten = Document([f"t{i}" for i in range(10)], [(0, 10)])
    assert len(_spans(ten, 5)) == 40
    _status("span enumeration oracle",
            f"100 random documents, {total} spans, exact match; G=10 -> 40")


# ---------------------------------------------------------------------------
# 4. aggregation invariance


def _take_spans(enc, rows):
    """``enc`` with span rows ``rows`` of its own; gold spans follow."""
    gold = set(enc.gold_spans.tolist())
    return dataclasses.replace(
        enc, span_sentence=enc.span_sentence[rows],
        span_unique=enc.span_unique[rows], gamma=enc.gamma[rows],
        span_rows=enc.span_rows[rows],
        gold_spans=np.array([j for j, r in enumerate(rows) if r in gold],
                            dtype=np.intp))


def test_mention_permutation_and_duplication():
    example, table = synth.gradcheck_instance(embed_dim=8, seed=13)
    arch = model.Architecture(embed_dim=8, hidden_width=8)
    params = model.CascadeParams.initialize(arch, 3)
    enc = model.encode_example(
        example, build_candidates(example, arch.span_limit), table, arch)
    reference = model.score_example(params, enc).phi4

    rows = np.random.default_rng(0).permutation(enc.n_spans)
    permuted = model.score_example(params, _take_spans(enc, rows)).phi4
    diff = float(np.max(np.abs(permuted - reference)))
    assert diff <= 1e-12

    gold = int(enc.gold_spans[0])
    duplicated = _take_spans(enc, np.append(np.arange(enc.n_spans), gold))
    changed = model.score_example(params, duplicated).phi4
    uid = enc.span_unique[gold]
    assert changed[uid] != reference[uid]
    _status("aggregation invariance",
            f"permuting the span rows changed phi4 by {diff:.1e} (<= 1e-12); "
            "duplicating a gold mention changed it")


# ---------------------------------------------------------------------------
# 5. attention-count invariant


def test_attention_computations_equal_sentence_count():
    table = synth.make_table(embed_dim=8, seed=7)
    arch = model.Architecture(embed_dim=8, hidden_width=8)
    params = model.CascadeParams.initialize(arch, 0)
    text = " ".join("vel tost ." for _ in range(1000))
    from spancascade.corpus import QAExample

    example = QAExample("many", tokenize("who met vel ?").tokens,
                        [tokenize(text)], ["vel"])
    assert len(example.documents[0].sentences) == 1000
    cands = build_candidates(example, arch.span_limit)
    enc = model.encode_example(example, cands, table, arch)
    assert enc.n_spans > 1000  # far more spans than sentences
    stats = model.ForwardStats()
    tape = ad.Tape()
    model.forward_cascade(tape, params.bind(tape), enc, stats=stats)
    assert stats.attention_calls == 1000
    np_stats = model.ForwardStats()
    model.score_example(params, enc, stats=np_stats)
    assert np_stats.attention_calls == 1000
    _status("attention-count invariant",
            f"1000 sentences, {enc.n_spans} spans, exactly 1000 attention "
            f"computations on both paths")


# ---------------------------------------------------------------------------
# 6. overfit experiment


def test_overfit_multiloss_beats_level1_ablation():
    train_ex, heldout = synth.make_overfit_corpus(50, 50, seed=11)
    table = synth.make_table(embed_dim=16, seed=7)
    t0 = time.perf_counter()
    full_cfg = TrainConfig(epochs=40, seed=0, dropout=0.1, hidden_width=32)
    assert full_cfg.epochs <= 200
    full = training.train(train_ex, full_cfg, table)
    elapsed = time.perf_counter() - t0
    train_em = full.metrics[-1].train_em
    assert train_em >= 0.95
    assert elapsed < 600.0  # ten minutes on one core

    full_heldout = evaluate(model.make_scorer(full.params, table), heldout).em
    level1 = training.train(
        train_ex,
        TrainConfig(ablation="level1_qs_only", epochs=40, seed=0, dropout=0.1,
                    hidden_width=32),
        table)
    level1_heldout = evaluate(
        model.make_scorer(level1.params, table), heldout).em
    _status("overfit experiment",
            f"train EM {train_em:.2f} in {elapsed:.0f}s; held-out full "
            f"{full_heldout:.2f} vs question+span-only {level1_heldout:.2f}")
    assert level1_heldout < full_heldout


# ---------------------------------------------------------------------------
# 7. multi-mention advantage


def test_multimention_beats_no_aggregation_by_10_points():
    train_ex, heldout = synth.make_multimention_corpus(60, 50, seed=23)
    table = synth.make_table(embed_dim=16, seed=7)
    full = training.train(
        train_ex,
        TrainConfig(epochs=150, seed=0, dropout=0.1, hidden_width=32,
                    weights=LossWeights(0.1, 0.1, 0.2, 0.6)),
        table)
    full_em = evaluate(model.make_scorer(full.params, table), heldout).em
    no_agg = training.train(
        train_ex,
        TrainConfig(ablation="level12_only", epochs=150, seed=0, dropout=0.1,
                    hidden_width=32),
        table)
    no_agg_em = evaluate(model.make_scorer(no_agg.params, table), heldout).em
    _status("multi-mention advantage",
            f"full {full_em:.2f} vs no-aggregation {no_agg_em:.2f} "
            f"(gap {full_em - no_agg_em:+.2f})")
    assert full_em - no_agg_em >= 0.10


# ---------------------------------------------------------------------------
# 8. Adagrad unit value


def test_adagrad_unit_value():
    theta = np.array([1.0])
    state = training.AdagradState(learning_rate=0.05, initial_accumulator=0.1)
    training.adagrad_step([("theta", theta)], {"theta": np.array([1.0])},
                          state)
    expected = 1.0 - 0.05 / np.sqrt(1.1)
    _status("adagrad unit value",
            f"theta' = {theta[0]!r}, expected {expected!r}")
    assert abs(theta[0] - expected) < 1e-12


# ---------------------------------------------------------------------------
# 9. metric units


def test_metric_hand_cases_and_topk_monotonicity():
    assert abs(token_f1("jackson pollock", ["pollock"]) - 2.0 / 3.0) < 1e-12
    aliases = ["Jackson Pollock", "Pollock", "Pollock, Jackson"]
    assert abs(token_f1("jackson pollock", aliases) - 1.0) < 1e-12
    assert exact_match("Jackson Pollock", aliases) == 1
    assert exact_match("pollock", aliases) == 1
    assert exact_match("Krasner", aliases) == 0

    rng = np.random.default_rng(8)
    vocab = ["aa", "bb", "cc", "dd", "ee", "ff"]

    def scorer(ex):
        k = int(rng.integers(2, 7))
        cands = [vocab[i] for i in rng.choice(6, size=k, replace=False)]
        return evaluation.ScoredExample(
            ex, [vocab[int(rng.integers(0, 6))]], cands,
            rng.normal(size=k), rng.integers(1, 20, size=k))

    report = evaluate(scorer, [f"e{i}" for i in range(60)], k_max=6)
    accs = [acc for _, acc in report.top_k_accuracy]
    assert accs[0] == report.em
    assert all(b >= a for a, b in zip(accs, accs[1:]))
    _status("metric units",
            f"token F1 hand case exact; top-k accuracies {accs} monotone")


# ---------------------------------------------------------------------------
# 10. throughput trend


def test_throughput_trend_and_mac_linearity():
    result = run_benchmark([200, 5000, 10000], reps=5,
                           embed_dim=16, hidden_width=32, seed=0)
    by_n = {r.n: r for r in result.rows}
    small, half, big = by_n[200], by_n[5000], by_n[10000]
    us_small = 1000.0 * small.cascade_ms / small.n
    us_big = 1000.0 * big.cascade_ms / big.n
    _status("throughput trend",
            f"speedup {small.speedup:.2f}x at n=200, {big.speedup:.2f}x "
            f"at n=10000; cascade {us_small:.1f} -> {us_big:.1f} us/token; "
            f"cascade MACs {half.cascade_macs:,} -> "
            f"{big.cascade_macs:,} for doubled n")
    # Both programs are linear in n, so the speedup itself need not grow:
    # the cascade must beat the sequential baseline on a long document, and
    # its per-token cost must stay flat (within 2x, for timing noise) as the
    # document grows 50-fold.
    assert big.speedup > 1.0
    assert us_big < 2.0 * us_small
    ratio = big.cascade_macs / half.cascade_macs
    assert 1.8 <= ratio <= 2.2  # doubling n doubles the work within 10%


# ---------------------------------------------------------------------------
# 11. reproducibility


def test_identical_runs_produce_identical_checkpoints(tmp_path):
    train_ex, _ = synth.make_overfit_corpus(8, 1, seed=5)
    table = synth.make_table(embed_dim=8, seed=7)
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = TrainConfig(epochs=3, seed=42, dropout=0.1, hidden_width=8)
        training.train(train_ex, cfg, table, out_dir=out)
        blobs.append((out / "checkpoint.ckpt").read_bytes())
    _status("reproducibility",
            f"two runs, {len(blobs[0])}-byte checkpoints, byte-identical: "
            f"{blobs[0] == blobs[1]}")
    assert blobs[0] == blobs[1]
