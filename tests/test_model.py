"""Cascade forward: level contracts, attention sharing, checkpoints."""

import copy
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from tape_oracle import sum_rows

from spancascade import autodiff as ad
from spancascade import bench, blas, synth
from spancascade import model as mdl
from spancascade.corpus import QAExample, build_candidates, tokenize
from spancascade.embeddings import random_table
from spancascade.errors import CheckpointError, ContractError, EmptyCandidateError
from spancascade.training import ABLATIONS, TrainConfig

ARCH = mdl.Architecture(embed_dim=8, hidden_width=8)


@pytest.fixture(scope="module")
def toy():
    example, table = synth.gradcheck_instance(embed_dim=8, seed=13)
    cands = build_candidates(example, ARCH.span_limit)
    enc = mdl.encode_example(example, cands, table, ARCH)
    params = mdl.CascadeParams.initialize(ARCH, 0)
    return example, table, cands, enc, params


def run_tape(params, enc, stats=None):
    tape = ad.Tape()
    bound = params.bind(tape)
    return mdl.forward_cascade(tape, bound, enc, stats=stats), tape


# ---------------------------------------------------------------------------
# question vector


def test_question_vector_singleton_is_the_token():
    table = random_table(["only"], 8, seed=0)
    tape = ad.Tape()
    params = mdl.CascadeParams.initialize(ARCH, 1).bind(tape)
    q = table.lookup_all(["only"])
    out = mdl.question_vector(tape.constant(q), params)
    np.testing.assert_allclose(out.value, q[0], rtol=1e-12)


def test_question_vector_uniform_weights_give_mean():
    rng = np.random.default_rng(2)
    q = rng.normal(size=(4, 8))
    tape = ad.Tape()
    params = mdl.CascadeParams.initialize(ARCH, 1)
    # zero heads force equal logits
    params.nets["linear_q"].w[:] = 0.0
    bound = params.bind(tape)
    out = mdl.question_vector(tape.constant(q), bound)
    np.testing.assert_allclose(out.value, q.mean(axis=0), rtol=1e-12)


def test_question_vector_weights_are_probabilities(softmax_spy):
    rng = np.random.default_rng(3)
    for trial in range(10):
        q = rng.normal(size=(int(rng.integers(1, 7)), 8))
        tape = ad.Tape()
        bound = mdl.CascadeParams.initialize(ARCH, trial).bind(tape)
        softmax_spy.clear()
        mdl.question_vector(tape.constant(q), bound)
        (weights,) = softmax_spy
        assert weights.shape == (q.shape[0],)
        assert abs(weights.sum() - 1.0) < 1e-12
        assert np.all(weights >= 0)


# ---------------------------------------------------------------------------
# span embeddings and level-1 features


def test_question_span_columns_rebuild_phi1(toy):
    """phi1 reads [span_avg, gamma, q_tilde, gamma], in that order."""
    _, _, _, enc, params = toy
    scores, _ = run_tape(params, enc)
    tape = ad.Tape()
    bound = params.bind(tape)
    q_tilde = mdl.question_vector(tape.constant(enc.question), bound).value
    gamma = enc.gamma[:, None]
    span_avg, _, _ = enc.span_features(0, enc.n_spans)
    x = np.hstack([span_avg, gamma,
                   np.tile(q_tilde, (enc.n_spans, 1)), gamma])
    h = ad.ffnn(tape.constant(x), bound.nets["ffnn_qs"])
    phi1 = ad.linear(h, bound.nets["linear_qs"]).value
    np.testing.assert_allclose(phi1, scores.phi1.value, rtol=0, atol=1e-12)


def test_encode_single_token_span_average_is_embedding(toy):
    example, table, cands, enc, _ = toy
    i = np.flatnonzero(cands.spans.length == 1)[0]
    tok = example.documents[0].tokens[cands.spans.start[i]]
    span_avg, _, _ = enc.span_features(0, enc.n_spans)
    np.testing.assert_allclose(span_avg[i], table.lookup(tok), rtol=1e-12)


def test_encode_context_zero_at_document_edges(toy):
    example, table, cands, enc, _ = toy
    spans = cands.spans
    _, ctx_left, ctx_right = enc.span_features(0, enc.n_spans)
    first = np.flatnonzero(spans.start == 0)[0]
    np.testing.assert_array_equal(ctx_left[first], np.zeros(8))
    n = len(example.documents[0].tokens)
    last = np.flatnonzero(spans.start + spans.length == n)[0]
    np.testing.assert_array_equal(ctx_right[last], np.zeros(8))


def test_encode_context_is_adjacent_token_for_k1(toy):
    example, table, cands, enc, _ = toy
    idx = np.flatnonzero(cands.spans.start == 1)[0]
    left_tok = example.documents[0].tokens[0]
    _, ctx_left, _ = enc.span_features(0, enc.n_spans)
    np.testing.assert_allclose(ctx_left[idx], table.lookup(left_tok),
                               rtol=1e-12)


def test_forward_keeps_nothing_on_the_encoded_example(toy):
    """A one-chunk pass, recording or not, adds no state to the example."""
    example, table, cands, _, params = toy
    enc = mdl.encode_example(example, cands, table, ARCH)
    assert len(mdl._chunk_ranges(enc.n_spans)) == 1
    before = dict(vars(enc))
    run_tape(params, enc)
    mdl.score_example(params, enc)
    assert list(vars(enc)) == list(before)
    assert all(vars(enc)[key] is value for key, value in before.items())


def test_encode_gamma_is_binary_and_reflects_overlap(toy):
    example, table, cands, enc, _ = toy
    assert set(np.unique(enc.gamma)) <= {0.0, 1.0}
    # question "who met vel tost ?" has content tokens {met, vel, tost}
    for i, (start, length) in enumerate(zip(cands.spans.start,
                                            cands.spans.length)):
        toks = [t.lower() for t in
                example.documents[0].tokens[start:start + length]]
        expect = float(bool({"met", "vel", "tost"} & set(toks)))
        assert enc.gamma[i] == expect


# ---------------------------------------------------------------------------
# locality and determinism


def test_level1_scores_local_to_span_and_context(toy):
    example, table, cands, enc, params = toy
    scores, _ = run_tape(params, enc)
    # mutate a distant document token (last sentence) and re-encode
    mutated = copy.deepcopy(example)
    mutated.documents[0].tokens[-2] = "tost"
    cands2 = build_candidates(mutated, ARCH.span_limit)
    enc2 = mdl.encode_example(mutated, cands2, table, ARCH)
    scores2, _ = run_tape(params, enc2)
    # spans in the first sentence (far from the mutation) keep exact scores
    for i in np.flatnonzero(cands.spans.sentence == 0):
        assert scores.phi1.value[i] == scores2.phi1.value[i]
        assert scores.phi2.value[i] == scores2.phi2.value[i]


def test_identical_spans_same_question_same_phi1(toy):
    _, _, cands, enc, params = toy
    scores, _ = run_tape(params, enc)
    # mentions of one unique candidate in the same structural position
    by_unique = {}
    for i, uid in enumerate(cands.spans.unique.tolist()):
        by_unique.setdefault(uid, []).append(i)
    # phi1 depends only on (span text, gamma, question): equal for mentions
    for mentions in by_unique.values():
        if len(mentions) > 1:
            vals = scores.phi1.value[mentions]
            assert np.allclose(vals, vals[0], rtol=0, atol=1e-12)


def test_forward_deterministic_bitwise(toy):
    _, _, _, enc, params = toy
    s1, _ = run_tape(params, enc)
    s2, _ = run_tape(params, enc)
    for phi1, phi2 in ((s1.phi1, s2.phi1), (s1.phi3, s2.phi3),
                       (s1.phi4, s2.phi4)):
        assert phi1.value.tobytes() == phi2.value.tobytes()


# ---------------------------------------------------------------------------
# attention


def oracle_attention(q, q_projected, g, bound, drop=None):
    """Attend/compare between the question and one sentence, as a loop over
    sentences ran it: the oracle for the grouped pass."""
    g_projected = ad.ffnn(g, bound.nets["ffnn_att1"], drop)
    eta = ad.matmul(q_projected, ad.transpose(g_projected))  # (m, G)
    align_q = ad.softmax(eta, axis=1)  # each question token over the sentence
    align_g = ad.softmax(eta, axis=0)  # each sentence token over the question
    q_attended = ad.matmul(align_q, g)               # (m, e)
    g_attended = ad.matmul(ad.transpose(align_g), q)  # (G, e)
    att2 = bound.nets["ffnn_att2"]
    q_bar = sum_rows(ad.ffnn(ad.hstack([q, q_attended]), att2, drop))
    g_bar = sum_rows(ad.ffnn(ad.hstack([g, g_attended]), att2, drop))
    return q_bar, g_bar


def oracle_summaries(tape, q_const, enc, bound, drop=None):
    """``sentence_summaries`` by the oracle, one sentence at a time."""
    q_projected = ad.ffnn(q_const, bound.nets["ffnn_att1"], drop)
    pairs = [oracle_attention(q_const, q_projected,
                              tape.constant(enc.doc_embed[s:e]), bound, drop)
             for s, e in enc.sentence_ranges]
    return tuple(ad.concat([ad.tile_rows(bar, 1) for bar in bars])
                 for bars in zip(*pairs))


def sentences_enc(sentences):
    """The two fields of an encoded example that attention reads."""
    bounds = np.cumsum([0] + [len(g) for g in sentences]).tolist()
    return SimpleNamespace(doc_embed=np.concatenate(sentences),
                           sentence_ranges=list(zip(bounds, bounds[1:])))


def attend(q, sentences, summaries=mdl.sentence_summaries, drop=None,
           params=None):
    """(q_bar, g_bar, gradients of a loss over both) for plain arrays."""
    tape = ad.Tape()
    params = params or mdl.CascadeParams.initialize(ARCH, 0)
    bound = params.bind(tape)
    q_bar, g_bar = summaries(tape, tape.constant(q), sentences_enc(sentences),
                             bound, drop)
    # a random linear loss, so every sentence's rows weigh on the gradients
    rng = np.random.default_rng(8)
    terms = []
    for bar in (q_bar, g_bar):
        u = tape.constant(rng.normal(size=ARCH.hidden_width))
        c = tape.constant(rng.normal(size=len(sentences)))
        terms.append(ad.matmul(ad.matmul(bar, u), c))
    return q_bar.value, g_bar.value, tape.backward(ad.add(*terms))


def test_attention_singleton_alignment_is_one():
    """A one-token question and one-token sentences align with weight 1,
    so each side compares its token with the other side's."""
    rng = np.random.default_rng(0)
    q, sentences = rng.normal(size=(1, 8)), list(rng.normal(size=(3, 1, 8)))
    q_bar, g_bar, _ = attend(q, sentences)
    tape = ad.Tape()
    bound = mdl.CascadeParams.initialize(ARCH, 0).bind(tape)
    for j, g in enumerate(sentences):
        for bar, pair in ((q_bar, [q, g]), (g_bar, [g, q])):
            compared = ad.ffnn(tape.constant(np.hstack(pair)),
                               bound.nets["ffnn_att2"])
            np.testing.assert_allclose(bar[j], compared.value[0], rtol=0,
                                       atol=1e-12)


def test_attention_symmetric_for_identical_sequences():
    q = np.random.default_rng(1).normal(size=(3, 8))
    q_bar, g_bar, _ = attend(q, [q.copy(), q.copy()])
    np.testing.assert_allclose(q_bar, g_bar, rtol=1e-12)


def test_attention_permuting_sentence_tokens_keeps_summaries():
    rng = np.random.default_rng(2)
    q = rng.normal(size=(2, 8))
    sentences = list(rng.normal(size=(2, 3, 8)))
    qb1, gb1, _ = attend(q, sentences)
    qb2, gb2, _ = attend(q, [sentences[0][[2, 0, 1]], sentences[1]])
    np.testing.assert_allclose(qb1, qb2, rtol=1e-10)
    np.testing.assert_allclose(gb1, gb2, rtol=1e-10)


@pytest.mark.parametrize("rate", [0.0, 0.1])
def test_grouped_attention_matches_per_sentence_oracle(rate, monkeypatch):
    """Ragged sentences (one of 1 token, one longer than a group) in four
    groups give the oracle's summaries and gradients, and draw the same
    dropout masks in the same order."""
    monkeypatch.setattr(mdl, "_MAX_CHUNK_ROWS", 7)
    rng = np.random.default_rng(3)
    q = rng.normal(size=(3, 8))
    sentences = [rng.normal(size=(G, 8)) for G in (3, 1, 9, 2, 4, 1, 6)]
    params = mdl.CascadeParams.initialize(ARCH, 4)
    runs = []
    for summaries in (mdl.sentence_summaries, oracle_summaries):
        drop = ad.DropoutState(rate, np.random.default_rng(5), training=True)
        runs.append(attend(q, sentences, summaries, drop, params)
                    + (drop.rng.random(),))
    (q_bar, g_bar, grads, after), (q_ref, g_ref, grads_ref, after_ref) = runs
    np.testing.assert_allclose(q_bar, q_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(g_bar, g_ref, rtol=0, atol=1e-12)
    for name in grads_ref:
        np.testing.assert_allclose(grads[name], grads_ref[name], rtol=0,
                                   atol=1e-12, err_msg=name)
    assert any(np.any(grads[name]) for name in grads if "att1" in name)
    assert after == after_ref


def test_tape_nodes_do_not_grow_with_sentences_in_one_group():
    table = random_table(["who", "ab", "cd", "ef", ".", "?"], 8, seed=0)
    nodes = []
    for n in (2, 20):
        example = QAExample("n", ["who", "ab", "?"],
                            [tokenize(" ".join(["ab cd ef ."] * n))], ["cd"])
        enc = mdl.encode_example(example, build_candidates(example), table,
                                 ARCH)
        assert len(enc.sentence_ranges) == n
        assert max(4 * n, enc.n_spans) <= mdl._MAX_CHUNK_ROWS
        _, tape = run_tape(mdl.CascadeParams.initialize(ARCH, 0), enc)
        nodes.append(len(tape))
    assert nodes[0] == nodes[1]


def test_attention_called_once_per_sentence_not_per_span(toy):
    example, table, _, _, params = toy
    for limit in (1, 2, 5):
        arch = mdl.Architecture(embed_dim=8, hidden_width=8, span_limit=limit)
        p = mdl.CascadeParams.initialize(arch, 0)
        cands = build_candidates(example, limit)
        enc = mdl.encode_example(example, cands, table, arch)
        stats = mdl.ForwardStats()
        tape = ad.Tape()
        mdl.forward_cascade(tape, p.bind(tape), enc, stats=stats)
        assert stats.attention_calls == len(example.documents[0].sentences)
        np_stats = mdl.ForwardStats()
        mdl.score_example(p, enc, stats=np_stats)
        assert np_stats.attention_calls == len(example.documents[0].sentences)


def test_level2_same_inputs_same_score():
    tape = ad.Tape()
    bound = mdl.CascadeParams.initialize(ARCH, 0).bind(tape)
    rng = np.random.default_rng(3)
    h = np.repeat(rng.normal(size=(1, 8)), 2, axis=0)
    qb = np.repeat(rng.normal(size=(1, 8)), 2, axis=0)
    gb = np.repeat(rng.normal(size=(1, 8)), 2, axis=0)
    gamma = np.ones((2, 1))
    columns = [tape.constant(x) for x in (h, h, qb, gb, gamma)]
    _, phi3 = mdl.submodel(columns, bound.nets["ffnn_l2"],
                           bound.nets["linear_l2"])
    assert phi3.value[0] == phi3.value[1]


# ---------------------------------------------------------------------------
# aggregation semantics


def take_spans(enc, rows):
    """The encoded example with its span rows replaced by ``enc``'s rows
    ``rows`` (a permutation, or with repeats); gold spans follow."""
    gold = set(enc.gold_spans.tolist())
    return dataclasses.replace(
        enc, span_sentence=enc.span_sentence[rows],
        span_unique=enc.span_unique[rows], gamma=enc.gamma[rows],
        span_rows=enc.span_rows[rows],
        gold_spans=np.array([j for j, r in enumerate(rows) if r in gold],
                            dtype=np.intp))


def test_aggregation_mention_list_order_irrelevant(toy):
    _, _, _, enc, params = toy
    scores, _ = run_tape(params, enc)
    rows = np.random.default_rng(0).permutation(enc.n_spans)
    shuffled = take_spans(enc, rows)
    # the permutation reorders the mentions of some multi-mention unique
    assert any(np.any(np.diff(rows[shuffled.span_unique == u]) < 0)
               for u in np.flatnonzero(enc.mention_counts > 1))
    scores2, _ = run_tape(params, shuffled)
    # rows move with their spans; level 3 sums the mention rows in another
    # order, and BLAS may round a row differently inside another batch
    np.testing.assert_allclose(scores2.phi3.value[np.argsort(rows)],
                               scores.phi3.value, rtol=0, atol=1e-12)
    np.testing.assert_allclose(scores2.phi4.value, scores.phi4.value,
                               rtol=0, atol=1e-12)


def test_aggregation_duplicated_mention_changes_score(toy):
    _, _, _, enc, params = toy
    scores, _ = run_tape(params, enc)
    gold = int(enc.gold_spans[0])
    dup = take_spans(enc, np.append(np.arange(enc.n_spans), gold))
    assert dup.gold_spans.tolist() == enc.gold_spans.tolist() + [enc.n_spans]
    scores2, _ = run_tape(params, dup)
    uid = enc.span_unique[gold]
    assert scores.phi4.value[uid] != scores2.phi4.value[uid]


def test_level3_rejects_empty(toy):
    _, _, _, enc, params = toy
    tape = ad.Tape()
    bound = params.bind(tape)
    with pytest.raises(ContractError):
        mdl.level3_aggregate(tape.constant(np.zeros((0, 8))), bound)


# ---------------------------------------------------------------------------
# distributions and prediction


def test_distributions_sum_to_one(toy):
    _, _, _, enc, params = toy
    scores, _ = run_tape(params, enc)
    dists = mdl.distributions(scores)
    assert list(dists) == ["phi1", "phi2", "phi3", "phi4"]
    for p in dists.values():
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)


def test_distributions_shift_invariance(toy):
    _, _, _, enc, params = toy
    scores, _ = run_tape(params, enc)
    p4 = mdl.distributions(scores)["phi4"]
    shifted = mdl.CascadeScores(phi4=scores.phi4.value + 123.0)
    p4s = mdl.distributions(shifted)["phi4"]
    assert np.max(np.abs(p4 - p4s)) < 1e-12


def test_distributions_empty_raises():
    with pytest.raises(EmptyCandidateError):
        mdl.distributions(mdl.CascadeScores(phi4=np.zeros(0)))


def _fake_enc(n_unique, surfaces=None, counts=None):
    enc = mdl.EncodedExample(
        example_id="f", question=np.zeros((1, 2)),
        doc_embed=np.zeros((0, 2)), sentence_ranges=[],
        span_sentence=np.zeros(0, dtype=np.intp),
        span_unique=np.zeros(0, dtype=np.intp), gamma=np.zeros(0),
        csums=np.zeros((1, 2)), span_rows=np.zeros((0, 4), dtype=np.intp),
        context_size=1, n_unique=n_unique,
        gold_spans=np.zeros(0, dtype=np.intp),
        gold_uniques=np.zeros(0, dtype=np.intp),
        unique_surfaces=surfaces or [f"u{i}" for i in range(n_unique)],
        mention_counts=(counts if counts is not None
                        else np.ones(n_unique, dtype=np.intp)),
    )
    return enc


def test_predict_argmax_and_tie_break():
    enc = _fake_enc(3)
    pred = mdl.predict(mdl.CascadeScores(phi4=np.array([1.0, 5.0, 2.0])), enc)
    assert pred.unique_id == 1 and pred.text == "u1"
    tie = mdl.predict(mdl.CascadeScores(phi4=np.array([7.0, 7.0, 7.0])), enc)
    assert tie.unique_id == 0  # exact tie goes to the earliest candidate


def test_predict_single_candidate():
    enc = _fake_enc(1, surfaces=["only"], counts=np.array([4]))
    pred = mdl.predict(mdl.CascadeScores(phi4=np.array([0.0])), enc)
    assert pred.text == "only" and pred.mention_count == 4


def test_predict_empty_returns_none():
    assert mdl.predict(mdl.CascadeScores(phi4=np.zeros(0)), _fake_enc(0)) is None


def test_predict_shift_invariant(toy):
    _, _, _, enc, params = toy
    scores, _ = run_tape(params, enc)
    base = mdl.predict(scores, enc)
    shifted = mdl.CascadeScores(phi4=scores.phi4.value + 42.0)
    assert mdl.predict(shifted, enc).unique_id == base.unique_id


def test_prediction_scores_fallbacks(toy):
    _, _, _, enc, params = toy
    scores, _ = run_tape(params, enc)
    vals = scores.values()
    no_l3 = mdl.CascadeScores(phi1=vals.phi1, phi2=vals.phi2, phi3=vals.phi3)
    by_phi3 = mdl.prediction_scores(no_l3, enc)
    assert by_phi3.shape == (enc.n_unique,)
    # max over mentions: every unique's score is one of its spans' phi3
    for uid in range(enc.n_unique):
        mask = enc.span_unique == uid
        assert by_phi3[uid] == vals.phi3[mask].max()
    # a level-1 wiring answers from its one head
    for level in ("phi1", "phi2"):
        phi = getattr(vals, level)
        got = mdl.prediction_scores(mdl.CascadeScores(**{level: phi}), enc)
        for uid in range(enc.n_unique):
            assert got[uid] == phi[enc.span_unique == uid].max()


# ---------------------------------------------------------------------------
# inference path: recording vs non-recording forward, chunks, MACs


def test_inference_matches_tape_path(toy):
    _, _, _, enc, params = toy
    tape_scores, tape = run_tape(params, enc)
    plain = mdl.score_example(params, enc)
    vals = tape_scores.values()
    for level in ("phi1", "phi2", "phi3", "phi4"):
        assert getattr(plain, level).tobytes() == getattr(vals, level).tobytes()
    assert len(tape) > 0


def test_chunked_forward_matches_one_chunk(toy, monkeypatch):
    _, _, _, enc, params = toy
    assert enc.n_spans > 2 * 7  # several chunks of 7 rows
    whole = mdl.score_example(params, enc)
    stats_whole = mdl.ForwardStats()
    run_tape(params, enc, stats=stats_whole)
    monkeypatch.setattr(mdl, "_MAX_CHUNK_ROWS", 7)
    stats = mdl.ForwardStats()
    chunked, _ = run_tape(params, enc, stats=stats)
    for level in ("phi1", "phi2", "phi3", "phi4"):
        np.testing.assert_allclose(getattr(chunked, level).value,
                                   getattr(whole, level), rtol=0, atol=1e-12)
    assert stats.macs == stats_whole.macs
    assert stats.attention_calls == len(enc.sentence_ranges)


def test_chunked_forward_gradients(toy, monkeypatch):
    from spancascade.training import LossWeights, multi_loss

    _, _, _, enc, params = toy
    monkeypatch.setattr(mdl, "_MAX_CHUNK_ROWS", 7)

    def loss_fn(arrays):
        tape = ad.Tape()
        bound = mdl.CascadeParams.from_arrays(ARCH, 0, arrays).bind(tape)
        scores = mdl.forward_cascade(tape, bound, enc)
        return multi_loss(scores, enc.gold_spans, enc.gold_uniques,
                          LossWeights())

    arrays = {k: v.copy() for k, v in params.as_dict().items()}
    result = ad.finite_difference_check(loss_fn, arrays)
    assert result.max_rel_error < 1e-3, result


def test_level3_running_sum_is_bitwise_one_sum(monkeypatch):
    """Chunks adding into one running sum give the one-shot sum's bits;
    a sum of per-chunk partial sums would not."""
    monkeypatch.setattr(mdl, "_MAX_CHUNK_ROWS", 7)
    example = QAExample("x", ["who", "met", "vel", "?"],
                        [tokenize("vel vel vel tost . vel vel vel .")], ["vel"])
    spans = build_candidates(example).spans
    ids, S, U = spans.unique, len(spans), int(spans.unique.max()) + 1
    chunks = mdl._chunk_ranges(S)
    chunk_of = np.searchsorted([hi for _, hi in chunks], np.arange(S),
                               side="right")
    # a unique whose mentions straddle a chunk boundary, two or more of
    # them in the later chunk
    assert len(chunks) > 1 and any(
        len(set(chunk_of[ids == u])) > 1
        and np.sum(chunk_of[ids == u] == chunk_of[ids == u].max()) >= 2
        for u in range(U))
    rows = np.random.default_rng(4).normal(size=(S, 5)) \
        * np.logspace(-3, 3, S)[:, None]

    def chained(tape, x):
        summed = None
        for lo, hi in chunks:
            summed = ad.segment_sum(ad.gather(x, np.arange(lo, hi)),
                                    ids[lo:hi], U, into=summed)
        return summed

    for record in (True, False):
        tape = ad.Tape(record=record)
        whole = ad.segment_sum(tape.constant(rows), ids, U).value
        assert chained(tape, tape.constant(rows)).value.tobytes() \
            == whole.tobytes()
    partial = sum(ad.segment_sum(ad.Tape().constant(rows[lo:hi]), ids[lo:hi],
                                 U).value for lo, hi in chunks)
    assert partial.tobytes() != whole.tobytes()

    weights = np.random.default_rng(5).normal(size=5)

    def loss_fn(p):
        tape = ad.Tape()
        summed = chained(tape, tape.variable(p["x"], "x"))
        return ad.logsumexp(ad.matmul(summed, tape.constant(weights)))

    result = ad.finite_difference_check(loss_fn, {"x": rows / 1e3})
    assert result.max_rel_error < 1e-3, result


def test_score_example_memory_grows_with_uniques_not_spans():
    """The working set of inference holds per-unique sums and one chunk,
    not per-span features or mention rows: one sentence repeated 500 or
    2000 times keeps 90 uniques while the span count grows fourfold."""
    import tracemalloc

    e = 16
    arch = mdl.Architecture(embed_dim=e, hidden_width=e)
    params = mdl.CascadeParams.initialize(arch, 0)
    words = [f"w{i}" for i in range(19)]
    table = random_table(words + ["."], e, seed=0)
    spans, peaks = [], []
    for repeats in (500, 2000):
        doc = tokenize(" ".join(words + ["."]) + (" " + " ".join(words + ["."]))
                       * (repeats - 1))
        example = QAExample("mem", ["w3", "w7"], [doc], ["w5"])
        enc = mdl.encode_example(example, build_candidates(example),
                                 table, arch)
        assert enc.n_unique == 90 and enc.n_spans == 90 * repeats
        tracemalloc.start()
        try:
            mdl.score_example(params, enc)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        spans.append(enc.n_spans)
    per_span = (peaks[1] - peaks[0]) / (spans[1] - spans[0])
    assert per_span < 8 * e, (per_span, peaks)


def test_mac_count_matches_between_paths(toy):
    _, _, _, enc, params = toy
    stats_t = mdl.ForwardStats()
    run_tape(params, enc, stats=stats_t)
    stats_n = mdl.ForwardStats()
    mdl.score_example(params, enc, stats=stats_n)
    assert stats_t.macs == stats_n.macs > 0


def _threaded_case():
    """An example of three span chunks, two unique chunks and one sentence
    group of 50 sentences, at e=w=100, wide enough for every chunk and the
    group to split."""
    arch = mdl.Architecture(embed_dim=100, hidden_width=100)
    example = bench.synthetic_example(1000, seed=3)
    table = random_table(bench.bench_vocabulary(), 100, seed=3)
    enc = mdl.encode_example(example, build_candidates(example), table, arch)
    return mdl.CascadeParams.initialize(arch, 3), enc


def _digest(scores) -> str:
    return hashlib.sha256(b"".join(phi.tobytes() for _, phi in
                                   scores.active())).hexdigest()


def print_threaded_case_scores():
    """Run in a subprocess: the digest of score_example's scores, and its
    MAC count."""
    stats = mdl.ForwardStats()
    print(_digest(mdl.score_example(*_threaded_case(), stats=stats)),
          stats.macs)


def test_inference_bytes_do_not_depend_on_pool_or_blas_threads():
    """score_example at OPENBLAS_NUM_THREADS=1 and =2 (subprocesses), and
    forward_cascade on pools of 1 and 2 threads, give the same score bytes
    and MAC count; every span chunk, unique chunk and sentence group
    splits, and the pools run the second halves."""
    params, enc = _threaded_case()
    assert len(mdl._chunk_ranges(enc.n_spans)) == 3
    assert len(mdl._chunk_ranges(enc.n_unique)) == 2
    assert 1 < len(enc.sentence_ranges) < enc.doc_embed.shape[0] \
        <= mdl._MAX_CHUNK_ROWS
    src = os.path.dirname(os.path.dirname(mdl.__file__))
    tests = os.path.dirname(__file__)
    runs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, tests]))
        done = subprocess.run(
            [sys.executable, "-c",
             "import test_model; test_model.print_threaded_case_scores()"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        runs.add(tuple(done.stdout.split()))
    for size in (1, 2):
        stats = mdl.ForwardStats()
        tape = ad.Tape(record=False)
        with blas.one_thread(), _CountingPool(size) as pool:
            scores = mdl.forward_cascade(tape, params.bind(tape), enc,
                                         stats=stats, pool=pool)
        # one half of every span chunk, unique chunk and sentence group
        assert len(pool.futures) == 3 + 2 + 1
        runs.add((_digest(scores.values()), str(stats.macs)))
    assert len(runs) == 1, runs


class _CountingPool(ThreadPoolExecutor):
    """A thread pool that keeps every future it hands out."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.futures = []

    def submit(self, *args, **kwargs):
        self.futures.append(super().submit(*args, **kwargs))
        return self.futures[-1]


def _split_offsets(n: int) -> np.ndarray:
    """Offsets over n items, each heavy enough that two split."""
    return np.arange(n + 1) * mdl._POOL_MIN_WORK


def test_pieces_close_cancels_queued_and_waits_for_running():
    """Closing the piece generator after the caller's first half, while the
    pool runs the second, waits for that half and cancels the next chunk's
    queued half."""
    params = mdl.CascadeParams.initialize(ARCH, 0)
    tape = ad.Tape(record=False)
    started, release, ran = threading.Event(), threading.Event(), []

    def work(own_tape, own, lo, hi):
        ran.append(lo)
        if lo == 1:
            started.set()
            release.wait(timeout=60)
        return lo

    with _CountingPool(1) as pool:
        pieces = mdl._pieces(tape, params.bind(tape),
                             [(0, 2), (2, 4), (4, 6), (6, 8)],
                             _split_offsets(8), work, pool)
        assert next(pieces)[:2] == (0, 1)
        # the second half runs, the next chunk's second half waits queued
        assert started.wait(timeout=60)
        timer = threading.Timer(0.2, release.set)
        timer.start()
        pieces.close()
        assert release.is_set()  # close waited for the running half
        timer.join()
        futures = pool.futures
        assert len(futures) == 2
        assert all(f.done() for f in futures) and futures[-1].cancelled()
    assert sorted(ran) == [0, 1]


def test_pieces_caller_scores_first_halves_and_pool_the_second():
    """A split chunk's first half runs on the calling thread, on its tape;
    its second half on the pool's thread; an unsplit chunk on the caller."""
    params = mdl.CascadeParams.initialize(ARCH, 0)
    tape = ad.Tape(record=False)
    caller, threads = threading.get_ident(), {}

    def work(own_tape, own, lo, hi):
        threads[lo] = (threading.get_ident(), own_tape is tape)
        return lo

    with _CountingPool(1) as pool:
        pieces = [piece[:2] for piece in mdl._pieces(
            tape, params.bind(tape), [(0, 2), (2, 3), (3, 5)],
            _split_offsets(5), work, pool)]
        assert len(pool.futures) == 2
    assert pieces == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    pooled = (threads[1][0], False)
    assert pooled[0] != caller
    assert threads == {0: (caller, True), 1: pooled, 2: (caller, True),
                       3: (caller, True), 4: pooled}


def test_recording_forward_never_reaches_the_pool(toy, monkeypatch):
    """Training's forward runs every chunk on its own tape even when each
    chunk would split; a non-recording forward with the same pool splits."""
    _, _, _, enc, params = toy
    monkeypatch.setattr(mdl, "_POOL_MIN_WORK", 1)
    with _CountingPool(1) as pool:
        tape = ad.Tape()
        mdl.forward_cascade(tape, params.bind(tape), enc, pool=pool)
        assert pool.futures == []
        tape = ad.Tape(record=False)
        mdl.forward_cascade(tape, params.bind(tape), enc, pool=pool)
        assert pool.futures


def test_score_example_reraises_a_piece_error_and_leaves_no_piece(
        monkeypatch):
    """The span stage's second pooled half raises while the next chunk's
    half is submitted: score_example re-raises, every half it submitted has
    finished or been cancelled, and the BLAS thread count is restored."""
    if not blas._thread_calls():
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count symbol")
    params, enc = _threaded_case()
    before = blas._thread_calls()[0]()
    pool, calls = _CountingPool(1), []
    rebind = mdl._rebind

    def failing_rebind(bound, tape):
        calls.append(None)
        # after sentence attention's half and the span stage's first
        if len(calls) == 1 + 2:
            raise RuntimeError("piece failed")
        return rebind(bound, tape)

    monkeypatch.setattr(mdl, "_rebind", failing_rebind)
    monkeypatch.setattr(mdl, "_inference_pool", lambda: pool)
    try:
        with pytest.raises(RuntimeError, match="piece failed"):
            mdl.score_example(params, enc)
        assert pool.futures and all(f.done() for f in pool.futures)
        assert blas._thread_calls()[0]() == before
        started = len(calls)
    finally:
        pool.shutdown()
    assert len(calls) == started  # no queued piece started afterwards


def test_blas_one_thread_restores_count_after_last_holder():
    if not blas._thread_calls():
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count symbol")
    get = blas._thread_calls()[0]
    before = get()
    with blas.one_thread() as outer:
        assert outer and get() == 1
        with blas.one_thread() as inner:
            assert inner and get() == 1
        assert get() == 1
    assert get() == before


def test_concurrent_score_example_calls_match_serial_bytes():
    """Six threads on two cores score at once, switching every
    microsecond: each result has the serial bytes, every thread finishes,
    and the BLAS thread count is restored."""
    params, enc = _threaded_case()
    expect = _digest(mdl.score_example(params, enc))
    before = blas._thread_calls()[0]() if blas._thread_calls() else None
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(
            _digest(mdl.score_example(params, enc)))) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expect] * 6
    if before is not None:
        assert blas._thread_calls()[0]() == before


def test_score_example_without_thread_symbol_runs_serially(monkeypatch):
    params, enc = _threaded_case()
    pinned = mdl.score_example(params, enc)
    monkeypatch.setitem(blas._state, "calls", ())

    def no_pool():
        raise AssertionError("the pool needs OpenBLAS held to one thread")

    monkeypatch.setattr(mdl, "_inference_pool", no_pool)
    serial = mdl.score_example(params, enc)
    for level, phi in pinned.active():
        np.testing.assert_allclose(getattr(serial, level.name), phi,
                                   rtol=1e-12, atol=0)


def test_score_example_rejects_bad_workers(toy):
    _, _, _, enc, params = toy
    for workers in (0, 2):
        with pytest.raises(ContractError):
            mdl.score_example(params, enc, workers=workers)


def test_inference_audit_mode_collects_probability_vectors(toy, softmax_spy,
                                                           monkeypatch):
    _, _, _, enc, params = toy
    scores = mdl.score_example(params, enc)
    mdl.distributions(scores)
    assert softmax_spy
    for vec in softmax_spy:
        assert abs(vec.sum() - 1.0) < 1e-12
    # auditing the softmax must not change the scores
    monkeypatch.undo()
    plain = mdl.score_example(params, enc)
    assert scores.phi4.tobytes() == plain.phi4.tobytes()


# ---------------------------------------------------------------------------
# ablation wiring


def test_ablation_architectures_score(toy):
    example, table, _, _, _ = toy
    q_only = TrainConfig(ablation="level1_qs_only", hidden_width=8)
    arch = q_only.arch(8)
    params = mdl.CascadeParams.initialize(arch, 0)
    cands = build_candidates(example, arch.span_limit)
    enc = mdl.encode_example(example, cands, table, arch)
    scores = mdl.score_example(params, enc)
    assert scores.phi1 is not None and scores.phi2 is None
    assert scores.phi3 is None and scores.phi4 is None
    assert mdl.prediction_scores(scores, enc).shape == (enc.n_unique,)


def test_combined_level1_wiring(toy):
    example, table, _, _, _ = toy
    arch = mdl.Architecture(embed_dim=8, hidden_width=8,
                            wiring="combined_level1")
    params = mdl.CascadeParams.initialize(arch, 0)
    assert "ffnn_qs" not in params.nets and "ffnn_c" not in params.nets
    assert "ffnn_comb" in params.nets
    cands = build_candidates(example, arch.span_limit)
    enc = mdl.encode_example(example, cands, table, arch)
    scores = mdl.score_example(params, enc)
    assert scores.phi_comb is not None and scores.phi1 is None
    assert scores.phi4 is not None


# the architecture of each ablation, and the levels of each wiring
ARCHES = {name: TrainConfig(ablation=name, hidden_width=8).arch(8)
          for name in ABLATIONS}
EXPECTED_LEVELS = {
    "full": ["phi1", "phi2", "phi3", "phi4"],
    "combined_level1": ["phi_comb", "phi3", "phi4"],
    "level12_only": ["phi1", "phi2", "phi3"],
    "level1_qs_only": ["phi1"],
    "level1_sc_only": ["phi2"],
}


def _score(example, table, arch):
    params = mdl.CascadeParams.initialize(arch, 0)
    enc = mdl.encode_example(example, build_candidates(example, arch.span_limit),
                             table, arch)
    return mdl.score_example(params, enc), enc


@pytest.mark.parametrize("ablation", list(ARCHES))
def test_level_table_names_the_scores_and_distributions(ablation, toy):
    example, table, _, _, _ = toy
    arch = ARCHES[ablation]
    expected = EXPECTED_LEVELS[arch.wiring]
    assert list(mdl.WIRINGS[arch.wiring]) == expected
    assert [level.name for level in arch.levels] == expected
    scores, _ = _score(example, table, arch)
    held = [name for name, phi in vars(scores).items() if phi is not None]
    assert held == expected
    assert list(mdl.distributions(scores)) == expected


def test_level_table_stages_and_loss_slots():
    assert [(level.name, level.stage, level.slot) for level in mdl.LEVELS] == [
        ("phi1", 1, 0), ("phi2", 1, 1), ("phi_comb", 1, 0), ("phi3", 2, 2),
        ("phi4", 3, 3)]


def test_every_wiring_is_an_ablation_and_answers_from_one_level():
    named = {wiring for wiring, _ in ABLATIONS.values()}
    assert named == set(mdl.WIRINGS)  # no wiring without an ablation
    assert set(EXPECTED_LEVELS) == set(mdl.WIRINGS)
    for wiring in mdl.WIRINGS:
        arch = mdl.Architecture(embed_dim=8, wiring=wiring)
        stages = [level.stage for level in arch.levels]
        # prediction_scores answers from the last level, the one at the top
        assert stages.count(max(stages)) == 1 and stages[-1] == max(stages)
        # forward_cascade makes level 2's question input only when
        # the question nets run
        assert arch.needs_question_nets or 2 not in stages


def test_architecture_validation():
    with pytest.raises(ContractError, match="unknown wiring 'nope'"):
        mdl.Architecture(embed_dim=8, wiring="nope")
    with pytest.raises(ContractError, match="unknown wiring 'single_loss'"):
        mdl.Architecture(embed_dim=8, wiring="single_loss")  # an ablation
    with pytest.raises(ContractError, match="unknown wiring"):
        mdl.Architecture(embed_dim=8, wiring=["full"])  # from a JSON header
    for name in ("embed_dim", "hidden_width", "span_limit", "context_size"):
        for value in (0, -1, 8.0, True, np.int64(8)):
            with pytest.raises(ContractError,
                               match=f"{name} must be a positive integer"):
                mdl.Architecture(**{"embed_dim": 8, name: value})
    assert mdl.Architecture(embed_dim=8).to_dict() == {
        "embed_dim": 8, "hidden_width": 300, "span_limit": 5,
        "context_size": 1, "wiring": "full"}


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_exact(tmp_path, toy):
    _, _, _, enc, params = toy
    path = tmp_path / "model.ckpt"
    mdl.save_checkpoint(path, params)
    loaded = mdl.load_checkpoint(path)
    assert loaded.arch == params.arch
    assert loaded.seed == params.seed
    for (n1, a1), (n2, a2) in zip(params.named_arrays(),
                                  loaded.named_arrays()):
        assert n1 == n2
        assert a1.tobytes() == a2.tobytes()
    # scores identical through the loaded params
    s1 = mdl.score_example(params, enc)
    s2 = mdl.score_example(loaded, enc)
    assert s1.phi4.tobytes() == s2.phi4.tobytes()


def test_checkpoint_save_is_deterministic(tmp_path, toy):
    _, _, _, _, params = toy
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    mdl.save_checkpoint(p1, params)
    mdl.save_checkpoint(p2, params)
    assert p1.read_bytes() == p2.read_bytes()


# the full wiring's tensors in checkpoint (and tape-variable) order
FULL_TENSOR_NAMES = [
    "ffnn_q.V", "ffnn_q.a", "ffnn_q.U", "ffnn_q.b",
    "ffnn_qs.V", "ffnn_qs.a", "ffnn_qs.U", "ffnn_qs.b",
    "ffnn_c.V", "ffnn_c.a", "ffnn_c.U", "ffnn_c.b",
    "ffnn_att1.V", "ffnn_att1.a", "ffnn_att1.U", "ffnn_att1.b",
    "ffnn_att2.V", "ffnn_att2.a", "ffnn_att2.U", "ffnn_att2.b",
    "ffnn_l2.V", "ffnn_l2.a", "ffnn_l2.U", "ffnn_l2.b",
    "ffnn_agg.V", "ffnn_agg.a", "ffnn_agg.U", "ffnn_agg.b",
    "ffnn_l3.V", "ffnn_l3.a", "ffnn_l3.U", "ffnn_l3.b",
    "linear_q.w", "linear_q.z", "linear_qs.w", "linear_qs.z",
    "linear_c.w", "linear_c.z", "linear_l2.w", "linear_l2.z",
    "linear_l3.w", "linear_l3.z",
]


@pytest.mark.parametrize("ablation", list(ARCHES))
def test_parameter_layout(ablation):
    arch = ARCHES[ablation]
    params = mdl.CascadeParams.initialize(arch, 0)
    dims = list(mdl.CascadeParams._submodel_dims(arch))
    submodels = ([name for name in dims if name.startswith("ffnn")]
                 + [name for name in dims if name.startswith("linear")])
    assert list(params.nets) == submodels
    arrays = params.as_dict()
    named = [(name, arr.tobytes()) for name, arr in params.named_arrays()]
    names = list(arrays)
    if ablation == "full":
        assert names == FULL_TENSOR_NAMES
    if ablation == "level1_qs_only":
        assert submodels == ["ffnn_q", "ffnn_qs", "linear_q", "linear_qs"]
    rebuilt = mdl.CascadeParams.from_arrays(arch, 0, arrays)
    assert [(n, a.tobytes()) for n, a in rebuilt.named_arrays()] == named
    tape = ad.Tape()
    bound = params.bind(tape)
    assert list(rebuilt.nets) == list(bound.nets) == submodels
    assert list(tape.variables) == names
    assert [(n, t.value.tobytes()) for n, t in bound.named_arrays()] == named
    with pytest.raises(CheckpointError, match="'ffnn_x.V' is not part"):
        mdl.CascadeParams.from_arrays(
            arch, 0, {**arrays, "ffnn_x.V": np.zeros((8, 8))})
    del arrays[names[-1]]
    with pytest.raises(CheckpointError, match=f"missing tensor '{names[-1]}'"):
        mdl.CascadeParams.from_arrays(arch, 0, arrays)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        mdl.load_checkpoint(path)


def test_checkpoint_tensor_listed_twice(tmp_path, toy):
    _, _, _, _, params = toy
    path = tmp_path / "model.ckpt"
    mdl.save_checkpoint(path, params)
    data = path.read_bytes()
    start = len(mdl.CHECKPOINT_MAGIC) + 8
    end = start + int.from_bytes(data[start - 8:start], "little")
    header = json.loads(data[start:end])
    # a second copy of linear_q.z, bytes included, after the real ones
    header["tensors"].append({"name": "linear_q.z", "shape": []})
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(mdl.CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little")
                     + blob + data[end:] + bytes(8))
    with pytest.raises(CheckpointError, match="'linear_q.z' is listed twice"):
        mdl.load_checkpoint(path)


def test_checkpoint_truncated(tmp_path, toy):
    _, _, _, _, params = toy
    path = tmp_path / "model.ckpt"
    mdl.save_checkpoint(path, params)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(CheckpointError):
        mdl.load_checkpoint(path)
