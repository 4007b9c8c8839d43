"""Cascade forward: level contracts, attention sharing, checkpoints."""

import copy
import dataclasses
import json

import numpy as np
import pytest

from spancascade import autodiff as ad
from spancascade import model as mdl
from spancascade import synth
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
    out = mdl.question_vector(tape, q, params)
    np.testing.assert_allclose(out.value, q[0], rtol=1e-12)


def test_question_vector_uniform_weights_give_mean():
    rng = np.random.default_rng(2)
    q = rng.normal(size=(4, 8))
    tape = ad.Tape()
    params = mdl.CascadeParams.initialize(ARCH, 1)
    # zero heads force equal logits
    params.linear_q.w[:] = 0.0
    bound = params.bind(tape)
    out = mdl.question_vector(tape, q, bound)
    np.testing.assert_allclose(out.value, q.mean(axis=0), rtol=1e-12)


def test_question_vector_weights_are_probabilities(softmax_spy):
    rng = np.random.default_rng(3)
    for trial in range(10):
        q = rng.normal(size=(int(rng.integers(1, 7)), 8))
        tape = ad.Tape()
        bound = mdl.CascadeParams.initialize(ARCH, trial).bind(tape)
        softmax_spy.clear()
        mdl.question_vector(tape, q, bound)
        (weights,) = softmax_spy
        assert weights.shape == (q.shape[0],)
        assert abs(weights.sum() - 1.0) < 1e-12
        assert np.all(weights >= 0)


# ---------------------------------------------------------------------------
# span embeddings and level-1 features


def test_span_embedding_appends_flag():
    avg = np.arange(6.0).reshape(2, 3)
    gamma = np.array([1.0, 0.0])
    out = mdl.span_embeddings(avg, gamma)
    assert out.shape == (2, 4)
    np.testing.assert_array_equal(out[:, -1], gamma)
    np.testing.assert_array_equal(out[:, :3], avg)


def test_encode_single_token_span_average_is_embedding(toy):
    example, table, cands, enc, _ = toy
    i = np.flatnonzero(cands.spans.length == 1)[0]
    tok = example.documents[0].tokens[cands.spans.start[i]]
    np.testing.assert_allclose(enc.span_avg[i], table.lookup(tok), rtol=1e-12)


def test_encode_context_zero_at_document_edges(toy):
    example, table, cands, enc, _ = toy
    spans = cands.spans
    first = np.flatnonzero(spans.start == 0)[0]
    np.testing.assert_array_equal(enc.ctx_left[first], np.zeros(8))
    n = len(example.documents[0].tokens)
    last = np.flatnonzero(spans.start + spans.length == n)[0]
    np.testing.assert_array_equal(enc.ctx_right[last], np.zeros(8))


def test_encode_context_is_adjacent_token_for_k1(toy):
    example, table, cands, enc, _ = toy
    idx = np.flatnonzero(cands.spans.start == 1)[0]
    left_tok = example.documents[0].tokens[0]
    np.testing.assert_allclose(enc.ctx_left[idx], table.lookup(left_tok),
                               rtol=1e-12)


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


def test_attention_singleton_alignment_is_one(softmax_spy):
    tape = ad.Tape()
    bound = mdl.CascadeParams.initialize(ARCH, 0).bind(tape)
    rng = np.random.default_rng(0)
    q = rng.normal(size=(1, 8))
    g = rng.normal(size=(1, 8))
    mdl.sentence_attention(tape, q, g, bound)
    assert len(softmax_spy) == 2  # one alignment row, one column
    for vec in softmax_spy:
        np.testing.assert_array_equal(vec, [1.0])


def test_attention_symmetric_for_identical_sequences():
    tape = ad.Tape()
    bound = mdl.CascadeParams.initialize(ARCH, 0).bind(tape)
    rng = np.random.default_rng(1)
    q = rng.normal(size=(3, 8))
    q_bar, g_bar = mdl.sentence_attention(tape, q, q.copy(), bound)
    np.testing.assert_allclose(q_bar.value, g_bar.value, rtol=1e-12)


def test_attention_permuting_sentence_tokens_keeps_summaries():
    tape = ad.Tape()
    bound = mdl.CascadeParams.initialize(ARCH, 0).bind(tape)
    rng = np.random.default_rng(2)
    q = rng.normal(size=(2, 8))
    g = rng.normal(size=(3, 8))
    qb1, gb1 = mdl.sentence_attention(tape, q, g, bound)
    perm = [2, 0, 1]
    qb2, gb2 = mdl.sentence_attention(tape, q, g[perm], bound)
    np.testing.assert_allclose(qb1.value, qb2.value, rtol=1e-10)
    np.testing.assert_allclose(gb1.value, gb2.value, rtol=1e-10)


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
    _, phi3 = mdl.level2(tape, [tape.constant(h), tape.constant(h)],
                         tape.constant(qb), tape.constant(gb),
                         tape.constant(gamma), bound)
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
        span_avg=enc.span_avg[rows], ctx_left=enc.ctx_left[rows],
        ctx_right=enc.ctx_right[rows],
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
        mdl.level3_aggregate(tape, tape.constant(np.zeros((1, 8))),
                             np.array([0]), 0, bound)


# ---------------------------------------------------------------------------
# distributions and prediction


def test_distributions_sum_to_one(toy):
    _, _, _, enc, params = toy
    scores, _ = run_tape(params, enc)
    dists = mdl.distributions(scores)
    assert set(dists) == {1, 2, 3, 4}
    for p in dists.values():
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)


def test_distributions_shift_invariance(toy):
    _, _, _, enc, params = toy
    scores, _ = run_tape(params, enc)
    p4 = mdl.distributions(scores)[4]
    shifted = mdl.CascadeScores(phi4=scores.phi4.value + 123.0)
    p4s = mdl.distributions(shifted)[4]
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
        span_avg=np.zeros((0, 2)), ctx_left=np.zeros((0, 2)),
        ctx_right=np.zeros((0, 2)), n_unique=n_unique,
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
    only_l1 = mdl.CascadeScores(phi1=vals.phi1, phi2=vals.phi2)
    both = mdl.prediction_scores(only_l1, enc)
    expected_span = vals.phi1 + vals.phi2
    for uid in range(enc.n_unique):
        mask = enc.span_unique == uid
        assert both[uid] == expected_span[mask].max()


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


def test_mac_count_matches_between_paths(toy):
    _, _, _, enc, params = toy
    stats_t = mdl.ForwardStats()
    run_tape(params, enc, stats=stats_t)
    stats_n = mdl.ForwardStats()
    mdl.score_example(params, enc, stats=stats_n)
    assert stats_t.macs == stats_n.macs > 0


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
    arch = mdl.Architecture(embed_dim=8, hidden_width=8, combined_level1=True)
    params = mdl.CascadeParams.initialize(arch, 0)
    assert params.ffnn_qs is None and params.ffnn_c is None
    assert params.ffnn_comb is not None
    cands = build_candidates(example, arch.span_limit)
    enc = mdl.encode_example(example, cands, table, arch)
    scores = mdl.score_example(params, enc)
    assert scores.phi_comb is not None and scores.phi1 is None
    assert scores.phi4 is not None


def test_architecture_validation():
    with pytest.raises(ContractError):
        mdl.Architecture(embed_dim=8, use_level2=False, use_level3=True)
    with pytest.raises(ContractError):
        mdl.Architecture(embed_dim=8, level1_mode="nope")
    with pytest.raises(ContractError):
        mdl.Architecture(embed_dim=8, combined_level1=True, level1_mode="qs")


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


@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
def test_parameter_layout(ablation):
    arch = TrainConfig(ablation=ablation, hidden_width=8).arch(8)
    params = mdl.CascadeParams.initialize(arch, 0)
    arrays = params.as_dict()
    named = [(name, arr.tobytes()) for name, arr in params.named_arrays()]
    names = list(arrays)
    if ablation == "full":
        assert names == FULL_TENSOR_NAMES
    rebuilt = mdl.CascadeParams.from_arrays(arch, 0, arrays)
    assert [(n, a.tobytes()) for n, a in rebuilt.named_arrays()] == named
    tape = ad.Tape()
    bound = params.bind(tape)
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
