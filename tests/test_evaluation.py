"""Metrics: normalization, EM, token F1, top-k, histograms."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_corpus import gold_tokens

from spancascade.corpus import Document, QAExample
from spancascade.embeddings import random_table
from spancascade.errors import ContractError
from spancascade.evaluation import (
    EvalReport,
    ScoredExample,
    evaluate,
    exact_match,
    frequency_bucket,
    gold_indices,
    normalize_answer,
    token_f1,
)
from spancascade.model import Architecture, CascadeParams, make_scorer

ALIASES = ["Jackson Pollock", "Pollock", "Pollock, Jackson"]


def test_normalize_examples():
    assert normalize_answer("The Catalysts.") == "catalysts"
    assert normalize_answer("Jackson  Pollock") == "jackson pollock"
    assert normalize_answer("") == ""
    assert normalize_answer("a AN the THE") == ""


def test_normalize_idempotent():
    rng = np.random.default_rng(0)
    words = ["The", "quick-brown", "FOX!", "a", "an", "42", "...", "mp3"]
    for _ in range(50):
        s = " ".join(words[i] for i in rng.integers(0, len(words), 6))
        once = normalize_answer(s)
        assert normalize_answer(once) == once


def test_exact_match_alias_set():
    assert exact_match("Jackson Pollock", ALIASES) == 1
    assert exact_match("pollock", ALIASES) == 1
    assert exact_match("Krasner", ALIASES) == 0
    # an alias that normalizes to "" matches nothing, not even itself
    assert exact_match(".", ["The The"]) == 0
    assert exact_match("The The", ["The The", "Pollock"]) == 0
    with pytest.raises(ContractError):
        exact_match("x", [])


def test_gold_indices_rule():
    texts = ["Jackson Pollock", ".", "the", "POLLOCK!", "Krasner"]
    assert gold_indices(texts, ALIASES) == [0, 3]
    # "" is never a match, whether it comes from an alias or a text
    assert gold_indices(texts, ALIASES + ["The The"]) == [0, 3]
    assert gold_indices(texts, ["The The"]) == []
    assert gold_indices(texts, []) == []
    # exact_match is the same rule for one string
    assert [exact_match(t, ALIASES) for t in texts] == [1, 0, 0, 1, 0]


def test_token_f1_hand_case():
    # "jackson pollock" vs alias "pollock": precision 1/2, recall 1 -> 2/3
    assert token_f1("jackson pollock", ["pollock"]) == pytest.approx(
        2.0 / 3.0, abs=1e-12)
    # against the full alias set the exact alias wins: 1.0
    assert token_f1("jackson pollock", ALIASES) == pytest.approx(1.0, abs=1e-12)


def test_token_f1_edges():
    assert token_f1("Pollock", ["Pollock"]) == 1.0
    assert token_f1("entirely different", ["pollock"]) == 0.0
    assert token_f1("", ["pollock"]) == 0.0


def test_token_f1_multiset_counts_duplicates():
    # prediction repeats a token; multiset intersection counts it once
    val = token_f1("dog dog", ["dog"])
    precision, recall = 0.5, 1.0
    assert val == pytest.approx(2 * precision * recall / (precision + recall))


def test_f1_at_least_em():
    rng = np.random.default_rng(1)
    # articles and punctuation let predictions and aliases normalize to ""
    vocab = ["alpha", "beta", "gamma", "delta", "the", "a", ".", ","]
    pairs = [(".", "The The"), ("the", "a ."), ("", ","), ("alpha", "an")]
    for _ in range(300):
        pred = " ".join(vocab[i] for i in rng.integers(0, 8, rng.integers(1, 4)))
        alias = " ".join(vocab[i] for i in rng.integers(0, 8, rng.integers(1, 4)))
        pairs.append((pred, alias))
    for pred, alias in pairs:
        assert token_f1(pred, [alias]) >= exact_match(pred, [alias]), (pred, alias)


def test_frequency_buckets():
    assert frequency_bucket(1) == "1"
    assert frequency_bucket(2) == "2-5"
    assert frequency_bucket(5) == "2-5"
    assert frequency_bucket(6) == "6-15"
    assert frequency_bucket(15) == "6-15"
    assert frequency_bucket(16) == "16+"
    assert frequency_bucket(1000) == "16+"


def _scored(example_id, aliases, candidates, scores, counts):
    return ScoredExample(example_id, aliases, candidates,
                         np.asarray(scores, dtype=float),
                         np.asarray(counts, dtype=np.intp))


def test_evaluate_perfect_model():
    examples = ["e1", "e2"]

    def scorer(ex):
        return _scored(ex, ["gold"], ["gold", "noise"], [5.0, 1.0], [2, 1])

    report = evaluate(scorer, examples, k_max=3)
    assert report.em == 1.0 and report.f1 == 1.0
    assert report.top_k_accuracy[0] == (1, 1.0)
    assert report.oracle_em == 1.0
    assert report.predicted_frequency_hist["2-5"] == 2


def test_evaluate_alias_normalizing_to_empty_is_never_gold():
    def scorer(ex):
        return _scored(ex, ["The The"], [".", "the band"], [5.0, 1.0], [1, 1])

    report = evaluate(scorer, ["e1"], k_max=2)
    assert report.em == 0.0 and report.f1 == 0.0 and report.oracle_em == 0.0
    assert report.top_k_accuracy == [(1, 0.0), (2, 0.0)]


def test_evaluate_top1_equals_em_and_topk_monotone():
    rng = np.random.default_rng(3)
    vocab = ["aa", "bb", "cc", "dd", "ee"]

    def scorer(ex):
        k = int(rng.integers(2, 6))
        cands = [vocab[i] for i in rng.choice(5, size=k, replace=False)]
        return _scored(ex, [vocab[int(rng.integers(0, 5))]], cands,
                       rng.normal(size=k), rng.integers(1, 20, size=k))

    report = evaluate(scorer, [f"e{i}" for i in range(40)], k_max=5)
    accs = [acc for _, acc in report.top_k_accuracy]
    assert accs[0] == report.em
    assert all(b >= a for a, b in zip(accs, accs[1:]))
    assert all(report.em <= a for a in accs)


def test_evaluate_empty_candidates_count_as_wrong():
    def scorer(ex):
        return _scored(ex, ["gold"], [], [], [])

    report = evaluate(scorer, ["e1"], k_max=2)
    assert report.em == 0.0 and report.f1 == 0.0
    assert report.records[0].prediction is None
    assert report.oracle_em == 0.0


def test_evaluate_tie_breaks_to_earlier_candidate():
    def scorer(ex):
        return _scored(ex, ["second"], ["first", "second"], [1.0, 1.0], [1, 1])

    report = evaluate(scorer, ["e1"], k_max=2)
    assert report.records[0].prediction == "first"
    assert report.em == 0.0
    assert report.top_k_accuracy[1] == (2, 1.0)


def test_evaluate_gold_frequency_totals_mentions():
    def scorer(ex):
        return _scored(ex, ["gold"], ["gold", "Gold.", "other"],
                       [1.0, 0.5, 2.0], [3, 4, 9])

    report = evaluate(scorer, ["e1"], k_max=1)
    # both normalized-matching candidates contribute mentions: 3 + 4
    assert report.records[0].gold_frequency == 7
    assert report.gold_frequency_hist["6-15"] == 1
    # prediction is "other" (score 2.0) with 9 mentions
    assert report.predicted_frequency_hist["6-15"] == 1
    assert report.records[0].em == 0


def test_evaluate_validates_inputs():
    with pytest.raises(ContractError):
        evaluate(lambda e: None, [], k_max=1)
    with pytest.raises(ContractError):
        evaluate(lambda e: None, ["x"], k_max=0)


def test_evaluate_consumes_any_iterable():
    def scorer(ex):
        return _scored(ex, ["gold"], ["gold", "noise"], [1.0, 2.0], [1, 1])

    ids = ["e1", "e2", "e3"]
    assert (evaluate(scorer, (i for i in ids), k_max=2).to_json()
            == evaluate(scorer, ids, k_max=2).to_json())
    with pytest.raises(ContractError, match="non-empty"):
        evaluate(lambda e: None, iter([]))


def test_evaluate_reads_the_gold_ids_it_is_given():
    scored = _scored("e1", ALIASES, ["Krasner", "pollock", "the"], [0, 1, 0],
                     [1, 2, 1])
    assert scored.gold_ids == [1]  # derived when not given
    # supplied ids are not checked again; EM stays exact_match of the answer
    given_ids = dataclasses.replace(scored, gold_ids=[0])
    report = evaluate(lambda e: given_ids, ["e1"], k_max=2)
    assert report.em == 1.0 and report.top_k_accuracy == [(1, 0.0), (2, 1.0)]
    assert report.records[0].gold_frequency == 1


MODEL = CascadeParams.initialize(Architecture(embed_dim=8, hidden_width=8), 0)
TABLE = random_table(["pollock"], 8, seed=0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(docs=st.lists(st.tuples(st.lists(gold_tokens, max_size=12),
                               st.lists(st.lists(gold_tokens, min_size=1,
                                                 max_size=3).map(" ".join),
                                        max_size=2),
                               st.integers(0, 12)),
                     min_size=1, max_size=4))
def test_model_results_carry_the_gold_rule_ids(docs):
    """The scorer's gold ids are the gold rule's, and a report is the same
    whether evaluate reads them or results rebuilt without them derive
    their own."""
    examples = []
    for i, (tokens, answers, window) in enumerate(docs):
        doc = Document(tokens, [(0, len(tokens))] if tokens else [])
        # an alias from the document itself, so that some examples have gold
        answers = answers + [" ".join(tokens[window:window + 2]).swapcase()]
        examples.append(QAExample(f"e{i}", ["who"], [doc], answers))
    results = [make_scorer(MODEL, TABLE)(ex) for ex in examples]
    for scored in results:
        assert scored.gold_ids == gold_indices(scored.candidates,
                                               scored.aliases)
    rebuilt = [dataclasses.replace(r, gold_ids=None) for r in results]
    assert (evaluate(lambda i: results[i], range(len(results))).to_json()
            == evaluate(lambda i: rebuilt[i], range(len(rebuilt))).to_json())


def test_report_json_and_csvs(tmp_path):
    def scorer(ex):
        return _scored(ex, ["gold"], ["gold"], [1.0], [1])

    report = evaluate(scorer, ["e1"], k_max=2)
    payload = json.loads(report.to_json())
    assert payload["em"] == 1.0
    assert payload["examples"][0]["matched_alias"] == "gold"
    topk = tmp_path / "topk.csv"
    freq = tmp_path / "freq.csv"
    report.write_topk_csv(topk)
    report.write_frequency_csv(freq)
    lines = topk.read_text().strip().split("\n")
    assert lines[0] == "k,accuracy" and len(lines) == 3
    flines = freq.read_text().strip().split("\n")
    assert flines[0] == "bucket,predicted_count,gold_count"
    assert len(flines) == 5
