"""Answer normalization, exact-match / token-F1 scoring, and eval reports.

Metrics compare a predicted string against a set of answer aliases after
normalization (lowercase, punctuation stripped, articles removed,
whitespace collapsed). F1 uses token multisets and takes the best alias.
``evaluate`` consumes a scorer callable so it stays independent of any
particular model: the scorer maps an example to a ``ScoredExample`` that
carries the gold ids, and the head of ``rank_candidates`` is the answer.
"""

from __future__ import annotations

import csv
import json
import string
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
_ARTICLES = {"a", "an", "the"}

# document-frequency buckets for the answer-occurrence histograms
FREQ_BUCKETS = ((1, 1), (2, 5), (6, 15), (16, None))
FREQ_BUCKET_LABELS = ("1", "2-5", "6-15", "16+")


def normalize_answer(s: str) -> str:
    """Lowercase, strip punctuation, drop articles, collapse whitespace."""
    s = s.lower().translate(_PUNCT_TABLE)
    tokens = [t for t in s.split() if t not in _ARTICLES]
    return " ".join(tokens)


def gold_indices(texts, aliases) -> list[int]:
    """Indices of the texts that match an alias: the gold rule.

    A text matches when its normalized form equals a normalized alias
    other than "", so an alias like "The The" matches nothing and an
    empty alias list marks nothing gold.
    """
    alias_set = {normalize_answer(a) for a in aliases} - {""}
    if not alias_set:
        return []
    return [i for i, text in enumerate(texts)
            if normalize_answer(text) in alias_set]


def exact_match(pred: str, aliases) -> int:
    """1 iff the prediction matches an alias under ``gold_indices``' rule."""
    if not aliases:
        raise ContractError("exact_match needs a non-empty alias list")
    return int(bool(gold_indices([pred], aliases)))


def _f1_single(pred_tokens: Counter, alias: str) -> float:
    alias_tokens = Counter(normalize_answer(alias).split())
    common = sum((pred_tokens & alias_tokens).values())
    if common == 0:
        return 0.0
    precision = common / sum(pred_tokens.values())
    recall = common / sum(alias_tokens.values())
    return 2.0 * precision * recall / (precision + recall)


def token_f1(pred: str, aliases) -> float:
    """Best token-multiset F1 of the prediction over the aliases."""
    if not aliases:
        raise ContractError("token_f1 needs a non-empty alias list")
    pred_tokens = Counter(normalize_answer(pred).split())
    if not pred_tokens:
        return 0.0
    return max(_f1_single(pred_tokens, a) for a in aliases)


def frequency_bucket(count: int) -> str:
    for (lo, hi), label in zip(FREQ_BUCKETS, FREQ_BUCKET_LABELS):
        if count >= lo and (hi is None or count <= hi):
            return label
    return FREQ_BUCKET_LABELS[0]


@dataclass
class ScoredExample:
    """Model output for one QA example, in candidate first-occurrence order."""

    example_id: str
    aliases: list
    candidates: list          # unique-candidate surface texts
    scores: np.ndarray        # prediction-level score per candidate
    mention_counts: np.ndarray
    gold_ids: list | None = None  # alias-matching candidates; None: derive

    def __post_init__(self):
        if self.gold_ids is None:
            self.gold_ids = gold_indices(self.candidates, self.aliases)


@dataclass
class ExampleRecord:
    example_id: str
    prediction: str | None
    matched_alias: str | None
    score: float | None
    em: int
    f1: float
    pred_frequency: int | None
    gold_frequency: int


@dataclass
class EvalReport:
    """Aggregate metrics plus the per-example records behind them."""

    em: float
    f1: float
    total: int
    top_k_accuracy: list            # [(k, accuracy)]
    predicted_frequency_hist: dict  # bucket label -> count
    gold_frequency_hist: dict
    oracle_em: float                # fraction with any gold candidate present
    records: list = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "em": self.em,
            "f1": self.f1,
            "total": self.total,
            "oracle_em": self.oracle_em,
            "top_k_accuracy": [[k, acc] for k, acc in self.top_k_accuracy],
            "predicted_frequency_hist": self.predicted_frequency_hist,
            "gold_frequency_hist": self.gold_frequency_hist,
            "examples": [
                {
                    "id": r.example_id,
                    "prediction": r.prediction,
                    "matched_alias": r.matched_alias,
                    "score": r.score,
                    "em": r.em,
                    "f1": r.f1,
                    "pred_frequency": r.pred_frequency,
                    "gold_frequency": r.gold_frequency,
                }
                for r in self.records
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def write_topk_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "accuracy"])
            for k, acc in self.top_k_accuracy:
                writer.writerow([k, f"{acc:.6f}"])

    def write_frequency_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bucket", "predicted_count", "gold_count"])
            for label in FREQ_BUCKET_LABELS:
                writer.writerow(
                    [
                        label,
                        self.predicted_frequency_hist.get(label, 0),
                        self.gold_frequency_hist.get(label, 0),
                    ]
                )


def rank_candidates(scored: ScoredExample) -> list[int]:
    """Candidate indices by descending score; ties go to the earlier index."""
    order = np.argsort(-np.asarray(scored.scores), kind="stable")
    return [int(i) for i in order]


def evaluate(scorer, examples, k_max: int = 5) -> EvalReport:
    """Score every example and aggregate EM, F1, top-k and histograms.

    ``scorer(example) -> ScoredExample`` supplies unique candidates with
    prediction-level scores, mention counts and gold ids. Examples
    with no candidates count as wrong (EM = F1 = 0). Top-1 accuracy equals
    EM by construction. The gold frequency of an example is the total
    mention count of its gold candidates. ``examples`` may be any iterable.
    """
    if k_max < 1:
        raise ContractError(f"k_max must be >= 1, got {k_max}")
    records = []
    topk_hits = np.zeros(k_max, dtype=np.int64)
    pred_hist = {label: 0 for label in FREQ_BUCKET_LABELS}
    gold_hist = {label: 0 for label in FREQ_BUCKET_LABELS}
    oracle_hits = 0
    for example in examples:
        scored = scorer(example)
        aliases = scored.aliases
        gold_freq = int(sum(scored.mention_counts[i] for i in scored.gold_ids))
        if scored.gold_ids:
            oracle_hits += 1
            gold_hist[frequency_bucket(gold_freq)] += 1
        if not scored.candidates:
            records.append(
                ExampleRecord(scored.example_id, None, None, None, 0, 0.0,
                              None, gold_freq)
            )
            continue
        order = rank_candidates(scored)
        best = order[0]
        prediction = scored.candidates[best]
        # the gold rule is symmetric: the aliases the prediction matches
        hits = gold_indices(aliases, [prediction])
        em = int(bool(hits))
        matched = aliases[hits[0]] if hits else None
        f1 = token_f1(prediction, aliases)
        gold_set = set(scored.gold_ids)
        first_hit = next(
            (rank for rank, i in enumerate(order) if i in gold_set), None
        )
        if first_hit is not None and first_hit < k_max:
            topk_hits[first_hit:] += 1
        pred_hist[frequency_bucket(int(scored.mention_counts[best]))] += 1
        records.append(
            ExampleRecord(
                scored.example_id,
                prediction,
                matched,
                float(scored.scores[best]),
                em,
                f1,
                int(scored.mention_counts[best]),
                gold_freq,
            )
        )
    total = len(records)
    if not total:
        raise ContractError("evaluate needs a non-empty example list")
    return EvalReport(
        em=sum(r.em for r in records) / total,
        f1=sum(r.f1 for r in records) / total,
        total=total,
        top_k_accuracy=[(k, topk_hits[k - 1] / total) for k in range(1, k_max + 1)],
        predicted_frequency_hist=pred_hist,
        gold_frequency_hist=gold_hist,
        oracle_em=oracle_hits / total,
        records=records,
    )
