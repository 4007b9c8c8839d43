"""Seeded inputs for the benchmark workloads, and the benchmark's own oracles.

Every generator takes a seed and returns plain data; the program under test
only ever sees what these functions produce. Document shapes are fixed per
workload (document lengths, and each document's multiset of sentence
lengths), while the seed draws the words, the order of the sentences, the
questions and the answers. Work per run therefore stays the same from seed
to seed, which keeps the timings comparable, and the content still changes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

VOCAB_SIZE = 20000
ZIPF_EXPONENT = 1.0
# every sentence length from 5 to 50 tokens (terminator included) once per
# block, so attention sees many length groups, as on natural text
SENTENCE_LENGTHS = tuple(range(5, 51))

# eval_long: one document per length stratum over 1k..9k raw tokens; the three
# above the 6000-token cap are truncated, as about a third of real pages are
EVAL_DOC_TOKENS = tuple(range(1500, 9000, 1000))
# train_long: sized so that peak RSS, which unreclaimed tapes inflate, stays
# near 1 GB on the seed
TRAIN_LONG_DOCS = 6
TRAIN_LONG_TOKENS = 320

MAX_TOKENS = 6000          # the package defaults that truncate() applies
MAX_SENTENCES = 1000
SPAN_LIMIT = 5

_WEIGHTS = 1.0 / np.arange(1, VOCAB_SIZE + 1) ** ZIPF_EXPONENT
_CDF = np.cumsum(_WEIGHTS / _WEIGHTS.sum())


def vocabulary() -> list:
    return [f"w{rank}" for rank in range(VOCAB_SIZE)]


def zipf_words(rng: np.random.Generator, n: int) -> list:
    ranks = np.minimum(np.searchsorted(_CDF, rng.random(n), side="right"),
                       VOCAB_SIZE - 1)
    return [f"w{r}" for r in ranks]


def sentence_lengths(rng: np.random.Generator, n_tokens: int) -> list:
    """Shuffled blocks of SENTENCE_LENGTHS, the last one cut to sum to n."""
    lengths: list = []
    total = 0
    while total < n_tokens:
        for length in rng.permutation(SENTENCE_LENGTHS):
            length = min(int(length), n_tokens - total)
            if length == 1:  # a sentence needs a word before its '.'
                lengths[-1] -= 1
                total -= 1
                length = 2
            lengths.append(length)
            total += length
            if total == n_tokens:
                break
    return lengths


def make_sentences(rng: np.random.Generator, n_tokens: int) -> list:
    """Token lists: Zipf words, capitalized first word, '.' terminator."""
    sentences = []
    for length in sentence_lengths(rng, n_tokens):
        words = zipf_words(rng, length - 1)
        words[0] = words[0].capitalize()
        sentences.append(words + ["."])
    return sentences


def truncate_sentences(sentences: list) -> list:
    """The documented truncation rule, restated from its specification."""
    kept, total = [], 0
    for sent in sentences[:MAX_SENTENCES]:
        if total >= MAX_TOKENS:
            break
        take = sent[:MAX_TOKENS - total]
        kept.append(take)
        total += len(take)
    return kept


def brute_force_counts(sentences: list, span_limit: int = SPAN_LIMIT):
    """(spans, uniques): every within-sentence window up to span_limit,
    grouped by lowercased token tuple."""
    keys = set()
    spans = 0
    for sent in sentences:
        low = [t.lower() for t in sent]
        for i in range(len(low)):
            for length in range(1, min(span_limit, len(low) - i) + 1):
                keys.add(tuple(low[i:i + length]))
                spans += 1
    return spans, len(keys)


@dataclass
class RawDocument:
    """One question over one raw document, as a user would submit it."""

    doc_id: str
    question: str
    text: str
    answers: list
    sentences: list  # the generator's own token lists, before truncation

    @property
    def raw_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)


def make_document(rng: np.random.Generator, doc_id: str,
                  n_tokens: int) -> RawDocument:
    sentences = make_sentences(rng, n_tokens)
    # the answer is a 1-3 word window inside a retained sentence
    retained = truncate_sentences(sentences)
    sent = retained[int(rng.integers(len(retained)))]
    words = sent[:-1] if sent[-1] == "." else sent
    length = int(rng.integers(1, min(3, len(words)) + 1))
    start = int(rng.integers(0, len(words) - length + 1))
    answer = " ".join(words[start:start + length])
    q_len = int(rng.integers(6, 13))
    question = " ".join(["Which"] + zipf_words(rng, q_len - 2) + ["?"])
    text = " ".join(" ".join(s) for s in sentences)
    return RawDocument(doc_id, question, text, [answer], sentences)


def eval_long_documents(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    return [make_document(rng, f"eval-{i}", n)
            for i, n in enumerate(EVAL_DOC_TOKENS)]


def train_long_documents(seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    return [make_document(rng, f"train-long-{i}", TRAIN_LONG_TOKENS)
            for i in range(TRAIN_LONG_DOCS)]


def digest(records) -> str:
    """Stable fingerprint of a workload's generated inputs."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def raw_documents_digest(docs: list) -> str:
    return digest([[d.doc_id, d.question, d.text, d.answers] for d in docs])


def examples_digest(examples: list) -> str:
    return digest([
        [ex.example_id, ex.question,
         [[doc.tokens, [list(s) for s in doc.sentences]] for doc in ex.documents],
         ex.answers]
        for ex in examples
    ])
