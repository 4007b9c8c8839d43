"""Corpus ingestion: tokenization, truncation, span candidates, gold labels.

Examples arrive as JSON lines with fields ``id``, ``question``,
``documents`` (array of strings) and ``answers`` (array of alias strings).
Documents are tokenized by documented rules (whitespace split, edge
punctuation peeled off, sentences closed at ./?/! chunk ends), truncated,
and turned into the candidate structures the scoring cascade consumes:
every within-sentence token window up to a maximum length, grouped into
unique candidates by lowercased text, with every alias occurrence marked
gold (distant supervision).
"""

from __future__ import annotations

import json
import os
import re
import string
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParseError, open_text
from .evaluation import gold_indices, normalize_answer

_PUNCT = set(string.punctuation)
_SENTENCE_ENDERS = {".", "?", "!"}
LONE_SURROGATE = re.compile("[\ud800-\udfff]")  # JSON "\ud800", non-UTF-8 argv

# articles, prepositions, wh-words and forms of "be"; used only by the
# question-in-span feature (punctuation-only tokens are excluded separately)
STOPWORDS = frozenset(
    """
    a an the
    who whom whose what which when where why how
    am is are was were be been being
    of in to for with on at by from up about into over after under between
    out against during without before around among across behind beyond near
    through toward towards upon within off above below along past per
    """.split()
)

DEFAULT_MAX_TOKENS = 6000
DEFAULT_MAX_SENTENCES = 1000
DEFAULT_MAX_SENTENCE_LEN = 50
DEFAULT_SPAN_LIMIT = 5


@dataclass
class Document:
    """Tokenized evidence text with sentence ranges.

    ``sentences`` holds [start, end) index ranges that partition the
    tokens in order.
    """

    tokens: list
    sentences: list

    def __len__(self):
        return len(self.tokens)


@dataclass
class QAExample:
    """One question with its evidence documents and answer aliases."""

    example_id: str
    question: list
    documents: list
    answers: list


@dataclass
class SpanTable:
    """Every span of an example as parallel integer arrays, one row each.

    Rows are in (document, sentence, start, length) order; ``sentence``
    and ``start`` are local to the span's document, and ``unique`` is the
    span's unique-candidate id.
    """

    doc: np.ndarray
    sentence: np.ndarray
    start: np.ndarray
    length: np.ndarray
    unique: np.ndarray

    def __len__(self):
        return len(self.start)


@dataclass
class CandidateSet:
    """The spans of an example with their unique-candidate grouping.

    ``surfaces`` holds each unique's text as first mentioned (original
    case), ``gold_unique_ids`` the ascending ids of the alias-matching
    uniques and ``gamma`` the question-in-span flag of each span.
    """

    spans: SpanTable
    surfaces: list
    gold_unique_ids: np.ndarray
    gamma: np.ndarray


def _peel(chunk: str):
    i, j = 0, len(chunk)
    lead = []
    while i < j and chunk[i] in _PUNCT:
        lead.append(chunk[i])
        i += 1
    trail = []
    while j > i and chunk[j - 1] in _PUNCT:
        trail.append(chunk[j - 1])
        j -= 1
    trail.reverse()
    core = chunk[i:j]
    return lead, core, trail


def tokenize(text: str) -> Document:
    """Rule-based tokenizer: whitespace split with edge punctuation peeled.

    A sentence closes when a chunk's last emitted token is '.', '?' or '!'
    (i.e. the terminator is followed by whitespace or end of text).
    Deterministic; empty text yields an empty document.
    """
    tokens: list[str] = []
    sentences: list[tuple[int, int]] = []
    sent_start = 0
    for chunk in text.split():
        lead, core, trail = _peel(chunk)
        emitted = lead + ([core] if core else []) + trail
        tokens.extend(emitted)
        if emitted and emitted[-1] in _SENTENCE_ENDERS:
            sentences.append((sent_start, len(tokens)))
            sent_start = len(tokens)
    if sent_start < len(tokens):
        sentences.append((sent_start, len(tokens)))
    return Document(tokens, sentences)


def truncate(
    doc: Document,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    max_sentences: int = DEFAULT_MAX_SENTENCES,
    max_sentence_len: int = DEFAULT_MAX_SENTENCE_LEN,
) -> Document:
    """Apply the three caps: sentence length, sentence count, total tokens.

    Sentences past ``max_sentences`` are dropped, each sentence keeps its
    first ``max_sentence_len`` tokens, then the document is cut at
    ``max_tokens`` keeping whole sentences except possibly the last.
    Idempotent.
    """
    for key, limit in (("max_tokens", max_tokens),
                       ("max_sentences", max_sentences),
                       ("max_sentence_len", max_sentence_len)):
        if limit < 1:
            raise ContractError(f"{key} must be positive, got {limit}")
    tokens: list = []
    sentences: list = []
    for s, e in doc.sentences[:max_sentences]:
        e = min(e, s + max_sentence_len)
        remaining = max_tokens - len(tokens)
        if remaining <= 0:
            break
        take = min(e - s, remaining)
        start_new = len(tokens)
        tokens.extend(doc.tokens[s:s + take])
        sentences.append((start_new, start_new + take))
        if take < e - s:
            break
    return Document(tokens, sentences)


def _starts(counts) -> np.ndarray:
    """Where each of consecutive runs of ``counts`` items begins."""
    counts = np.asarray(counts, dtype=np.intp)
    return np.cumsum(counts) - counts


def build_candidates(example: QAExample,
                     span_limit: int = DEFAULT_SPAN_LIMIT) -> CandidateSet:
    """Enumerate, deduplicate and gold-mark all spans of an example.

    Spans are the within-sentence windows of length 1..span_limit (a
    sentence of G tokens yields sum over o of (G - o + 1) of them). Spans
    with the same lowercased text share a unique, numbered in first-mention
    order. A unique is gold when its text matches an alias
    (``evaluation.gold_indices``); an empty alias list (prediction-only
    use) marks nothing. ``gamma`` flags spans that hold a question token
    which is neither a stopword nor punctuation.
    """
    if span_limit < 1:
        raise ContractError(f"span limit must be >= 1, got {span_limit}")
    # the documents concatenated: token ids of the lowercased text, and
    # the [start, end) bounds of every sentence
    docs = example.documents
    raw = [t for d in docs for t in d.tokens]
    lowered = [t.lower() for t in raw]
    vocab: dict[str, int] = {}
    ids = np.array([vocab.setdefault(t, len(vocab)) for t in lowered],
                   dtype=np.intp)
    tok_off = _starts([len(d.tokens) for d in docs])
    n_sents = [len(d.sentences) for d in docs]
    bounds = np.array([(s + o, e + o) for d, o in zip(docs, tok_off.tolist())
                       for s, e in d.sentences], dtype=np.intp).reshape(-1, 2)

    # every window: each sentence token as a start, repeated once per length
    sizes = bounds[:, 1] - bounds[:, 0]
    pos = np.arange(sizes.sum()) + np.repeat(bounds[:, 0] - _starts(sizes),
                                             sizes)
    room = np.minimum(span_limit, np.repeat(bounds[:, 1], sizes) - pos)
    begin = np.repeat(pos, room)
    length = np.arange(room.sum()) - np.repeat(_starts(room), room) + 1
    sentence = np.repeat(np.repeat(np.arange(len(sizes)), sizes), room)
    doc = np.repeat(np.arange(len(docs)), n_sents)[sentence]

    # uniques by first mention. A span of length L is its (L - 1)-prefix
    # plus one token, so the distinct spans of length L are the distinct
    # keys (the prefix's id among length L - 1, the last token's id); span
    # (p, L) sits at _starts(room)[p] + L - 1, and the starts with room for
    # length L are a subset of those with room for L - 1
    starts = _starts(room)
    at, dense = np.arange(len(room)), np.zeros(len(room), dtype=np.intp)
    key_id = np.empty(len(begin), dtype=np.intp)  # per span, in key order
    firsts = [np.zeros(0, dtype=np.intp)]  # per unique, in key order
    for L in range(1, int(room.max(initial=0)) + 1):
        keep = room[at] >= L
        at, dense = at[keep], dense[keep]
        _, first, dense = np.unique(dense * len(vocab) + ids[at + L - 1],
                                    return_index=True, return_inverse=True)
        key_id[starts[at] + L - 1] = dense + sum(map(len, firsts))
        firsts.append(starts[at[first]] + L - 1)
    firsts = np.concatenate(firsts)
    rank = np.empty_like(firsts)
    rank[np.argsort(firsts)] = np.arange(len(firsts))
    first = np.sort(firsts)

    surfaces = [" ".join(raw[b:b + n])
                for b, n in zip(begin[first].tolist(), length[first].tolist())]
    # a gold unique's tokens all normalize to words of the aliases, so the
    # gold rule needs to see only the uniques whose tokens all do
    words = {w for a in example.answers for w in normalize_answer(a).split()}
    fits = [all(w in words for w in normalize_answer(t).split()) for t in vocab]
    misses = np.concatenate([[0], np.cumsum(~np.array(fits, dtype=bool)[ids])])
    end = begin[first] + length[first]
    maybe = np.flatnonzero(misses[end] == misses[begin[first]])
    gold = maybe[gold_indices([surfaces[i] for i in maybe.tolist()],
                              example.answers)]

    content = [vocab[t] for t in {t.lower() for t in example.question}
               if t in vocab and t not in STOPWORDS
               and not (t and set(t) <= _PUNCT)]
    hits = np.concatenate([[0], np.cumsum(np.isin(ids, content))])
    spans = SpanTable(doc=doc, sentence=sentence - _starts(n_sents)[doc],
                      start=begin - tok_off[doc], length=length,
                      unique=rank[key_id])
    return CandidateSet(spans, surfaces, gold,
                        (hits[begin + length] > hits[begin]).astype(np.float64))


def load_examples(
    source,
    mode: str = "wiki",
    max_tokens: int = DEFAULT_MAX_TOKENS,
    max_sentences: int = DEFAULT_MAX_SENTENCES,
    max_sentence_len: int = DEFAULT_MAX_SENTENCE_LEN,
) -> list[QAExample]:
    """Read JSON-lines QA records into tokenized, truncated examples.

    ``source`` is a path (``str`` or ``os.PathLike``), which is opened as
    UTF-8 (a byte that does not decode raises DataError), or any iterable
    of text lines such as an open text stream. ``mode`` selects instance
    construction: "wiki" keeps one instance per question with all its
    documents; "web" emits one instance per question-document pair (ids
    suffixed ``::<doc index>``).
    """
    if mode not in ("wiki", "web"):
        raise ContractError(f"mode must be 'wiki' or 'web', got {mode!r}")
    if isinstance(source, (str, os.PathLike)):
        with open_text(source) as fh:
            return load_examples(fh, mode, max_tokens, max_sentences,
                                 max_sentence_len)
    examples: list[QAExample] = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}", line_number=lineno) from None
        if not isinstance(record, dict):
            raise ParseError(f"expected a JSON object, got "
                             f"{type(record).__name__}", line_number=lineno)
        for key in ("id", "question", "documents", "answers"):
            if key not in record:
                raise ParseError(f"missing field {key!r}", line_number=lineno)
        for key in ("id", "question"):
            if not isinstance(record[key], str):
                raise ParseError(f"field {key!r} must be a string",
                                 line_number=lineno)
        for key in ("documents", "answers"):
            if not (isinstance(record[key], list)
                    and all(isinstance(x, str) for x in record[key])):
                raise ParseError(f"field {key!r} must be an array of strings",
                                 line_number=lineno)
        for key in ("id", "question", "documents", "answers"):
            texts = record[key] if isinstance(record[key], list) else [record[key]]
            if any(map(LONE_SURROGATE.search, texts)):
                raise ParseError(f"field {key!r} holds a lone surrogate, which "
                                 "is not text", line_number=lineno)
        question = tokenize(record["question"]).tokens
        if not question:
            raise ParseError("question has no tokens", line_number=lineno)
        answers = record["answers"]
        if not answers:
            raise ParseError("empty answers array", line_number=lineno)
        raw_docs = record["documents"]
        if not raw_docs:
            raise ParseError("empty documents array", line_number=lineno)
        docs = [
            truncate(tokenize(d), max_tokens, max_sentences,
                     max_sentence_len)
            for d in raw_docs
        ]
        if mode == "wiki":
            examples.append(
                QAExample(record["id"], question, docs, answers)
            )
        else:
            for di, doc in enumerate(docs):
                examples.append(
                    QAExample(f"{record['id']}::{di}", question, [doc], answers)
                )
    return examples
