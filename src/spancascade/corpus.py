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

import io
import json
import string
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParseError
from .evaluation import gold_indices

_PUNCT = set(string.punctuation)
_SENTENCE_ENDERS = {".", "?", "!"}

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
    """Tokenized evidence text with sentence ranges and origin positions.

    ``sentences`` holds [start, end) index ranges that partition the
    retained tokens in order; ``positions`` records each retained token's
    index in the original (pre-truncation) document.
    """

    tokens: list
    positions: list
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
    return Document(tokens, list(range(len(tokens))), sentences)


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
    if max_tokens < 1 or max_sentences < 1 or max_sentence_len < 1:
        raise ContractError("truncation limits must be positive")
    tokens: list = []
    positions: list = []
    sentences: list = []
    for s, e in doc.sentences[:max_sentences]:
        e = min(e, s + max_sentence_len)
        remaining = max_tokens - len(tokens)
        if remaining <= 0:
            break
        take = min(e - s, remaining)
        start_new = len(tokens)
        tokens.extend(doc.tokens[s:s + take])
        positions.extend(doc.positions[s:s + take])
        sentences.append((start_new, start_new + take))
        if take < e - s:
            break
    return Document(tokens, positions, sentences)


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

    # uniques: distinct rows of token ids (padded with -1), by first mention
    steps = np.arange(span_limit)
    inside = steps < length[:, None]
    rows = np.where(inside, ids[np.where(inside, begin[:, None] + steps, 0)], -1)
    _, first, inverse = np.unique(rows, axis=0, return_index=True,
                                  return_inverse=True)
    rank = np.argsort(np.argsort(first))
    first = np.sort(first)

    surfaces = [" ".join(raw[b:b + n])
                for b, n in zip(begin[first].tolist(), length[first].tolist())]
    gold = gold_indices(surfaces, example.answers)

    content = [vocab[t] for t in {t.lower() for t in example.question}
               if t in vocab and t not in STOPWORDS
               and not (t and set(t) <= _PUNCT)]
    hits = np.concatenate([[0], np.cumsum(np.isin(ids, content))])
    spans = SpanTable(doc=doc, sentence=sentence - _starts(n_sents)[doc],
                      start=begin - tok_off[doc], length=length,
                      unique=rank[inverse.reshape(-1)])
    return CandidateSet(spans, surfaces, np.array(gold, dtype=np.intp),
                        (hits[begin + length] > hits[begin]).astype(np.float64))


def load_examples(
    source,
    mode: str = "wiki",
    max_tokens: int = DEFAULT_MAX_TOKENS,
    max_sentences: int = DEFAULT_MAX_SENTENCES,
    max_sentence_len: int = DEFAULT_MAX_SENTENCE_LEN,
) -> list[QAExample]:
    """Read JSON-lines QA records into tokenized, truncated examples.

    ``mode`` selects instance construction: "wiki" keeps one instance per
    question with all its documents; "web" emits one instance per
    question-document pair (ids suffixed ``::<doc index>``).
    """
    if mode not in ("wiki", "web"):
        raise ContractError(f"mode must be 'wiki' or 'web', got {mode!r}")
    if isinstance(source, str) and "\n" not in source:
        with open(source, "r", encoding="utf-8") as fh:
            return load_examples(fh, mode, max_tokens, max_sentences,
                                 max_sentence_len)
    if isinstance(source, str):
        source = io.StringIO(source)
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
        question = tokenize(record["question"]).tokens
        if not question:
            raise ContractError(
                f"line {lineno}: question of example {record['id']!r} "
                "has no tokens"
            )
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
