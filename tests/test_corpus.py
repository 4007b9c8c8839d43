"""Tokenization, truncation, span enumeration and gold marking."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancascade.corpus import (
    Document,
    QAExample,
    build_candidates,
    load_examples,
    tokenize,
    truncate,
)
from spancascade.embeddings import random_table
from spancascade.errors import ContractError, ParseError
from spancascade.evaluation import gold_indices, normalize_answer
from spancascade.model import Architecture, encode_example


def test_tokenize_basic_punctuation():
    doc = tokenize("Hello, world.")
    assert doc.tokens == ["Hello", ",", "world", "."]
    assert doc.sentences == [(0, 4)]


def test_tokenize_two_sentences():
    doc = tokenize("A b. C d.")
    assert len(doc.sentences) == 2
    assert doc.tokens == ["A", "b", ".", "C", "d", "."]


def test_tokenize_deterministic():
    text = "One (two) three! Four? Five..."
    assert tokenize(text).tokens == tokenize(text).tokens
    assert tokenize(text).sentences == tokenize(text).sentences


def test_tokenize_trailing_quote_keeps_sentence_open():
    # terminator followed by another character is not a boundary
    doc = tokenize('He said "stop." now')
    assert len(doc.sentences) == 1


def test_tokenize_empty():
    doc = tokenize("")
    assert doc.tokens == [] and doc.sentences == []


def test_tokenize_unclosed_sentence():
    doc = tokenize("no terminator here")
    assert doc.sentences == [(0, 3)]


def test_truncate_sentence_cap_binds_first():
    text = " ".join(["w"] * 7000)
    doc = tokenize(text)
    out = truncate(doc)
    assert len(out.tokens) == 50
    assert out.sentences == [(0, 50)]


def test_truncate_identity_when_within_limits():
    doc = tokenize("a b. c d e.")
    out = truncate(doc)
    assert out.tokens == doc.tokens
    assert out.sentences == doc.sentences


def test_truncate_sentence_count_cap():
    text = " ".join(["w ."] * 1200)
    doc = tokenize(text)
    out = truncate(doc)
    assert len(out.sentences) == 1000


def test_truncate_token_cap_cuts_last_sentence():
    text = " ".join(["a b c d e ."] * 3)
    doc = tokenize(text)
    out = truncate(doc, max_tokens=8)
    assert len(out.tokens) == 8
    assert out.sentences == [(0, 6), (6, 8)]


def test_truncate_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        sents = []
        for _ in range(int(rng.integers(1, 30))):
            sents.append(" ".join(["tok"] * int(rng.integers(1, 80))) + " .")
        doc = tokenize(" ".join(sents))
        once = truncate(doc, max_tokens=120, max_sentences=12, max_sentence_len=9)
        twice = truncate(once, max_tokens=120, max_sentences=12, max_sentence_len=9)
        assert once.tokens == twice.tokens
        assert once.sentences == twice.sentences


def brute_force_spans(doc, limit):
    """Independent double-loop enumeration over sentence windows."""
    found = []
    for si, (s, e) in enumerate(doc.sentences):
        for start in range(s, e):
            for end in range(start + 1, e + 1):
                if end - start <= limit:
                    found.append((si, start, end))
    return sorted(found)


def candidates(doc, limit, answers=(), question=("who",)):
    """build_candidates over a one-document example."""
    return build_candidates(QAExample("x", list(question), [doc], list(answers)),
                            limit)


def span_rows(cands):
    """(doc, sentence, start, length) per span, in table order."""
    sp = cands.spans
    return list(zip(sp.doc.tolist(), sp.sentence.tolist(), sp.start.tolist(),
                    sp.length.tolist()))


def mentions(cands, uid):
    return np.flatnonzero(cands.spans.unique == uid).tolist()


def unique_oracle(docs, cands):
    """Unique ids and surfaces from a dict keyed by lowercased token tuples,
    numbered in first-mention order."""
    index, ids, surfaces = {}, [], []
    for d, _, start, length in span_rows(cands):
        raw = docs[d].tokens[start:start + length]
        key = tuple(t.lower() for t in raw)
        if key not in index:
            index[key] = len(index)
            surfaces.append(" ".join(raw))
        ids.append(index[key])
    return ids, surfaces


def gold_span_oracle(docs, cands, answers):
    """Spans whose lowercased text normalizes to a non-empty alias."""
    aliases = {normalize_answer(a) for a in answers} - {""}
    return [i for i, (d, _, start, length) in enumerate(span_rows(cands))
            if normalize_answer(" ".join(t.lower() for t in
                                         docs[d].tokens[start:start + length]))
            in aliases]


def encoded_gold_spans(doc, limit, answers):
    example = QAExample("x", ["who"], [doc], list(answers))
    table = random_table(sorted({t.lower() for t in doc.tokens}), 4, seed=0)
    enc = encode_example(example, build_candidates(example, limit), table,
                         Architecture(embed_dim=4, hidden_width=4,
                                      span_limit=limit))
    return enc.gold_spans.tolist()


def test_span_counts_small_cases():
    doc = Document(list("abcdefghij"), [(0, 10)])
    assert len(candidates(doc, 5).spans) == 40
    doc1 = Document(["x"], [(0, 1)])
    assert len(candidates(doc1, 5).spans) == 1
    doc3 = Document(list("abc"), [(0, 3)])
    assert len(candidates(doc3, 5).spans) == 6
    with pytest.raises(ContractError, match="span limit"):
        candidates(doc3, 0)


def test_build_candidates_no_tokens_gives_no_spans():
    for docs in ([], [tokenize("")], [tokenize(""), tokenize("")]):
        cands = build_candidates(QAExample("x", ["who"], docs, ["a"]), 5)
        assert not cands.spans
        assert cands.surfaces == [] and cands.gamma.shape == (0,)
        assert cands.gold_unique_ids.size == 0


def test_build_candidates_memory_does_not_grow_past_the_longest_sentence():
    """Token-id rows are padded to the longest span, so a span limit far
    above the longest sentence gives the same arrays from the same memory."""
    import tracemalloc

    tokens = [f"w{i % 37}" for i in range(200)]
    sentences = [(s, min(s + 21, 200)) for s in range(0, 200, 21)]
    examples = [QAExample("x", ["w3", "w5"], [Document(tokens, sentences)],
                          ["w4 w5"]),
                QAExample("x", ["who"], [tokenize("")], ["a"])]
    for example in examples:
        runs = []
        for limit in (21, 2100):
            tracemalloc.start()
            try:
                cands = build_candidates(example, limit)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            runs.append((cands, peak))
        (small, small_peak), (big, big_peak) = runs
        for name, a in vars(small.spans).items():
            b = getattr(big.spans, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert small.surfaces == big.surfaces
        assert small.gold_unique_ids.tobytes() == big.gold_unique_ids.tobytes()
        assert small.gamma.tobytes() == big.gamma.tobytes()
        assert big_peak < 2 * max(small_peak, 1 << 16), (small_peak, big_peak)


def test_span_enumeration_matches_brute_force_100_random_docs():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n_sent = int(rng.integers(1, 5))
        tokens, sentences = [], []
        for _ in range(n_sent):
            g = int(rng.integers(1, 61))
            start = len(tokens)
            tokens.extend(f"t{i}" for i in range(g))
            sentences.append((start, start + g))
        doc = Document(tokens, sentences)
        got = sorted((si, start, start + length)
                     for _, si, start, length in span_rows(candidates(doc, 5)))
        assert got == brute_force_spans(doc, 5)


def test_span_order_lexicographic():
    docs = [tokenize("a b c . d e ."), tokenize("f . g h i j k l .")]
    cands = build_candidates(QAExample("x", ["who"], docs, []), 2)
    rows = span_rows(cands)
    assert rows == sorted(rows)
    assert {d for d, *_ in rows} == {0, 1}


def test_unique_map_groups_case_insensitively():
    doc = tokenize("Pollock met pollock and POLLOCK met Krasner")
    cands = candidates(doc, 1)
    pollock = [u for u, s in enumerate(cands.surfaces) if s.lower() == "pollock"]
    assert pollock == [0]
    assert cands.surfaces[0] == "Pollock"  # the first mention's case
    assert len(mentions(cands, 0)) == 3


def test_unique_map_mentions_partition_spans():
    rng = np.random.default_rng(4)
    words = ["aa", "bb", "cc"]
    text = " ".join(words[int(i)] for i in rng.integers(0, 3, 40)) + " ."
    doc = tokenize(text)
    cands = candidates(doc, 5)
    n_unique = len(cands.surfaces)
    assert np.all(np.bincount(cands.spans.unique, minlength=n_unique) > 0)
    assert cands.spans.unique.max() == n_unique - 1
    assert unique_oracle([doc], cands) == (cands.spans.unique.tolist(),
                                           cands.surfaces)


def test_unique_ids_match_dict_oracle_on_random_examples():
    """One to three documents; half of them one token in varying case, so
    that every span shares its prefix's unique, some with sentence ends in
    the run; span limits from 1 to past the longest sentence."""
    rng = np.random.default_rng(12)
    words = ["Alpha", "alpha", "ALPHA", "beta", "Beta", "gamma", ",", "."]
    runs = ["Alpha", "alpha", "ALPHA", "alpha", "alpha", "."]
    for _ in range(120):
        docs = []
        for _ in range(int(rng.integers(1, 4))):
            n = int(rng.integers(0, 40))
            pick = (words if rng.random() < 0.5
                    else runs[:int(rng.integers(3, 7))])
            docs.append(tokenize(" ".join(
                pick[int(i)] for i in rng.integers(0, len(pick), n))))
        longest = max([e - s for d in docs for s, e in d.sentences] or [0])
        limit = int(rng.integers(1, longest + 3))
        cands = build_candidates(QAExample("x", ["who"], docs, []), limit)
        assert unique_oracle(docs, cands) == (cands.spans.unique.tolist(),
                                              cands.surfaces)


def test_all_distinct_spans_give_one_unique_each():
    doc = Document(["a", "b", "c"], [(0, 3)])
    cands = candidates(doc, 1)
    assert len(cands.surfaces) == len(cands.spans)


def test_mark_gold_alias_list():
    doc = tokenize("Jackson Pollock married Krasner . Pollock painted .")
    answers = ["Jackson Pollock", "Pollock", "Pollock, Jackson"]
    cands = candidates(doc, 5, answers)
    gold_texts = {cands.surfaces[u].lower() for u in cands.gold_unique_ids}
    assert "pollock" in gold_texts
    assert "jackson pollock" in gold_texts
    gold_spans = encoded_gold_spans(doc, 5, answers)
    pollock = cands.surfaces.index("Pollock")
    assert set(mentions(cands, pollock)) <= set(gold_spans)
    assert gold_spans == gold_span_oracle([doc], cands, answers)


def test_mark_gold_no_match_zero_flags():
    doc = tokenize("nothing relevant here .")
    cands = candidates(doc, 5, ["absent"])
    assert cands.gold_unique_ids.size == 0
    assert encoded_gold_spans(doc, 5, ["absent"]) == []


def test_mark_gold_case_folds():
    doc = tokenize("Catalysts speed reactions and catalysts help .")
    cands = candidates(doc, 5, ["Catalysts"])
    assert cands.gold_unique_ids.tolist() == [0]
    assert len(mentions(cands, 0)) == 2


def test_mark_gold_monotone_in_aliases():
    doc = tokenize("alpha beta gamma .")
    before = encoded_gold_spans(doc, 5, ["alpha"])
    after = encoded_gold_spans(doc, 5, ["alpha", "beta"])
    assert before and set(before) < set(after)


def test_mark_gold_matches_oracle_on_random_examples():
    rng = np.random.default_rng(8)
    words = ["The", "red", "Fox", "fox", "an", ",", ".", "a"]
    for _ in range(50):
        text = " ".join(words[int(i)] for i in rng.integers(0, len(words), 25))
        doc = tokenize(text)
        answers = [" ".join(words[int(i)] for i in rng.integers(0, 8, k))
                   for k in rng.integers(1, 4, int(rng.integers(1, 4)))]
        cands = candidates(doc, 5, answers)
        expect = gold_span_oracle([doc], cands, answers)
        assert encoded_gold_spans(doc, 5, answers) == expect
        gold_uniques = sorted({int(cands.spans.unique[i]) for i in expect})
        assert cands.gold_unique_ids.tolist() == gold_uniques


# articles, punctuation, mixed case and non-ASCII tokens, and tokens that
# normalize to two words or to none
GOLD_TOKENS = ["The", "the", "A", "an", "Vel", "vel", "VEL", "tost", ",", ".",
               "'", "o'neil", "O'Neil", "rock-n-roll", "Über", "über",
               "naïve", "NAÏVE", "ΣΑΣ", "σας", "İstanbul", "straße", "x.y",
               "--", "the.", "(a)"]
gold_tokens = st.sampled_from(GOLD_TOKENS) | st.text(
    st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
    min_size=1, max_size=3)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(tokens=st.lists(gold_tokens, min_size=1, max_size=30),
       cut=st.integers(0, 30), window=st.integers(0, 30),
       answers=st.lists(st.lists(gold_tokens, min_size=1, max_size=4)
                        .map(" ".join), max_size=3))
def test_gold_uniques_match_gold_rule_over_all_surfaces(tokens, cut, window,
                                                        answers):
    """Gold marking checks the rule only on the uniques whose tokens all
    normalize to alias words; that must find every unique the rule marks."""
    cut = min(cut, len(tokens))
    answers = answers + [" ".join(tokens[window:window + 2]).swapcase()]
    sentences = [(0, cut), (cut, len(tokens))] if 0 < cut < len(tokens) \
        else [(0, len(tokens))]
    cands = candidates(Document(tokens, sentences), 5, answers)
    assert cands.gold_unique_ids.tolist() == gold_indices(cands.surfaces,
                                                          answers)


def span_gamma(question, doc_text, span_text):
    """The question-in-span flag of the first span reading ``span_text``."""
    cands = candidates(tokenize(doc_text), 5, question=question)
    return cands.gamma[mentions(cands, cands.surfaces.index(span_text))[0]]


def test_question_in_span_examples():
    question = tokenize("Which US artist married Lee Krasner in 1945 ?").tokens
    doc = "Lee Krasner . Jackson Pollock . 1945 ."
    assert span_gamma(question, doc, "Lee Krasner") == 1.0
    assert span_gamma(question, doc, "Jackson Pollock") == 0.0
    assert span_gamma(["which"], "which", "which") == 0.0  # stopword only
    assert span_gamma(question, doc, "1945") == 1.0


def test_question_in_span_ignores_punctuation_tokens():
    doc = Document(["?", "!"], [(0, 2)])
    cands = candidates(doc, 5, question=["what", "?", "!"])
    assert cands.gamma.tolist() == [0.0, 0.0, 0.0]


def test_load_examples_wiki_and_web_modes():
    line = ('{"id": "q1", "question": "who is it ?", '
            '"documents": ["a b . c d .", "e f ."], "answers": ["a"]}')
    wiki = load_examples(io.StringIO(line + "\n"), mode="wiki")
    assert len(wiki) == 1 and len(wiki[0].documents) == 2
    web = load_examples(io.StringIO(line + "\n"), mode="web")
    assert len(web) == 2
    assert web[0].example_id == "q1::0" and web[1].example_id == "q1::1"


def test_load_examples_errors():
    with pytest.raises(ParseError, match="line 1"):
        load_examples(io.StringIO("not json\n"))
    with pytest.raises(ParseError, match="missing field"):
        load_examples(io.StringIO('{"id": "x", "question": "q"}\n'))
    with pytest.raises(ContractError):
        load_examples(io.StringIO('{"id": "x", "question": "", '
                                  '"documents": ["d"], "answers": ["a"]}\n'))
    with pytest.raises(ParseError, match="empty answers"):
        load_examples(io.StringIO('{"id": "x", "question": "q", '
                                  '"documents": ["d"], "answers": []}\n'))
    with pytest.raises(ContractError):
        load_examples(io.StringIO("{}"), mode="bogus")


GOOD_LINE = ('{"id": "q", "question": "who ?", "documents": ["a b ."], '
             '"answers": ["a"]}')


@pytest.mark.parametrize("line", ["3", '"text"', "[1, 2]", "null", "true"])
def test_load_examples_non_object_line_names_line(line):
    with pytest.raises(ParseError, match="line 2: expected a JSON object"):
        load_examples(io.StringIO(GOOD_LINE + "\n" + line + "\n"))


@pytest.mark.parametrize("field, value", [
    ("documents", '"a b ."'), ("answers", '"a"'), ("documents", '["a", 3]'),
    ("answers", '["a", null]'), ("answers", '{"a": 1}'),
])
def test_load_examples_fields_must_be_string_arrays(field, value):
    record = {"id": '"q"', "question": '"who ?"', "documents": '["a b ."]',
              "answers": '["a"]', field: value}
    line = "{" + ", ".join(f'"{k}": {v}' for k, v in record.items()) + "}"
    with pytest.raises(ParseError, match=f"line 1: field '{field}' must be"):
        load_examples(io.StringIO(line + "\n"))


@pytest.mark.parametrize("field, value", [
    ("question", '["who", "is"]'), ("question", "3"), ("question", "null"),
    ("id", "7"), ("id", '["q"]'),
])
def test_load_examples_id_and_question_must_be_strings(field, value):
    record = {"id": '"q"', "question": '"who ?"', "documents": '["a b ."]',
              "answers": '["a"]', field: value}
    line = "{" + ", ".join(f'"{k}": {v}' for k, v in record.items()) + "}"
    with pytest.raises(ParseError,
                       match=f"line 2: field '{field}' must be a string"):
        load_examples(io.StringIO(GOOD_LINE + "\n" + line + "\n"))


@pytest.mark.parametrize("field, value", [
    ("question", '"who {} ?"'), ("documents", '["a {} b ."]'),
    ("answers", '["a", "{}"]'), ("id", '"q{}"'),
])
def test_load_examples_lone_surrogate_names_field(field, value):
    def line(escape):
        record = {"id": '"q"', "question": '"who ?"', "documents": '["a b ."]',
                  "answers": '["a"]', field: value.format(escape)}
        return "{" + ", ".join(f'"{k}": {v}' for k, v in record.items()) + "}\n"

    for lone in (r"\ud800", r"\udfff"):
        with pytest.raises(ParseError, match=f"line 2: field '{field}' holds "
                                             "a lone surrogate"):
            load_examples(io.StringIO(GOOD_LINE + "\n" + line(lone)))
    # an escaped surrogate pair is one code point, and loads
    assert len(load_examples(io.StringIO(line(r"\ud83d\ude00")))) == 1


def test_load_examples_applies_truncation():
    docs = " ".join(["w"] * 100)
    line = ('{"id": "q", "question": "what ?", "documents": ["%s"], '
            '"answers": ["w"]}' % docs)
    examples = load_examples(io.StringIO(line + "\n"), max_tokens=10,
                             max_sentence_len=10)
    assert len(examples[0].documents[0]) == 10


def test_load_examples_from_path_object(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(GOOD_LINE, encoding="utf-8")  # no trailing newline
    (example,) = load_examples(path)
    assert example.example_id == "q" and example.answers == ["a"]


def test_build_candidates_multi_document_sentence_indexing():
    example = QAExample(
        "x", tokenize("who ?").tokens,
        [tokenize("alpha beta ."), tokenize("beta gamma .")],
        ["beta"])
    cands = build_candidates(example, 2)
    # "beta" occurs once per document; both map to one unique candidate
    beta = cands.surfaces.index("beta")
    assert len(mentions(cands, beta)) == 2
    assert {int(cands.spans.doc[m]) for m in mentions(cands, beta)} == {0, 1}
    assert cands.spans.sentence[mentions(cands, beta)].tolist() == [0, 0]
    # the bare "beta" unique is gold; "beta ." also normalizes to "beta"
    assert beta in cands.gold_unique_ids
    for uid in cands.gold_unique_ids:
        assert cands.surfaces[uid].replace(" ", "").strip(".") == "beta"


def test_build_candidates_empty_answers_skips_gold():
    example = QAExample("x", ["who"], [tokenize("a b .")], [])
    cands = build_candidates(example, 2)
    assert cands.gold_unique_ids.size == 0
