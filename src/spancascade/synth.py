"""Synthetic QA corpora with controllable answer patterns.

Three generators back the demos and the experiment suite:

* a tiny fixed instance (3 sentences, 12 tokens, 2 gold mentions) for
  gradient checking;
* a co-occurrence corpus: the answer is the entity appearing in the same
  sentence as the question's cue word, mentioned twice per document, so a
  cascade with sentence attention can master it while a bag-of-embeddings
  question+span model cannot generalize past memorized pairings;
* a two-cue corpus where each mention alone is ambiguous between two
  entities and only combining two mentions identifies the answer, which
  separates models with and without mention aggregation.

Every generator is fully seeded and returns plain corpus examples plus an
embedding table over the closed vocabulary.
"""

from __future__ import annotations

import numpy as np

from .corpus import QAExample, tokenize
from .embeddings import EmbeddingTable, random_table

ENTITIES = [
    "boral", "cindra", "dorax", "elvan", "fenric", "galdo",
    "hestia", "ilmar", "jovek", "kessle", "lurian", "mavok",
]
CUES = ["prelt", "quost", "ramik", "sovel", "tazir", "umbra", "verno", "wylt"]
FILLERS = [
    "stone", "river", "tower", "garden", "market", "harbor",
    "meadow", "castle", "bridge", "forest", "valley", "temple",
]
TEMPLATE_WORDS = [
    "which", "item", "holds", "the", "stands", "near", "and",
    "who", "met", ".", "?",
]


def vocabulary() -> list:
    return ENTITIES + CUES + FILLERS + TEMPLATE_WORDS + [
        "zarek", "milot",
        "rena", "vel", "tost", "mira", "kye", "kilo", "brun",
    ]


def make_table(embed_dim: int = 16, seed: int = 7) -> EmbeddingTable:
    return random_table(vocabulary(), embed_dim, seed)


def gradcheck_instance(embed_dim: int = 8, seed: int = 7):
    """Fixed toy: 3 sentences, 12 document tokens, 2 gold mentions.

    The answer "rena vel" occurs twice, never adjacent to sentence
    punctuation, so no punctuation-absorbing span also normalizes to it.
    """
    doc = tokenize("rena vel tost . mira rena vel kye . kilo brun .")
    assert len(doc.tokens) == 12 and len(doc.sentences) == 3
    example = QAExample(
        example_id="gradcheck-toy",
        question=tokenize("who met vel tost ?").tokens,
        documents=[doc],
        answers=["rena vel"],
    )
    return example, random_table(vocabulary(), embed_dim, seed)


def _question(cue: str) -> list:
    return tokenize(f"which item holds the {cue} ?").tokens


def _cooccurrence_example(rng: np.random.Generator, idx: int,
                          tag: str) -> QAExample:
    cue = CUES[int(rng.integers(len(CUES)))]
    picks = rng.choice(len(ENTITIES), size=3, replace=False)
    answer, d1, d2 = (ENTITIES[int(i)] for i in picks)
    other_cues = [c for c in CUES if c != cue]
    alt = other_cues[int(rng.integers(len(other_cues)))]
    fillers = rng.choice(len(FILLERS), size=3, replace=False)
    f1, f2, f3 = (FILLERS[int(i)] for i in fillers)
    sentences = [
        f"{answer} holds the {cue} .",
        f"{answer} stands near the {f1} .",
        f"{d1} holds the {alt} .",
        f"{d1} stands near the {f2} .",
        f"{d2} stands near the {f3} .",
    ]
    rng.shuffle(sentences)
    return QAExample(
        example_id=f"{tag}-{idx}",
        question=_question(cue),
        documents=[tokenize(" ".join(sentences))],
        answers=[answer],
    )


def make_overfit_corpus(n_train: int = 50, n_heldout: int = 50,
                        seed: int = 11):
    """Cue co-occurrence corpus: answer = entity sharing the cue sentence.

    The answer is mentioned twice per document (distant supervision marks
    both), and held-out examples resample the cue/entity pairings so only
    document context, not memorized associations, identifies the answer.
    """
    rng = np.random.default_rng(seed)
    train = [_cooccurrence_example(rng, i, "cooc-train") for i in range(n_train)]
    heldout = [
        _cooccurrence_example(rng, i, "cooc-heldout") for i in range(n_heldout)
    ]
    return train, heldout


# fixed candidate pair with randomized roles: entity identity carries no
# information, so memorizing embeddings cannot separate the candidates
MENTION_PAIR = ("zarek", "milot")


def _multimention_example(rng: np.random.Generator, idx: int,
                          tag: str) -> QAExample:
    cue_idx = rng.choice(len(CUES), size=2, replace=False)
    c1, c2 = (CUES[int(i)] for i in cue_idx)
    entities = list(MENTION_PAIR)
    rng.shuffle(entities)
    answer, distractor = entities
    dup = c1 if rng.random() < 0.5 else c2
    f_idx = rng.choice(len(FILLERS), size=4, replace=False)
    f = [FILLERS[int(i)] for i in f_idx]
    sentences = [
        f"{answer} holds the {c1} near the {f[0]} .",
        f"{answer} holds the {c2} near the {f[1]} .",
        f"{distractor} holds the {dup} near the {f[2]} .",
        f"{distractor} holds the {dup} near the {f[3]} .",
    ]
    rng.shuffle(sentences)
    return QAExample(
        example_id=f"{tag}-{idx}",
        question=tokenize(f"which item holds the {c1} and the {c2} ?").tokens,
        documents=[tokenize(" ".join(sentences))],
        answers=[answer],
    )


def make_multimention_corpus(n_train: int = 60, n_heldout: int = 50,
                             seed: int = 23):
    """Two-cue coverage corpus: only combining mentions identifies the answer.

    Both candidates are mentioned twice and every mention co-occurs with one
    question cue, so each mention alone is ambiguous between the two
    candidates; the answer's mentions cover both question cues while the
    distractor repeats one. Candidate roles use a fixed token pair shuffled
    per example, so entity identity carries no signal. Per-mention scoring
    maxed over mentions cannot separate the pair; summing mention
    representations can.
    """
    rng = np.random.default_rng(seed)
    train = [_multimention_example(rng, i, "mm-train") for i in range(n_train)]
    heldout = [
        _multimention_example(rng, i, "mm-heldout") for i in range(n_heldout)
    ]
    return train, heldout
