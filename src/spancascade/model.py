"""The four-submodel span-scoring cascade and its candidate distributions.

Level 1 scores each candidate span from bags of embeddings: one submodel
pairs the span with a learned weighted summary of the question, the other
pairs it with averaged K-token left/right contexts. Level 2 aligns the
question with the span's sentence using attend/compare attention computed
once per sentence (shared by every span in it) and rescores using the
level-1 hidden states. Level 3 passes each mention's level-2 hidden state
through a transform, sums the results over all mentions of the same unique
candidate, and produces the score used for prediction.

One forward pass, ``forward_cascade``, serves both uses: training runs it
on a recording tape, inference (``score_example``) on a non-recording one.
Span stages run over row chunks of bounded size, which bounds the working
set of inference on long documents.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import (
    DropoutState,
    FfnnParams,
    LinearParams,
    Tape,
    Tensor,
    ffnn,
    linear,
)
from .corpus import CandidateSet, QAExample, build_candidates
from .embeddings import EmbeddingTable
from .errors import (
    CheckpointError,
    ContractError,
    DimensionError,
    EmptyCandidateError,
    NonFiniteError,
)
from .evaluation import ScoredExample

CHECKPOINT_MAGIC = b"SPANCASCADE-CKPT-v1\n"


@dataclass(frozen=True)
class Architecture:
    """Dimensions and level wiring of the cascade."""

    embed_dim: int
    hidden_width: int = 300
    span_limit: int = 5
    context_size: int = 1
    level1_mode: str = "both"    # both | qs | sc
    use_level2: bool = True
    use_level3: bool = True
    combined_level1: bool = False

    def __post_init__(self):
        if self.embed_dim < 1 or self.hidden_width < 1:
            raise ContractError("embed_dim and hidden_width must be positive")
        if self.span_limit < 1 or self.context_size < 1:
            raise ContractError("span_limit and context_size must be positive")
        if self.level1_mode not in ("both", "qs", "sc"):
            raise ContractError(f"bad level1_mode {self.level1_mode!r}")
        if self.combined_level1 and self.level1_mode != "both":
            raise ContractError("combined_level1 uses both level-1 inputs")
        if self.use_level3 and not self.use_level2:
            raise ContractError("level 3 requires level 2 (no documented wiring "
                                "feeds aggregation from level 1 directly)")

    @property
    def m1_active(self) -> bool:
        return not self.combined_level1 and self.level1_mode in ("both", "qs")

    @property
    def m2_active(self) -> bool:
        return not self.combined_level1 and self.level1_mode in ("both", "sc")

    @property
    def needs_question_nets(self) -> bool:
        return self.m1_active or self.combined_level1

    @property
    def level2_in_dim(self) -> int:
        w = self.hidden_width
        n_hidden = int(self.m1_active) + int(self.m2_active) + int(self.combined_level1)
        return n_hidden * w + 2 * w + 1

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class ForwardStats:
    """Counters one forward pass adds to: attention calls and MACs.

    Counting never changes a score.
    """

    attention_calls: int = 0
    macs: int = 0


# ---------------------------------------------------------------------------
# parameters


@dataclass
class CascadeParams:
    """All trainable weights, grouped by submodel; inactive ones are None."""

    arch: Architecture
    seed: int
    ffnn_q: FfnnParams | None = None
    linear_q: LinearParams | None = None
    ffnn_qs: FfnnParams | None = None
    linear_qs: LinearParams | None = None
    ffnn_c: FfnnParams | None = None
    linear_c: LinearParams | None = None
    ffnn_comb: FfnnParams | None = None
    linear_comb: LinearParams | None = None
    ffnn_att1: FfnnParams | None = None
    ffnn_att2: FfnnParams | None = None
    ffnn_l2: FfnnParams | None = None
    linear_l2: LinearParams | None = None
    ffnn_agg: FfnnParams | None = None
    ffnn_l3: FfnnParams | None = None
    linear_l3: LinearParams | None = None

    @classmethod
    def _submodel_dims(cls, arch: Architecture) -> dict:
        """The one list of submodels: the active ``ffnn_*`` nets and
        ``linear_*`` heads with their input dims, in initialization order."""
        e, w = arch.embed_dim, arch.hidden_width
        dims = {}
        if arch.needs_question_nets:
            dims["ffnn_q"], dims["linear_q"] = e, w
        if arch.m1_active:
            dims["ffnn_qs"], dims["linear_qs"] = 2 * e + 2, w
        if arch.m2_active:
            dims["ffnn_c"], dims["linear_c"] = 3 * e + 1, w
        if arch.combined_level1:
            dims["ffnn_comb"], dims["linear_comb"] = 4 * e + 2, w
        if arch.use_level2:
            dims["ffnn_att1"] = e
            dims["ffnn_att2"] = 2 * e
            dims["ffnn_l2"], dims["linear_l2"] = arch.level2_in_dim, w
        if arch.use_level3:
            dims["ffnn_agg"] = w + 1
            dims["ffnn_l3"], dims["linear_l3"] = w, w
        return dims

    @classmethod
    def initialize(cls, arch: Architecture, seed: int) -> "CascadeParams":
        """Seeded scaled-uniform init over the active submodels."""
        rng = np.random.default_rng(seed)
        w = arch.hidden_width
        p = cls(arch=arch, seed=int(seed))
        for name, in_dim in cls._submodel_dims(arch).items():
            if name.startswith("ffnn"):
                setattr(p, name, FfnnParams.initialize(in_dim, w, rng))
            else:
                setattr(p, name, LinearParams.initialize(in_dim, rng))
        return p

    def _active(self) -> list:
        """(name, submodel) pairs: nets, then heads, each in _submodel_dims
        order; this is the checkpoint and tape-variable order."""
        names = sorted(self._submodel_dims(self.arch),
                       key=lambda name: name.startswith("linear"))
        return [(name, getattr(self, name)) for name in names]

    def named_arrays(self) -> list:
        """(name, array) pairs in a fixed order; the flat parameter view."""
        return [(f"{name}.{part.name}", getattr(net, part.name))
                for name, net in self._active() for part in fields(net)]

    def as_dict(self) -> dict:
        return dict(self.named_arrays())

    def bind(self, tape: Tape) -> "CascadeParams":
        """Register every array as a named tape variable; returns the bound view."""
        bound = replace(self)
        for name, net in self._active():
            setattr(bound, name, type(net)(*[
                tape.variable(getattr(net, part.name), f"{name}.{part.name}")
                for part in fields(net)]))
        return bound

    @classmethod
    def from_arrays(cls, arch: Architecture, seed: int, arrays: dict) -> "CascadeParams":
        """Rebuild from a {name: array} mapping (checkpoint load).

        The mapping must hold exactly the architecture's tensors, each with
        the shape it implies; the arrays are used as given, not copied.
        """
        p = cls(arch=arch, seed=int(seed))
        for name, in_dim in cls._submodel_dims(arch).items():
            kind = FfnnParams if name.startswith("ffnn") else LinearParams
            values = []
            for part, shape in zip(fields(kind),
                                   kind.shapes(in_dim, arch.hidden_width)):
                key = f"{name}.{part.name}"
                if key not in arrays:
                    raise CheckpointError(f"missing tensor {key!r}")
                if np.shape(arrays[key]) != shape:
                    raise CheckpointError(
                        f"tensor {key!r} has shape {np.shape(arrays[key])}, "
                        f"the architecture needs {shape}")
                values.append(arrays[key])
            setattr(p, name, kind(*values))
        unexpected = arrays.keys() - p.as_dict().keys()
        if unexpected:
            raise CheckpointError(
                f"tensor {min(unexpected)!r} is not part of the architecture")
        return p


# ---------------------------------------------------------------------------
# encoding: fixed-embedding features, computed once per example


@dataclass
class EncodedExample:
    """Numeric view of one example; everything here is parameter-free."""

    example_id: str
    question: np.ndarray        # (m, e)
    doc_embed: np.ndarray       # (n, e), documents concatenated
    sentence_ranges: list       # [start, end) over concatenated tokens
    span_sentence: np.ndarray   # (S,) sentence index per span
    span_unique: np.ndarray     # (S,) unique-candidate id per span
    gamma: np.ndarray           # (S,) question-in-span flag, 0.0 or 1.0
    span_avg: np.ndarray        # (S, e) mean token embedding of each span
    ctx_left: np.ndarray        # (S, e) K-token left context average
    ctx_right: np.ndarray       # (S, e) K-token right context average
    n_unique: int
    gold_spans: np.ndarray      # indices into the span list
    gold_uniques: np.ndarray    # indices into the unique list
    unique_surfaces: list
    mention_counts: np.ndarray

    @property
    def n_spans(self) -> int:
        return len(self.span_sentence)


def span_embeddings(span_avg: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Append the question-in-span flag to each span's averaged embedding."""
    return np.concatenate([span_avg, gamma[:, None]], axis=1)


def encode_example(example: QAExample, cands: CandidateSet,
                   table: EmbeddingTable, arch: Architecture) -> EncodedExample:
    """Precompute every parameter-free feature of an example.

    Context windows never cross document boundaries; positions outside a
    document contribute zero vectors (the sum is always divided by K).
    """
    if not example.question:
        raise ContractError(f"example {example.example_id!r} has no question tokens")
    K = arch.context_size
    q_embed = table.lookup_all(example.question)
    if q_embed.shape[1] != arch.embed_dim:
        raise DimensionError(
            f"table dimension {q_embed.shape[1]} vs architecture embed_dim "
            f"{arch.embed_dim}"
        )

    docs = example.documents
    mats = [table.lookup_all(doc.tokens) for doc in docs]
    sizes = np.array([len(m) for m in mats], dtype=np.intp)
    tok_off = np.cumsum(sizes) - sizes
    sentence_ranges = [(s + o, e + o) for doc, o in zip(docs, tok_off.tolist())
                       for s, e in doc.sentences]
    n_sents = np.array([len(doc.sentences) for doc in docs], dtype=np.intp)
    # per-document prefix sums, stacked: row tok_off[d] + d + i holds the
    # sum of document d's first i token vectors
    zero = np.zeros((1, arch.embed_dim))
    csums = np.concatenate([np.concatenate([zero, np.cumsum(m, axis=0)])
                            for m in mats] or [zero])

    spans = cands.spans
    base = (tok_off + np.arange(len(docs)))[spans.doc]
    start = base + spans.start
    end = start + spans.length
    lo = base + np.maximum(0, spans.start - K)
    hi = base + np.minimum(sizes[spans.doc], spans.start + spans.length + K)
    span_avg = (csums[end] - csums[start]) / spans.length[:, None]
    ctx_left = (csums[start] - csums[lo]) / K
    ctx_right = (csums[hi] - csums[end]) / K
    return EncodedExample(
        example_id=example.example_id,
        question=q_embed,
        doc_embed=np.concatenate(mats or [np.zeros((0, arch.embed_dim))]),
        sentence_ranges=sentence_ranges,
        span_sentence=(np.cumsum(n_sents) - n_sents)[spans.doc] + spans.sentence,
        span_unique=spans.unique,
        gamma=cands.gamma,
        span_avg=span_avg,
        ctx_left=ctx_left,
        ctx_right=ctx_right,
        n_unique=len(cands.surfaces),
        gold_spans=np.flatnonzero(np.isin(spans.unique, cands.gold_unique_ids)),
        gold_uniques=cands.gold_unique_ids,
        unique_surfaces=cands.surfaces,
        mention_counts=np.bincount(spans.unique, minlength=len(cands.surfaces)),
    )


# ---------------------------------------------------------------------------
# tape forward (training path)


@dataclass
class CascadeScores:
    """Scores per level; spans for 1..3, unique candidates for 4.

    Entries are tape Tensors in training and plain arrays at inference;
    inactive levels are None.
    """

    phi1: object = None
    phi2: object = None
    phi_comb: object = None
    phi3: object = None
    phi4: object = None

    def values(self) -> "CascadeScores":
        def v(x):
            return x.value if isinstance(x, Tensor) else x
        return CascadeScores(v(self.phi1), v(self.phi2), v(self.phi_comb),
                             v(self.phi3), v(self.phi4))


def question_vector(tape: Tape, q_embed, bound: CascadeParams,
                    drop: DropoutState | None = None) -> Tensor:
    """Softmax-weighted question summary with learned per-token weights."""
    q = q_embed if isinstance(q_embed, Tensor) else tape.constant(q_embed)
    if q.value.shape[0] < 1:
        raise ContractError("question must have at least one token")
    h = ffnn(q, bound.ffnn_q, drop)
    delta = linear(h, bound.linear_q)
    return ad.matmul(ad.softmax_normalize(delta), q)


def level1(columns: list, net: FfnnParams, head: LinearParams,
           drop: DropoutState | None = None):
    """One level-1 submodel over column blocks of span features.

    Question+span reads [s_tilde, q_tilde, gamma], span+context reads
    [s_avg, left, right, gamma], and the combined variant reads
    [s_tilde, q_tilde, left, right, gamma]. Returns hidden states and
    scores for every row.
    """
    h = ffnn(ad.hstack(columns), net, drop)
    return h, linear(h, head)


def sentence_attention(tape: Tape, q_embed, sent_embed, bound: CascadeParams,
                       drop: DropoutState | None = None,
                       stats: ForwardStats | None = None,
                       q_projected: Tensor | None = None):
    """Attend/compare between the question and one sentence.

    Returns the sentence-aware question summary and the question-aware
    sentence summary (both hidden-width vectors). Called once per
    (question, sentence) pair and shared by every span in the sentence;
    ``q_projected`` lets callers reuse the question-side projection.
    """
    q = q_embed if isinstance(q_embed, Tensor) else tape.constant(q_embed)
    g = sent_embed if isinstance(sent_embed, Tensor) else tape.constant(sent_embed)
    if g.value.shape[0] < 1:
        raise ContractError("sentence must have at least one token")
    if stats is not None:
        stats.attention_calls += 1
    if q_projected is None:
        q_projected = ffnn(q, bound.ffnn_att1, drop)
    g_projected = ffnn(g, bound.ffnn_att1, drop)
    eta = ad.matmul(q_projected, ad.transpose(g_projected))  # (m, G)
    align_q = ad.softmax_rows(eta)       # each question token over the sentence
    align_g = ad.softmax_cols(eta)       # each sentence token over the question
    q_attended = ad.matmul(align_q, g)               # (m, e)
    g_attended = ad.matmul(ad.transpose(align_g), q)  # (G, e)
    q_bar = ad.sum_rows(ffnn(ad.hstack([q, q_attended]), bound.ffnn_att2, drop))
    g_bar = ad.sum_rows(ffnn(ad.hstack([g, g_attended]), bound.ffnn_att2, drop))
    return q_bar, g_bar


def level2(tape: Tape, hidden_states: list, q_bar_rows: Tensor,
           g_bar_rows: Tensor, gamma_col, bound: CascadeParams,
           drop: DropoutState | None = None):
    """Attention-informed rescoring on top of the level-1 hidden states."""
    gamma_col = gamma_col if isinstance(gamma_col, Tensor) else tape.constant(gamma_col)
    x = ad.hstack(list(hidden_states) + [q_bar_rows, g_bar_rows, gamma_col])
    h = ffnn(x, bound.ffnn_l2, drop)
    return h, linear(h, bound.linear_l2)


def level3_aggregate(tape: Tape, mentions: Tensor, span_unique, n_unique: int,
                     bound: CascadeParams, drop: DropoutState | None = None):
    """Sum mention vectors per unique candidate, then score each candidate.

    ``mentions`` holds one row per span: the aggregation net applied to the
    span's level-2 hidden state and flag. Rows are summed in span-index
    order, so permuting the mention list of a candidate cannot change its
    score; duplicating a mention does (sum, not mean, semantics).
    """
    if n_unique < 1:
        raise ContractError("aggregation needs at least one unique candidate")
    summed = ad.segment_sum(mentions, span_unique, n_unique)
    h = ffnn(summed, bound.ffnn_l3, drop)
    return h, linear(h, bound.linear_l3)


def sentence_summaries(tape: Tape, q_const: Tensor, enc: EncodedExample,
                       bound: CascadeParams, drop: DropoutState | None = None,
                       stats: ForwardStats | None = None):
    """Attend/compare once per sentence; (n_sentences, w) q_bar and g_bar rows."""
    q_projected = ffnn(q_const, bound.ffnn_att1, drop)
    q_bars, g_bars = [], []
    for s, e in enc.sentence_ranges:
        q_bar, g_bar = sentence_attention(
            tape, q_const, tape.constant(enc.doc_embed[s:e]), bound, drop,
            stats, q_projected)
        q_bars.append(q_bar)
        g_bars.append(g_bar)
    return ad.stack_rows(q_bars), ad.stack_rows(g_bars)


# Rows per span-stage chunk, which bounds the peak memory of a long
# document; a training example with at most this many spans runs as one
# chunk, drawing dropout masks level by level.
_MAX_CHUNK_ROWS = 8192


def _chunk_ranges(n: int) -> list:
    """Near-equal [lo, hi) row ranges of at most _MAX_CHUNK_ROWS rows each."""
    pieces = -(-n // _MAX_CHUNK_ROWS)
    step = -(-n // pieces)
    return [(lo, min(n, lo + step)) for lo in range(0, n, step)]


def forward_cascade(tape: Tape, bound: CascadeParams, enc: EncodedExample,
                    drop: DropoutState | None = None,
                    stats: ForwardStats | None = None) -> CascadeScores:
    """Run every active level over an encoded example on the tape.

    The span stages (level 1, level 2 and level 3's mention transform) run
    over row chunks whose results are joined in order, so level 3 sums the
    same rows in the same order whatever the chunking. Sentence attention
    runs once, after level 1 of the first chunk, so a one-chunk pass draws
    dropout masks level by level.
    """
    arch = bound.arch
    S = enc.n_spans
    if S == 0:
        raise EmptyCandidateError("example has no candidate spans")
    macs_before = tape.stats.macs
    q_const = q_tilde = None
    if arch.needs_question_nets or arch.use_level2:
        q_const = tape.constant(enc.question)
    if arch.needs_question_nets:
        q_tilde = question_vector(tape, q_const, bound, drop)

    parts = {"phi1": [], "phi2": [], "phi_comb": [], "phi3": [], "mentions": []}
    bars = None
    for lo, hi in _chunk_ranges(S):
        gamma_col = tape.constant(enc.gamma[lo:hi, None])
        s_avg = enc.span_avg[lo:hi]
        ctx = [tape.constant(enc.ctx_left[lo:hi]),
               tape.constant(enc.ctx_right[lo:hi])]
        if q_tilde is not None:
            s_q = [tape.constant(span_embeddings(s_avg, enc.gamma[lo:hi])),
                   ad.tile_rows(q_tilde, hi - lo)]
        submodels = []
        if arch.m1_active:
            submodels.append(("phi1", s_q, bound.ffnn_qs, bound.linear_qs))
        if arch.m2_active:
            submodels.append(("phi2", [tape.constant(s_avg)] + ctx,
                              bound.ffnn_c, bound.linear_c))
        if arch.combined_level1:
            submodels.append(("phi_comb", s_q + ctx, bound.ffnn_comb,
                              bound.linear_comb))
        hidden_states = []
        for level, columns, net, head in submodels:
            h, phi = level1(columns + [gamma_col], net, head, drop)
            hidden_states.append(h)
            parts[level].append(phi)
        if not arch.use_level2:
            continue
        if bars is None:
            bars = sentence_summaries(tape, q_const, enc, bound, drop, stats)
        rows = enc.span_sentence[lo:hi]
        h3, phi = level2(tape, hidden_states, ad.gather_rows(bars[0], rows),
                         ad.gather_rows(bars[1], rows), gamma_col, bound, drop)
        parts["phi3"].append(phi)
        if arch.use_level3:
            parts["mentions"].append(
                ffnn(ad.hstack([h3, gamma_col]), bound.ffnn_agg, drop))

    joined = {level: (None if not xs else xs[0] if len(xs) == 1 else ad.concat(xs))
              for level, xs in parts.items()}
    mentions = joined.pop("mentions")
    scores = CascadeScores(**joined)
    if mentions is not None:
        _, scores.phi4 = level3_aggregate(tape, mentions, enc.span_unique,
                                          enc.n_unique, bound, drop)
    if stats is not None:
        stats.macs += tape.stats.macs - macs_before
    return scores


# ---------------------------------------------------------------------------
# distributions and prediction


def distributions(scores: CascadeScores) -> dict:
    """Softmax each active level's scores into probability vectors.

    Uses the tape's softmax, so every probability vector the cascade makes
    comes from ``autodiff._softmax``.
    """
    vals = scores.values()
    out = {}
    for level, phi in ((1, vals.phi1), (2, vals.phi2), ("1c", vals.phi_comb),
                       (3, vals.phi3), (4, vals.phi4)):
        if phi is None:
            continue
        phi = np.asarray(phi)
        if phi.size == 0:
            raise EmptyCandidateError(f"level {level} has no candidates")
        out[level] = ad._softmax(phi, axis=0)
    return out


def _max_over_mentions(phi_spans: np.ndarray, span_unique: np.ndarray,
                       n_unique: int) -> np.ndarray:
    out = np.full(n_unique, -np.inf)
    np.fmax.at(out, span_unique, phi_spans)
    return out


def prediction_scores(scores: CascadeScores, enc: EncodedExample) -> np.ndarray:
    """Per-unique-candidate scores at the highest active level.

    With level 3 active this is its score directly; otherwise span-level
    scores map to unique candidates by max over mentions. If only the two
    level-1 submodels are active their scores are added first.
    """
    vals = scores.values()
    if vals.phi4 is not None:
        return np.asarray(vals.phi4)
    if vals.phi3 is not None:
        span_phi = np.asarray(vals.phi3)
    elif vals.phi_comb is not None:
        span_phi = np.asarray(vals.phi_comb)
    elif vals.phi1 is not None and vals.phi2 is not None:
        span_phi = np.asarray(vals.phi1) + np.asarray(vals.phi2)
    elif vals.phi1 is not None:
        span_phi = np.asarray(vals.phi1)
    elif vals.phi2 is not None:
        span_phi = np.asarray(vals.phi2)
    else:
        raise ContractError("no active scoring level")
    return _max_over_mentions(span_phi, enc.span_unique, enc.n_unique)


@dataclass
class Prediction:
    unique_id: int
    text: str
    score: float
    mention_count: int


def predict(scores: CascadeScores, enc: EncodedExample) -> Prediction | None:
    """Argmax unique candidate; ties break to the earliest candidate.

    Returns None when the example has no candidates (unanswerable).
    """
    if enc.n_unique == 0:
        return None
    u_scores = prediction_scores(scores, enc)
    best = int(np.argmax(u_scores))  # first maximum wins on exact ties
    return Prediction(
        unique_id=best,
        text=enc.unique_surfaces[best],
        score=float(u_scores[best]),
        mention_count=int(enc.mention_counts[best]),
    )


# ---------------------------------------------------------------------------
# inference


def score_example(params: CascadeParams, enc: EncodedExample,
                  workers: int = 1,
                  stats: ForwardStats | None = None) -> CascadeScores:
    """Inference-mode scores: ``forward_cascade`` on a non-recording tape.

    No dropout and no recorded nodes; BLAS threads are the only
    parallelism, so ``workers`` accepts 1 alone. Raises NonFiniteError on
    a non-finite score.
    """
    if workers != 1:
        raise ContractError(f"workers must be 1, got {workers}")
    tape = Tape(record=False)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        scores = forward_cascade(tape, params.bind(tape), enc,
                                 stats=stats).values()
    for phi in (scores.phi1, scores.phi2, scores.phi_comb, scores.phi3,
                scores.phi4):
        if phi is not None and not np.all(np.isfinite(phi)):
            raise NonFiniteError("non-finite score at inference")
    return scores


def make_scorer(params: CascadeParams, table: EmbeddingTable):
    """Wrap params+table into the callable the evaluator consumes."""
    arch = params.arch

    def scorer(example: QAExample) -> ScoredExample:
        cands = build_candidates(example, arch.span_limit)
        if not cands.spans:
            return ScoredExample(example.example_id, list(example.answers),
                                 [], np.zeros(0), np.zeros(0, dtype=np.intp))
        enc = encode_example(example, cands, table, arch)
        scores = score_example(params, enc)
        return ScoredExample(
            example.example_id,
            list(example.answers),
            enc.unique_surfaces,
            prediction_scores(scores, enc),
            enc.mention_counts,
        )

    return scorer


# ---------------------------------------------------------------------------
# checkpoint format
#
# magic line, 8-byte little-endian header length, JSON header, then the
# tensors' float64 little-endian bytes concatenated in header order.


def save_checkpoint(path, params: CascadeParams):
    """Write a versioned checkpoint; the write is atomic (temp + rename)."""
    named = params.named_arrays()
    header = {
        "format_version": 1,
        "arch": params.arch.to_dict(),
        "seed": params.seed,
        "tensors": [
            {"name": name, "shape": list(arr.shape)} for name, arr in named
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for _, arr in named:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> CascadeParams:
    """Read a checkpoint; raises CheckpointError on any mismatch."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a recognized checkpoint")
        header_len = int.from_bytes(fh.read(8), "little")
        # nothing is read past the end of the file, so a corrupt size
        # cannot ask for more memory than the file holds
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if header_len > remaining:
            raise CheckpointError(f"{path}: truncated header")
        remaining -= header_len
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt header: {exc}") from None
        version = header.get("format_version") if isinstance(header, dict) else None
        if version != 1:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        try:
            arch = Architecture(**header["arch"])
            seed = int(header["seed"])
            specs = [(str(spec["name"]), tuple(spec["shape"]))
                     for spec in header["tensors"]]
        except (KeyError, TypeError, ValueError, OverflowError,
                ContractError) as exc:
            raise CheckpointError(
                f"{path}: bad header ({type(exc).__name__}: {exc})") from None
        arrays = {}
        for name, shape in specs:
            if not all(type(d) is int and d >= 0 for d in shape):
                raise CheckpointError(
                    f"{path}: tensor {name!r} has shape {list(shape)}; "
                    "dimensions must be non-negative integers")
            nbytes = 8 * math.prod(shape)
            if nbytes > remaining:
                raise CheckpointError(f"{path}: truncated tensor {name!r}")
            remaining -= nbytes
            if name in arrays:
                raise CheckpointError(f"{path}: tensor {name!r} is listed twice")
            raw = fh.read(nbytes)
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if not np.all(np.isfinite(arrays[name])):
                raise CheckpointError(
                    f"{path}: tensor {name!r} holds non-finite values")
        if remaining:
            raise CheckpointError(f"{path}: trailing bytes after tensors")
    try:
        return CascadeParams.from_arrays(arch, seed, arrays)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
