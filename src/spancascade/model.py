"""The four-submodel span-scoring cascade and its candidate distributions.

Level 1 scores each candidate span from bags of embeddings: one submodel
pairs the span with a learned weighted summary of the question, the other
pairs it with averaged K-token left/right contexts. Level 2 aligns the
question with the span's sentence by attend/compare attention, computed
for every sentence (and shared by the spans in it) in one batched pass per
group of whole sentences, and rescores using the level-1 hidden states.
Level 3 passes each mention's level-2 hidden state through a transform,
sums the results over all mentions of the same unique candidate, and
produces the score used for prediction.

One forward pass, ``forward_cascade``, serves both uses: training runs it
on a recording tape, inference (``score_example``) on a non-recording one.
Span stages, sentence groups and level 3 run over chunks of bounded rows,
so the working set is the O(n e) prefix sums, the O(U w) level-3 sums,
O(S) indices and scores, and a few chunks' features and activations.
Inference holds OpenBLAS to one thread (``blas.one_thread``) and splits
each large span chunk, sentence group or level-3 chunk into two fixed
halves: the calling thread scores the first while a one-thread pool scores
the second; training runs its chunks serially on BLAS's threads.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import os
import tempfile
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import blas
from .autodiff import (
    DropoutState,
    FfnnParams,
    LinearParams,
    Tape,
    Tensor,
    ffnn,
    linear,
)
from .corpus import DEFAULT_SPAN_LIMIT, CandidateSet, QAExample, build_candidates
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


# wiring name -> the levels it runs, in LEVELS order; every wiring has one
# level at its highest stage, whose scores give the answer
WIRINGS = {
    "full": ("phi1", "phi2", "phi3", "phi4"),
    "combined_level1": ("phi_comb", "phi3", "phi4"),
    "level12_only": ("phi1", "phi2", "phi3"),
    "level1_qs_only": ("phi1",),
    "level1_sc_only": ("phi2",),
}


@dataclass(frozen=True)
class Architecture:
    """Dimensions of the cascade and its wiring, a key of ``WIRINGS``."""

    embed_dim: int
    hidden_width: int = 300
    span_limit: int = DEFAULT_SPAN_LIMIT
    context_size: int = 1
    wiring: str = "full"

    def __post_init__(self):
        for name in ("embed_dim", "hidden_width", "span_limit",
                     "context_size"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:  # a bool is not an int
                raise ContractError(
                    f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.wiring, str) or self.wiring not in WIRINGS:
            raise ContractError(f"unknown wiring {self.wiring!r}; valid "
                                f"names: {', '.join(WIRINGS)}")

    @property
    def levels(self) -> list:
        """The rows of ``LEVELS`` this wiring runs, in table order."""
        names = WIRINGS[self.wiring]
        return [level for level in LEVELS if level.name in names]

    @property
    def needs_question_nets(self) -> bool:
        return any("question" in level.reads for level in self.levels)

    @property
    def level2_in_dim(self) -> int:
        w = self.hidden_width
        n_hidden = sum(level.stage == 1 for level in self.levels)
        return n_hidden * w + 2 * w + 1

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class ForwardStats:
    """Counters one forward pass adds to; counting never changes a score."""

    attention_calls: int = 0
    macs: int = 0


Level = namedtuple("Level", "name stage slot net reads", defaults=((),))


def _level(*row):
    return field(default=None, metadata={"row": row})


@dataclass
class CascadeScores:
    """Scores per level; its fields are the one table of scoring levels.

    A field's ``Level`` row gives its stage (1 and 2 score spans, 3 unique
    candidates), its LossWeights slot (no wiring runs both slot-0 levels),
    its submodel ``ffnn_<net>``/``linear_<net>`` and, at stage 1, the
    feature blocks it reads; ``WIRINGS`` lists the levels each wiring runs.
    Levels run and enter the loss in field order. Entries are tape Tensors
    in training, arrays at inference, None if inactive.
    """

    phi1: object = _level(1, 0, "qs", ("question",))
    phi2: object = _level(1, 1, "c", ("context",))
    phi_comb: object = _level(1, 0, "comb", ("question", "context"))
    phi3: object = _level(2, 2, "l2")
    phi4: object = _level(3, 3, "l3")

    def values(self) -> "CascadeScores":
        return CascadeScores(**{level: x.value if isinstance(x, Tensor) else x
                                for level, x in vars(self).items()})

    def active(self) -> list:
        """(Level, scores) pairs of the levels that hold scores."""
        return [(level, getattr(self, level.name)) for level in LEVELS
                if getattr(self, level.name) is not None]


LEVELS = tuple(Level(f.name, *f.metadata["row"]) for f in fields(CascadeScores))


# ---------------------------------------------------------------------------
# parameters


@dataclass
class CascadeParams:
    """All trainable weights: ``nets`` maps each active submodel's name to
    its FfnnParams/LinearParams, nets then heads, each in _submodel_dims
    order (the checkpoint and tape-variable order)."""

    arch: Architecture
    seed: int
    nets: dict

    def __post_init__(self):
        # a stable sort: nets, then heads, each keeping its given order
        self.nets = dict(sorted(self.nets.items(),
                                key=lambda item: item[0].startswith("linear")))

    @classmethod
    def _submodel_dims(cls, arch: Architecture) -> dict:
        """The one list of submodels: the active ``ffnn_*`` nets and
        ``linear_*`` heads with their input dims, in initialization order."""
        e, w = arch.embed_dim, arch.hidden_width
        widths = {"question": e + 1, "context": 2 * e}  # see forward_cascade
        dims = {}
        if arch.needs_question_nets:
            dims["ffnn_q"], dims["linear_q"] = e, w
        for level in arch.levels:
            if level.stage == 1:  # span average, blocks, gamma
                in_dim = e + sum(widths[block] for block in level.reads) + 1
            elif level.stage == 2:
                dims["ffnn_att1"], dims["ffnn_att2"] = e, 2 * e
                in_dim = arch.level2_in_dim
            else:
                dims["ffnn_agg"] = w + 1
                in_dim = w
            dims["ffnn_" + level.net], dims["linear_" + level.net] = in_dim, w
        return dims

    @classmethod
    def initialize(cls, arch: Architecture, seed: int) -> "CascadeParams":
        """Seeded scaled-uniform init over the active submodels."""
        if seed < 0:
            raise ContractError(f"parameter seed must be >= 0, got {seed}")
        rng = np.random.default_rng(seed)
        w = arch.hidden_width
        return cls(arch, int(seed), {
            name: FfnnParams.initialize(in_dim, w, rng) if name.startswith("ffnn")
            else LinearParams.initialize(in_dim, rng)
            for name, in_dim in cls._submodel_dims(arch).items()})

    def named_arrays(self) -> list:
        """(name, array) pairs in a fixed order; the flat parameter view."""
        return [(f"{name}.{part}", array) for name, net in self.nets.items()
                for part, array in vars(net).items()]

    def as_dict(self) -> dict:
        return dict(self.named_arrays())

    def bind(self, tape: Tape) -> "CascadeParams":
        """Register every array as a named tape variable; returns the bound view."""
        return CascadeParams(self.arch, self.seed, {
            name: type(net)(*[tape.variable(array, f"{name}.{part}")
                              for part, array in vars(net).items()])
            for name, net in self.nets.items()})

    @classmethod
    def from_arrays(cls, arch: Architecture, seed: int, arrays: dict) -> "CascadeParams":
        """Rebuild from a {name: array} mapping (checkpoint load).

        The mapping must hold exactly the architecture's tensors, each with
        the shape it implies; the arrays are used as given, not copied.
        """
        nets = {}
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
            nets[name] = kind(*values)
        p = cls(arch, int(seed), nets)
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
    csums: np.ndarray           # (n + documents, e) per-document prefix sums
    span_rows: np.ndarray       # (S, 4) csums rows: lo, start, end, hi
    context_size: int
    n_unique: int
    gold_spans: np.ndarray      # indices into the span list
    gold_uniques: np.ndarray    # indices into the unique list
    unique_surfaces: list
    mention_counts: np.ndarray

    @property
    def n_spans(self) -> int:
        return len(self.span_sentence)

    def span_features(self, lo: int, hi: int) -> tuple:
        """Span rows [lo, hi) as (span average, left context, right context),
        each (hi - lo, e), built from the prefix sums."""
        c, K = self.csums, self.context_size
        left, start, end, right = self.span_rows[lo:hi].T
        return ((c[end] - c[start]) / (end - start)[:, None],
                (c[start] - c[left]) / K, (c[right] - c[end]) / K)


def encode_example(example: QAExample, cands: CandidateSet,
                   table: EmbeddingTable, arch: Architecture) -> EncodedExample:
    """Precompute every parameter-free feature of an example.

    Context windows never cross document boundaries; positions outside a
    document contribute zero vectors (the sum is always divided by K).
    Span features are kept as prefix-sum rows and built per chunk.
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
    mention_counts = np.zeros(len(cands.surfaces), dtype=np.intp)
    np.add.at(mention_counts, spans.unique, 1)
    return EncodedExample(
        example_id=example.example_id,
        question=q_embed,
        doc_embed=np.concatenate(mats or [np.zeros((0, arch.embed_dim))]),
        sentence_ranges=sentence_ranges,
        span_sentence=(np.cumsum(n_sents) - n_sents)[spans.doc] + spans.sentence,
        span_unique=spans.unique,
        gamma=cands.gamma,
        csums=csums,
        span_rows=np.stack([
            base + np.maximum(0, spans.start - K), start, end,
            base + np.minimum(sizes[spans.doc], spans.start + spans.length + K)],
            axis=1),
        context_size=K,
        n_unique=len(cands.surfaces),
        gold_spans=np.flatnonzero(np.isin(spans.unique, cands.gold_unique_ids)),
        gold_uniques=cands.gold_unique_ids,
        unique_surfaces=cands.surfaces,
        mention_counts=mention_counts,
    )


# ---------------------------------------------------------------------------
# tape forward (training path)


def question_vector(q: Tensor, bound: CascadeParams,
                    drop: DropoutState | None = None) -> Tensor:
    """Softmax-weighted question summary with learned per-token weights."""
    if q.value.shape[0] < 1:
        raise ContractError("question must have at least one token")
    h = ffnn(q, bound.nets["ffnn_q"], drop)
    delta = linear(h, bound.nets["linear_q"])
    return ad.matmul(ad.softmax(delta), q)


def submodel(columns: list, net: FfnnParams, head: LinearParams,
             drop: DropoutState | None = None):
    """One scoring submodel over column blocks of span features; returns
    hidden states and scores for every row."""
    h = ffnn(ad.hstack(columns), net, drop)
    return h, linear(h, head)


def level3_aggregate(summed: Tensor, bound: CascadeParams,
                     drop: DropoutState | None = None, pool=None):
    """Score each unique candidate from the sum of its mention vectors.

    ``summed`` holds one row per unique, scored in row pieces (see
    ``_pieces``); the rows are sums, not means, so a duplicated mention
    changes its unique's score.
    """
    n_unique = summed.value.shape[0]
    if n_unique < 1:
        raise ContractError("aggregation needs at least one unique candidate")

    def score_rows(tape, own, lo, hi):
        rows = _on(tape, summed)
        if hi - lo < n_unique:
            rows = ad.gather(rows, np.arange(lo, hi))
        return linear(ffnn(rows, own.nets["ffnn_l3"], drop),
                      own.nets["linear_l3"])

    phis = [_on(summed.tape, phi) for _, _, phi in
            _pieces(summed.tape, bound, _chunk_ranges(n_unique),
                    range(n_unique + 1), score_rows, pool)]
    return phis[0] if len(phis) == 1 else ad.concat(phis)


def _attention_masks(drop: DropoutState | None, sizes: list, m: int, w: int):
    """Mask pairs for a group's ffnn_att1 and its two ffnn_att2 calls: each
    sentence's six masks, drawn as a pass over that sentence alone would."""
    if drop is None or not drop.active:
        return None, None, None
    drawn = [[ad.dropout_mask(drop, (rows, w)) for rows in (G, G, m, m, G, G)]
             for G in sizes]
    joined = [np.concatenate(masks) for masks in zip(*drawn)]
    return list(zip(joined[::2], joined[1::2]))


def sentence_summaries(tape: Tape, q: Tensor, enc: EncodedExample,
                       bound: CascadeParams, drop: DropoutState | None = None,
                       stats: ForwardStats | None = None, pool=None):
    """Attend/compare of the question with each sentence: (n_sentences, w)
    q_bar and g_bar rows, from one pass per group of whole sentences (at
    most _MAX_CHUNK_ROWS tokens, or one longer sentence). The groups are
    ``_pieces`` chunks over sentences, weighed by their tokens, so on a pool
    a large group's two halves run at once; the question is projected once,
    here. Segment ops keep each sentence's alignments and sums to its own
    tokens."""
    sizes = [e - s for s, e in enc.sentence_ranges]
    firsts, tokens = [], 0
    for i, size in enumerate(sizes):
        if not firsts or tokens + size > _MAX_CHUNK_ROWS:
            firsts, tokens = firsts + [i], 0
        tokens += size
    groups = list(zip(firsts, firsts[1:] + [len(sizes)]))
    m, w = q.value.shape[0], bound.arch.hidden_width
    q_projected = ffnn(q, bound.nets["ffnn_att1"], drop)
    if stats is not None:
        stats.attention_calls += len(sizes)

    def attend(own_tape, own, lo, hi):
        n, group_sizes = hi - lo, sizes[lo:hi]
        starts = np.cumsum(group_sizes) - group_sizes
        project, compare = own.nets["ffnn_att1"], own.nets["ffnn_att2"]
        att1, att2_q, att2_g = _attention_masks(drop, group_sizes, m, w)
        ranges = enc.sentence_ranges  # sentences tile the tokens, so one slice
        g = own_tape.constant(enc.doc_embed[ranges[lo][0]:ranges[hi - 1][1]])
        g_projected = ffnn(g, project, masks=att1)
        eta = ad.matmul(_on(own_tape, q_projected),
                        ad.transpose(g_projected))  # (m, N)
        q_att = ad.segment_matmul(ad.segment_softmax(eta, starts), g, starts)
        g_att = ad.matmul(ad.transpose(ad.softmax(eta, axis=0)),
                          _on(own_tape, q))  # (N, e)
        q_rows = ad.hstack([own_tape.constant(np.tile(q.value, (n, 1))), q_att])
        q_cmp = ffnn(q_rows, compare, masks=att2_q)  # (n * m, w)
        g_cmp = ffnn(ad.hstack([g, g_att]), compare, masks=att2_g)
        return (ad.segment_sum(q_cmp, np.repeat(np.arange(n), m), n),
                ad.segment_sum(g_cmp, np.repeat(np.arange(n), group_sizes), n))

    offsets = list(itertools.accumulate(sizes, initial=0))
    bars = [(_on(tape, q_bar), _on(tape, g_bar)) for _, _, (q_bar, g_bar) in
            _pieces(tape, bound, groups, offsets, attend, pool)]
    return tuple(ad.concat(list(column)) for column in zip(*bars))


# Rows per span-stage or level-3 chunk and tokens per sentence group: it
# bounds a long document's activations to one chunk's (at inference, to the
# pieces in flight; see _pieces); a training example with at most this many
# spans runs as one chunk, drawing masks level by level.
_MAX_CHUNK_ROWS = 2048


def _chunk_ranges(n: int) -> list:
    """Near-equal [lo, hi) row ranges of at most _MAX_CHUNK_ROWS rows each."""
    pieces = -(-n // _MAX_CHUNK_ROWS)
    step = -(-n // pieces)
    return [(lo, min(n, lo + step)) for lo in range(0, n, step)]


def _on(tape: Tape, x: Tensor) -> Tensor:
    """``x`` itself, or its value as a constant of ``tape`` if it lives on
    another (non-recording) tape."""
    return x if x.tape is tape else tape.constant(x.value)


# A chunk is split for the pool only when its rows (or tokens) times
# w * (e + w), a stand-in for its MACs per row, reach this (at e = w = 100,
# 800 rows). On 2 cores at e, w <= 50, two threads ran slower than one even
# on 10k-span examples: their time goes to numpy calls that hold the
# interpreter lock.
_POOL_MIN_WORK = 16_000_000


def _pieces(tape: Tape, bound: CascadeParams, chunks: list, offsets, work,
            pool=None):
    """Yield (lo, hi, work(piece_tape, piece_bound, lo, hi)) over pieces
    that tile the [lo, hi) ``chunks``, in order; ``offsets[i]`` counts the
    rows (or tokens) before item i.

    A chunk runs whole on ``tape`` itself unless the tape does not record,
    ``pool`` (an executor) is given, the chunk holds two items or more and
    its rows reach _POOL_MIN_WORK: then it splits, at the first item
    boundary at or past the middle of its rows. The calling thread scores
    the first half on ``tape``; the pool scores the second on a
    non-recording tape of its own, whose MACs ``tape`` then counts. When a
    split chunk starts, the second half of the next one is submitted, so
    the pool does not wait while the caller uses the pieces it was given.
    The pieces depend on the input's shape alone, not on the pool's size.
    When the generator is closed or a piece raises, a queued half is
    cancelled and a running one waited for, so none outlives the caller's
    hold on BLAS. ``work`` must not submit to the pool: with the pool
    thread waiting on its own submission, the pool would deadlock.
    """
    arch = bound.arch
    row_work = arch.hidden_width * (arch.embed_dim + arch.hidden_width)
    plan = []  # (lo, mid, hi): the caller scores [lo, mid), the pool the rest
    for lo, hi in chunks:
        mid = hi
        if (pool is not None and not tape.record and hi - lo >= 2 and (
                offsets[hi] - offsets[lo]) * row_work >= _POOL_MIN_WORK):
            mid = bisect.bisect_left(offsets, (offsets[lo] + offsets[hi]) / 2,
                                     lo + 1, hi - 1)
        plan.append((lo, mid, hi))
    errors = np.geterr()  # numpy's error state is per thread

    def run(lo, hi):
        own = Tape(record=False)
        with np.errstate(**errors):
            return own, work(own, _rebind(bound, own), lo, hi)

    # each step of this submits the next split chunk's second half
    halves = (pool.submit(run, mid, hi) for _, mid, hi in plan if mid < hi)
    taken, ahead = None, next(halves, None)
    try:
        for lo, mid, hi in plan:
            if mid < hi:
                taken, ahead = ahead, next(halves, None)
            yield lo, mid, work(tape, bound, lo, mid)
            if mid < hi:
                own, out = taken.result()
                tape.stats.macs += own.stats.macs
                yield mid, hi, out
    finally:  # an error or an early close leaves halves submitted
        futures = [future for future in (taken, ahead) if future]
        for future in futures:
            future.cancel()
        wait(futures)


def _rebind(bound: CascadeParams, tape: Tape) -> CascadeParams:
    """``bound``'s parameter values as constants of a non-recording tape."""
    return CascadeParams(bound.arch, bound.seed, {
        name: type(net)(*[tape.constant(x.value) for x in vars(net).values()])
        for name, net in bound.nets.items()})


def forward_cascade(tape: Tape, bound: CascadeParams, enc: EncodedExample,
                    drop: DropoutState | None = None,
                    stats: ForwardStats | None = None,
                    pool=None) -> CascadeScores:
    """Run every active level over an encoded example on the tape.

    The span stages (level 1, level 2 and level 3's mention transform) run
    over the row pieces of ``_pieces``, as do sentence attention's groups
    and level 3's uniques; on a non-recording tape, ``pool`` runs the second
    half of each large chunk while the calling thread runs the first. Each
    stage waits for the one before it. The calling thread adds each piece's
    mention rows into one running sum per unique, in span order, so level 3
    gets the same bits whatever the pieces; permuting a unique's mentions
    only reorders its sum. On a recording tape sentence attention runs
    once, after level 1 of the first chunk, so a one-chunk pass draws
    dropout masks level by level; a non-recording one runs it before the
    span pieces.
    """
    arch = bound.arch
    S = enc.n_spans
    if S == 0:
        raise EmptyCandidateError("example has no candidate spans")
    macs_before = tape.stats.macs
    q_const = q_tilde = None
    if arch.needs_question_nets:  # true of every wiring with level 2
        q_const = tape.constant(enc.question)
        q_tilde = question_vector(q_const, bound, drop)
    bars = None

    def summaries():
        nonlocal bars
        bars = bars or sentence_summaries(tape, q_const, enc, bound, drop,
                                          stats, pool)
        return bars

    if not tape.record and any(level.stage == 2 for level in arch.levels):
        summaries()

    def span_stages(own_tape, own, lo, hi):
        """Each span level's scores over rows [lo, hi), and level 3's
        mention rows (None without level 3)."""
        gamma_col = own_tape.constant(enc.gamma[lo:hi, None])
        s_avg, *ctx = [own_tape.constant(x) for x in enc.span_features(lo, hi)]
        # stage 1 reads [s_avg, its blocks, gamma]; stage 2 reads the
        # stage-1 hidden states, then [q_bar, g_bar, gamma] of the sentence
        blocks = {"context": ctx}
        if q_tilde is not None:
            blocks["question"] = [gamma_col,
                                  ad.tile_rows(_on(own_tape, q_tilde), hi - lo)]
        hidden_states, phis, mentions = [], {}, None
        for level in arch.levels:
            if level.stage == 1:
                columns = sum((blocks[b] for b in level.reads), [s_avg])
            elif level.stage == 2:
                rows = enc.span_sentence[lo:hi]
                columns = hidden_states + [ad.gather(_on(own_tape, bar), rows)
                                           for bar in summaries()]
            else:
                mentions = ffnn(ad.hstack([hidden_states[-1], gamma_col]),
                                own.nets["ffnn_agg"], drop)
                continue
            h, phis[level.name] = submodel(columns + [gamma_col],
                                           own.nets["ffnn_" + level.net],
                                           own.nets["linear_" + level.net],
                                           drop)
            hidden_states.append(h)
        return phis, mentions

    parts = {level.name: [] for level in arch.levels}
    summed = None
    for lo, hi, (phis, mentions) in _pieces(tape, bound, _chunk_ranges(S),
                                            range(S + 1), span_stages, pool):
        for name, phi in phis.items():
            parts[name].append(_on(tape, phi))
        if mentions is not None:
            summed = ad.segment_sum(_on(tape, mentions), enc.span_unique[lo:hi],
                                    enc.n_unique, into=summed)

    scores = CascadeScores()
    for level in arch.levels:
        xs = ([level3_aggregate(summed, bound, drop, pool)] if level.stage == 3
              else parts[level.name])
        setattr(scores, level.name, xs[0] if len(xs) == 1 else ad.concat(xs))
    if stats is not None:
        stats.macs += tape.stats.macs - macs_before
    return scores


# ---------------------------------------------------------------------------
# distributions and prediction


def distributions(scores: CascadeScores) -> dict:
    """Softmax (``autodiff._softmax``) of each active level's scores; keyed
    by level name."""
    out = {}
    for level, phi in scores.values().active():
        phi = np.asarray(phi)
        if phi.size == 0:
            raise EmptyCandidateError(f"level {level.name} has no candidates")
        out[level.name] = ad._softmax(phi, axis=0)
    return out


def prediction_scores(scores: CascadeScores, enc: EncodedExample) -> np.ndarray:
    """Per-unique-candidate scores from the highest active level (the
    last in table order); span scores at stages 1-2 map to unique
    candidates by max over mentions.
    """
    active = scores.values().active()
    if not active:
        raise ContractError("no active scoring level")
    level, phi = active[-1]
    phi = np.asarray(phi)
    if level.stage == 3:
        return phi
    out = np.full(enc.n_unique, -np.inf)
    np.fmax.at(out, enc.span_unique, phi)
    return out


@dataclass
class Prediction:
    unique_id: int
    text: str
    score: float
    mention_count: int


def predict(scores: CascadeScores, enc: EncodedExample) -> Prediction | None:
    """Argmax unique candidate; ties break to the earliest candidate.

    Returns None without candidates. Answers come from ``rank_candidates``;
    the benchmark's training replica checks each ``train_em`` against this.
    """
    if enc.n_unique == 0:
        return None
    u_scores = prediction_scores(scores, enc)
    best = int(np.argmax(u_scores))  # first maximum wins on exact ties
    return Prediction(best, enc.unique_surfaces[best], float(u_scores[best]),
                      int(enc.mention_counts[best]))


# ---------------------------------------------------------------------------
# inference


# process id -> the one-thread pool of score_example; keyed by process so
# that a forked child, which inherits no threads, starts a pool of its own
_POOLS = {}


def _inference_pool() -> ThreadPoolExecutor:
    pool = _POOLS.get(os.getpid())
    return pool or _POOLS.setdefault(os.getpid(), ThreadPoolExecutor(1))


def score_example(params: CascadeParams, enc: EncodedExample,
                  workers: int = 1,
                  stats: ForwardStats | None = None) -> CascadeScores:
    """Inference-mode scores: ``forward_cascade`` on a non-recording tape.

    No dropout and no recorded nodes. For the length of the call OpenBLAS
    is held to one thread (``blas.one_thread``), and each chunk or sentence
    group that reaches _POOL_MIN_WORK splits in two halves: the calling
    thread scores the first, a one-thread pool the second (see
    ``_pieces``). Which chunks split depends on the input's shape alone,
    so the bits depend on neither the pool nor the BLAS thread count.
    Without the OpenBLAS thread-count symbol every chunk runs whole and
    serially on BLAS's own threads. ``workers`` accepts 1 alone. Raises
    NonFiniteError on a non-finite score.
    """
    if workers != 1:
        raise ContractError(f"workers must be 1, got {workers}")
    tape = Tape(record=False)
    with (blas.one_thread() as pinned,
          np.errstate(over="ignore", invalid="ignore")):  # reported below
        pool = _inference_pool() if pinned else None
        scores = forward_cascade(tape, params.bind(tape), enc, stats=stats,
                                 pool=pool).values()
    if not all(np.all(np.isfinite(phi)) for _, phi in scores.active()):
        raise NonFiniteError("non-finite score at inference")
    return scores


def scored_example(params: CascadeParams, example: QAExample,
                   enc: EncodedExample | None) -> ScoredExample:
    """The evaluator's result for an encoded example, with the gold ids
    that candidate building marked; ``enc`` is None without candidates."""
    if enc is None:
        return ScoredExample(example.example_id, list(example.answers), [],
                             np.zeros(0), np.zeros(0, dtype=np.intp), [])
    return ScoredExample(example.example_id, list(example.answers),
                         enc.unique_surfaces,
                         prediction_scores(score_example(params, enc), enc),
                         enc.mention_counts, enc.gold_uniques.tolist())


def prepare_example(example: QAExample, table: EmbeddingTable,
                    arch: Architecture) -> EncodedExample | None:
    """Build candidates and encode them; None for an example without any."""
    cands = build_candidates(example, arch.span_limit)
    return encode_example(example, cands, table, arch) if cands.spans else None


def make_scorer(params: CascadeParams, table: EmbeddingTable):
    """Wrap params+table into the callable the evaluator consumes."""
    arch = params.arch

    def scorer(example: QAExample) -> ScoredExample:
        return scored_example(params, example,
                              prepare_example(example, table, arch))

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
        "format_version": 2,
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
        if version != 2:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        try:
            arch = Architecture(**header["arch"])
            seed = header["seed"]
            if type(seed) is not int or seed < 0:
                raise ValueError(f"seed must be a non-negative integer, "
                                 f"got {seed!r}")
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
