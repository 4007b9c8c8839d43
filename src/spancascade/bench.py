"""Throughput benchmark: cascade inference vs a sequential biLSTM baseline.

The baseline is a forward-only 50-state bidirectional LSTM with two linear
position heads. Its gates are fused: the input projections of all tokens
are one product, then each step does one recurrent product. That token
loop is inherently sequential per direction, so no amount of parallel
hardware can help it. The cascade side is
``score_example``, whose span and sentence stages are batched matrix work;
the calling thread and a one-thread pool score the two halves of each large
chunk at once. Timings use medians over repetitions with a discarded warmup
run; multiply-accumulate counts are deterministic. The cascade's peak
memory is the ``tracemalloc`` peak (numpy reports its arrays to it) of one
untimed pass.
"""

from __future__ import annotations

import csv
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from .corpus import QAExample, tokenize
from .embeddings import random_table
from .errors import ContractError, UsageError
from .model import (
    Architecture,
    CascadeParams,
    ForwardStats,
    prepare_example,
    score_example,
)

BASELINE_STATE_SIZE = 50


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class LstmDirection:
    """Fused gate weights of one direction; rows are the input, forget,
    output and cell gates' blocks of ``state_size`` rows each."""

    W: np.ndarray  # (4 s, e)
    U: np.ndarray  # (4 s, s)
    b: np.ndarray  # (4 s,)

    @classmethod
    def initialize(cls, embed_dim: int, state_size: int,
                   rng: np.random.Generator) -> "LstmDirection":
        rw = np.sqrt(6.0 / (embed_dim + state_size))
        ru = np.sqrt(6.0 / (2 * state_size))
        gates = [(rng.uniform(-rw, rw, size=(state_size, embed_dim)),
                  rng.uniform(-ru, ru, size=(state_size, state_size)))
                 for _ in range(4)]
        W, U = (np.concatenate(blocks) for blocks in zip(*gates))
        return cls(W, U, np.zeros(4 * state_size))


@dataclass
class BiLstmParams:
    """Both directions plus the two linear position heads."""

    forward: LstmDirection
    backward: LstmDirection
    start_head: np.ndarray
    end_head: np.ndarray

    @property
    def state_size(self) -> int:
        return self.forward.U.shape[1]

    @classmethod
    def initialize(cls, embed_dim: int, state_size: int = BASELINE_STATE_SIZE,
                   seed: int = 0) -> "BiLstmParams":
        rng = np.random.default_rng(seed)
        r = np.sqrt(6.0 / (2 * state_size + 1))
        return cls(
            forward=LstmDirection.initialize(embed_dim, state_size, rng),
            backward=LstmDirection.initialize(embed_dim, state_size, rng),
            start_head=rng.uniform(-r, r, size=2 * state_size),
            end_head=rng.uniform(-r, r, size=2 * state_size),
        )


def _run_direction(X: np.ndarray, d: LstmDirection, reverse: bool) -> np.ndarray:
    n = X.shape[0]
    s = d.U.shape[1]
    inputs = X @ d.W.T + d.b  # every token's input projection, one product
    states = np.zeros((n, s))
    h = np.zeros(s)
    c = np.zeros(s)
    order = range(n - 1, -1, -1) if reverse else range(n)
    for t in order:
        z = inputs[t] + d.U @ h
        ifo = _sigmoid(z[:3 * s])
        c = ifo[s:2 * s] * c + ifo[:s] * np.tanh(z[3 * s:])
        h = ifo[2 * s:] * np.tanh(c)
        states[t] = h
    return states


def bilstm_forward(X: np.ndarray, params: BiLstmParams) -> np.ndarray:
    """Hidden states (n, 2 * state_size): forward then backward direction.

    Each direction is a strictly sequential token loop; row t carries the
    forward state after reading tokens 0..t and the backward state after
    reading tokens n-1..t.
    """
    if X.ndim != 2 or X.shape[0] < 1:
        raise ContractError(f"expected a non-empty (n, d) sequence, got {X.shape}")
    fwd = _run_direction(X, params.forward, reverse=False)
    bwd = _run_direction(X, params.backward, reverse=True)
    return np.concatenate([fwd, bwd], axis=1)


def baseline_position_scores(X: np.ndarray, params: BiLstmParams):
    """Full baseline pass: recurrence plus the start/end linear heads."""
    hidden = bilstm_forward(X, params)
    return hidden @ params.start_head, hidden @ params.end_head


def baseline_macs(n: int, embed_dim: int, state_size: int) -> int:
    per_step = 4 * (state_size * embed_dim + state_size * state_size)
    return 2 * n * per_step + 2 * n * 2 * state_size


# ---------------------------------------------------------------------------
# synthetic documents


_BENCH_VOCAB_SIZE = 400


def synthetic_example(n_tokens: int, sentence_len: int = 20,
                      question_len: int = 12, seed: int = 0) -> QAExample:
    """Random-token document of a given length with sentence structure."""
    if n_tokens < 1:
        raise ContractError(f"n_tokens must be >= 1, got {n_tokens}")
    rng = np.random.default_rng((seed, n_tokens))
    words = [f"w{i}" for i in range(_BENCH_VOCAB_SIZE)]
    chunks = []
    made = 0
    while made < n_tokens:
        take = max(0, min(sentence_len - 1, n_tokens - made - 1))
        sent = [words[i] for i in rng.integers(0, _BENCH_VOCAB_SIZE, take)]
        made += take + 1  # the terminator token counts too
        chunks.append(" ".join(sent) + " .")
    doc = tokenize(" ".join(chunks))
    question = [words[i] for i in rng.integers(0, _BENCH_VOCAB_SIZE, question_len)]
    answer = words[int(rng.integers(0, _BENCH_VOCAB_SIZE))]
    return QAExample(f"bench-{n_tokens}", question, [doc], [answer])


def bench_vocabulary():
    return [f"w{i}" for i in range(_BENCH_VOCAB_SIZE)] + ["."]


@dataclass
class BenchRow:
    n: int
    cascade_ms: float
    baseline_ms: float
    speedup: float
    cascade_macs: int
    baseline_macs: int
    cascade_peak_mb: float


@dataclass
class BenchResult:
    rows: list = field(default_factory=list)
    reps: int = 0

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "cascade_ms", "baseline_ms", "speedup",
                             "cascade_peak_mb"])
            for r in self.rows:
                writer.writerow([r.n, f"{r.cascade_ms:.3f}",
                                 f"{r.baseline_ms:.3f}", f"{r.speedup:.3f}",
                                 f"{r.cascade_peak_mb:.1f}"])


def _peak_mb(fn) -> float:
    """Peak MB (2**20 bytes) that tracemalloc sees while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _median_time(fn, reps: int) -> float:
    fn()  # warmup, discarded
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def run_benchmark(lengths, reps: int = 5,
                  embed_dim: int = 16, hidden_width: int = 32,
                  state_size: int = BASELINE_STATE_SIZE,
                  seed: int = 0, log=None) -> BenchResult:
    """Median wall times and speedup ratios over synthetic documents.

    ``lengths`` must be sorted ascending. The cascade runs the inference
    pass; the baseline runs its sequential token loop. Speedup is baseline
    time / cascade time; absolute ratios depend on hardware and are
    reported, not asserted. The MAC count and peak memory come from one
    extra cascade pass outside the timed ones.
    """
    lengths = [int(n) for n in lengths]
    if not lengths:
        raise UsageError("no document lengths given")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise UsageError("lengths must be sorted strictly ascending")
    if reps < 1:
        raise UsageError(f"reps must be >= 1, got {reps}")
    arch = Architecture(embed_dim=embed_dim, hidden_width=hidden_width)
    params = CascadeParams.initialize(arch, seed)
    table = random_table(bench_vocabulary(), embed_dim, seed)
    baseline = BiLstmParams.initialize(embed_dim, state_size, seed)
    result = BenchResult(reps=reps)
    for n in lengths:
        example = synthetic_example(n, seed=seed)
        enc = prepare_example(example, table, arch)
        stats = ForwardStats()
        peak_mb = _peak_mb(lambda: score_example(params, enc, stats=stats))
        cascade_s = _median_time(lambda: score_example(params, enc), reps)
        X = enc.doc_embed
        baseline_s = _median_time(
            lambda: baseline_position_scores(X, baseline), reps)
        row = BenchRow(
            n=n,
            cascade_ms=cascade_s * 1000.0,
            baseline_ms=baseline_s * 1000.0,
            speedup=baseline_s / cascade_s,
            cascade_macs=stats.macs,
            baseline_macs=baseline_macs(X.shape[0], embed_dim, state_size),
            cascade_peak_mb=peak_mb,
        )
        result.rows.append(row)
        if log is not None:
            log(f"n={row.n} "
                f"cascade={row.cascade_ms:.1f}ms baseline={row.baseline_ms:.1f}ms "
                f"speedup={row.speedup:.2f}x peak={row.cascade_peak_mb:.1f}MB")
    return result
