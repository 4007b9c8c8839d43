"""Training: interpolated multi-level loss, Adagrad, ablation wiring.

The objective is the negative log likelihood of the gold candidates summed
over the active levels, each weighted by a nonnegative coefficient; the
coefficients sum to 1. Gold sets come from distant supervision, so a level
term is -log of the total probability mass its distribution assigns to all
gold mentions (gold unique candidates for the aggregation level).
Optimization is plain Adagrad with one example per step; examples whose
alias set matches no candidate span are skipped (their loss is undefined)
but kept for evaluation.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import corpus
from .autodiff import DropoutState, Tape
from .errors import (
    ContractError,
    NoTrainableDataError,
    NonFiniteError,
    UsageError,
    open_text,
)
from .evaluation import evaluate
from .model import (
    LEVELS,
    Architecture,
    CascadeParams,
    CascadeScores,
    forward_cascade,
    prepare_example,
    save_checkpoint,
    scored_example,
)


@dataclass(frozen=True)
class LossWeights:
    """Loss coefficients per ``model.LEVELS`` slot; nonnegative, sum 1 (±1e-9).

    The first slot holds the question+span head, or the combined level-1
    head when that variant is active.
    """

    level1_qs: float = 0.35
    level1_sc: float = 0.35
    level2: float = 0.2
    level3: float = 0.1

    def __post_init__(self):
        vals = self.as_tuple()
        if not all(v >= 0 for v in vals):  # also rejects NaN
            raise ContractError(f"loss weights must be nonnegative, got {vals}")
        if abs(sum(vals) - 1.0) > 1e-9:
            raise ContractError(f"loss weights must sum to 1, got {sum(vals)!r}")

    def as_tuple(self):
        return dataclasses.astuple(self)


LAMBDA_KEYS = tuple(f"lambda{slot + 1}"
                    for slot in sorted({level.slot for level in LEVELS}))

# name -> (model.WIRINGS name, default loss weights). "full" keeps every
# level; "single_loss" trains only the aggregation level's objective;
# "combined_level1" merges the two level-1 submodels into one net over span,
# question and context; "level12_only" drops aggregation (prediction falls
# back to span scores maxed over mentions); the "level1_*_only" variants keep
# a single level-1 submodel and predict from its scores.
ABLATIONS = {
    "full": ("full", LossWeights()),
    "single_loss": ("full", LossWeights(0.0, 0.0, 0.0, 1.0)),
    # the combined head absorbs both level-1 coefficients
    "combined_level1": ("combined_level1", LossWeights(0.7, 0.0, 0.2, 0.1)),
    # remaining coefficients renormalized proportionally
    "level12_only": ("level12_only",
                     LossWeights(0.35 / 0.9, 0.35 / 0.9, 0.2 / 0.9, 0.0)),
    "level1_qs_only": ("level1_qs_only", LossWeights(1.0, 0.0, 0.0, 0.0)),
    "level1_sc_only": ("level1_sc_only", LossWeights(0.0, 1.0, 0.0, 0.0)),
}


@dataclass
class TrainConfig:
    """Everything a training run needs besides the data and embeddings.

    ``ablation`` names the cascade wiring (a key of ``ABLATIONS``);
    ``weights`` defaults to that ablation's loss weights.
    """

    epochs: int = 20
    seed: int = 0
    dropout: float = 0.1
    learning_rate: float = 0.05
    accumulator_init: float = 0.1
    hidden_width: int = 300
    span_limit: int = corpus.DEFAULT_SPAN_LIMIT
    context_size: int = 1
    weights: LossWeights = None  # None: the ablation's weights
    ablation: str = "full"
    instance_mode: str = "wiki"
    max_tokens: int = corpus.DEFAULT_MAX_TOKENS
    max_sentences: int = corpus.DEFAULT_MAX_SENTENCES
    max_sentence_len: int = corpus.DEFAULT_MAX_SENTENCE_LEN

    def __post_init__(self):
        if self.weights is None:
            self.weights = _ablation(self.ablation)[1]
        self.validate()

    def validate(self):
        if self.epochs < 0:
            raise ContractError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError(f"dropout must be in [0, 1), got {self.dropout}")
        for key in ("learning_rate", "accumulator_init"):
            if not 0.0 < getattr(self, key) < np.inf:  # also rejects NaN
                raise ContractError(f"{key} must be positive and finite, "
                                    f"got {getattr(self, key)}")
        if self.instance_mode not in ("wiki", "web"):
            raise ContractError(f"bad instance_mode {self.instance_mode!r}")
        live = {level.slot for level in self.arch(1).levels}  # any dimension
        for slot, w in enumerate(self.weights.as_tuple()):
            if w > 0 and slot not in live:
                raise ContractError(f"{LAMBDA_KEYS[slot]} is {w} but ablation "
                                    f"{self.ablation!r} turns that level off")

    def arch(self, embed_dim: int) -> Architecture:
        return Architecture(
            embed_dim=embed_dim,
            hidden_width=self.hidden_width,
            span_limit=self.span_limit,
            context_size=self.context_size,
            wiring=_ablation(self.ablation)[0],
        )

    def as_flat_dict(self) -> dict:
        """Flat key=value view (the config-file schema)."""
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out.update(zip(LAMBDA_KEYS, out.pop("weights").as_tuple()))
        return out

    @classmethod
    def from_mapping(cls, mapping: dict) -> "TrainConfig":
        """Build from flat string keys (config file / CLI overrides).

        A ``lambdaN`` key overrides its own slot of the ablation's weights.
        """
        known = {f.name: f for f in dataclasses.fields(cls)}
        kwargs, lambdas = {}, {}
        for key, raw in mapping.items():
            is_lambda = key in LAMBDA_KEYS
            if not (is_lambda or key in known) or key == "weights":
                raise UsageError(f"unknown config key {key!r}")
            ftype = "float" if is_lambda else known[key].type
            try:
                value = {"int": int, "float": float}.get(ftype, str)(raw)
            except ValueError:
                raise UsageError(f"config key {key!r} expects {ftype}, "
                                 f"got {raw!r}") from None
            if is_lambda:
                lambdas[key] = value
            else:
                kwargs[key] = value
        if lambdas:
            base = _ablation(kwargs.get("ablation", "full"))[1].as_tuple()
            kwargs["weights"] = LossWeights(
                *(lambdas.get(k, w) for k, w in zip(LAMBDA_KEYS, base)))
        return cls(**kwargs)


def _ablation(name: str):
    if name not in ABLATIONS:
        raise UsageError(
            f"unknown ablation {name!r}; valid names: {', '.join(sorted(ABLATIONS))}"
        )
    return ABLATIONS[name]


def parse_config_file(path) -> dict:
    """Read `key = value` lines; '#' starts a comment; blank lines ignored.
    A malformed line or a non-UTF-8 byte raises UsageError."""
    mapping = {}
    with open_text(path, UsageError) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


# ---------------------------------------------------------------------------
# objective


def multi_loss(scores: CascadeScores, gold_spans, gold_uniques,
               weights: LossWeights):
    """Interpolated negative log likelihood of all gold candidates.

    Each active level contributes -w * log(sum of gold probabilities),
    computed in log space. Returns None (skip signal) when the example has
    no gold spans; raises if a positive weight points at an inactive level.
    """
    gold_spans = np.asarray(gold_spans, dtype=np.intp)
    gold_uniques = np.asarray(gold_uniques, dtype=np.intp)
    if gold_spans.size == 0 or gold_uniques.size == 0:
        return None
    w = weights.as_tuple()
    live = {level.slot for level, _ in scores.active()}
    if any(v > 0 and slot not in live for slot, v in enumerate(w)):
        raise ContractError("positive loss weight for an inactive level")
    total = None
    for level, phi in scores.active():
        if w[level.slot] == 0.0:
            continue
        gold = gold_uniques if level.stage == 3 else gold_spans
        term = ad.logsumexp(phi) - ad.logsumexp(ad.gather(phi, gold))
        term = ad.scale(term, w[level.slot])
        total = term if total is None else ad.add(total, term)
    return total  # the weights sum to 1, so one term is live


# ---------------------------------------------------------------------------
# Adagrad


@dataclass
class AdagradState:
    """Per-parameter squared-gradient accumulators.

    Accumulators start at ``initial_accumulator`` and only grow, so the
    update needs no extra epsilon.
    """

    learning_rate: float = 0.05
    initial_accumulator: float = 0.1
    accumulators: dict = field(default_factory=dict)

    def accumulator_for(self, name: str, shape) -> np.ndarray:
        acc = self.accumulators.get(name)
        if acc is None:
            acc = np.full(shape, self.initial_accumulator, dtype=np.float64)
            self.accumulators[name] = acc
        return acc


def adagrad_step(named_params, grads: dict, state: AdagradState):
    """acc += g^2; theta -= lr * g / sqrt(acc), elementwise and in place."""
    for name, arr in named_params:
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != arr.shape:
            raise ContractError(
                f"gradient shape {g.shape} vs parameter shape {arr.shape} "
                f"for {name!r}"
            )
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
        acc = state.accumulator_for(name, arr.shape)
        acc += g * g
        arr -= state.learning_rate * g / np.sqrt(acc)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochMetrics:
    epoch: int
    mean_loss: float
    train_em: float
    steps: int
    skipped: int

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


@dataclass
class TrainResult:
    params: CascadeParams
    metrics: list
    skipped: int


def train(examples, config: TrainConfig, table, out_dir=None,
          log=None) -> TrainResult:
    """Seeded single-example Adagrad over the multi-level objective.

    Examples are encoded once up front and visited in a freshly shuffled
    order each epoch. Per-epoch metrics (mean loss, and ``evaluate``'s EM
    over the training set) go to ``metrics.jsonl`` and a checkpoint is written
    per epoch when ``out_dir`` is given; all randomness derives from
    ``config.seed`` so identical inputs give byte-identical checkpoints.
    """
    config.validate()
    if not examples:
        raise NoTrainableDataError("empty training corpus")
    arch = config.arch(table.dimension)
    params = CascadeParams.initialize(arch, config.seed)
    prepared = [prepare_example(ex, table, arch) for ex in examples]
    # an example has gold spans exactly when it has gold uniques
    trainable = [i for i, enc in enumerate(prepared)
                 if enc is not None and enc.gold_spans.size > 0]
    skipped = len(examples) - len(trainable)
    if not trainable:
        raise NoTrainableDataError(
            "no training example has a gold candidate span"
        )
    state = AdagradState(config.learning_rate, config.accumulator_init)
    shuffle_rng = np.random.default_rng(config.seed)
    metrics = []
    metrics_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.jsonl")
        with open(metrics_path, "w", encoding="utf-8"):
            pass
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(np.array(trainable, dtype=np.intp))
        losses = []
        for step, idx in enumerate(order):
            enc = prepared[int(idx)]
            tape = Tape()
            bound = params.bind(tape)
            drop = DropoutState(
                config.dropout,
                np.random.default_rng((config.seed, epoch, step)),
                training=True,
            )
            # a diverging run is reported by backward or adagrad_step
            with np.errstate(over="ignore", invalid="ignore"):
                scores = forward_cascade(tape, bound, enc, drop)
                loss = multi_loss(scores, enc.gold_spans, enc.gold_uniques,
                                  config.weights)
                grads = tape.backward(loss)
                adagrad_step(params.named_arrays(), grads, state)
            losses.append(float(loss.value))
        report = evaluate(
            lambda i: scored_example(params, examples[i], prepared[i]),
            range(len(examples)))
        entry = EpochMetrics(
            epoch=epoch + 1,
            mean_loss=float(np.mean(losses)),
            train_em=report.em,
            steps=len(losses),
            skipped=skipped,
        )
        metrics.append(entry)
        if log is not None:
            log(f"epoch {entry.epoch}: loss {entry.mean_loss:.4f} "
                f"train_em {entry.train_em:.3f}")
        if out_dir is not None:
            with open(metrics_path, "a", encoding="utf-8") as fh:
                fh.write(entry.to_json() + "\n")
            save_checkpoint(
                os.path.join(out_dir, f"checkpoint-epoch{entry.epoch:03d}.ckpt"),
                params,
            )
    if out_dir is not None:
        save_checkpoint(os.path.join(out_dir, "checkpoint.ckpt"), params)
    return TrainResult(params=params, metrics=metrics, skipped=skipped)
