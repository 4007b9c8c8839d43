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
from .autodiff import DropoutState, Tape
from .corpus import build_candidates
from .errors import (
    ContractError,
    NoTrainableDataError,
    NonFiniteError,
    UsageError,
)
from .evaluation import exact_match
from .model import (
    Architecture,
    CascadeParams,
    CascadeScores,
    encode_example,
    forward_cascade,
    predict,
    save_checkpoint,
    score_example,
)


@dataclass(frozen=True)
class LossWeights:
    """Per-level loss coefficients; nonnegative, summing to 1 (±1e-9).

    The first weight applies to the question+span head, or to the combined
    level-1 head when that variant is active.
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
        return (self.level1_qs, self.level1_sc, self.level2, self.level3)


LAMBDA_KEYS = ("lambda1", "lambda2", "lambda3", "lambda4")

# name -> (Architecture wiring, default loss weights). "full" keeps every
# level; "single_loss" trains only the aggregation level's objective;
# "combined_level1" merges the two level-1 submodels into one net over span,
# question and context; "level12_only" drops aggregation (prediction falls
# back to span scores maxed over mentions); the "level1_*_only" variants keep
# a single level-1 submodel and predict from its scores.
ABLATIONS = {
    "full": ({}, LossWeights()),
    "single_loss": ({}, LossWeights(0.0, 0.0, 0.0, 1.0)),
    # the combined head absorbs both level-1 coefficients
    "combined_level1": ({"combined_level1": True},
                        LossWeights(0.7, 0.0, 0.2, 0.1)),
    # remaining coefficients renormalized proportionally
    "level12_only": ({"use_level3": False},
                     LossWeights(0.35 / 0.9, 0.35 / 0.9, 0.2 / 0.9, 0.0)),
    "level1_qs_only": ({"level1_mode": "qs", "use_level2": False,
                        "use_level3": False}, LossWeights(1.0, 0.0, 0.0, 0.0)),
    "level1_sc_only": ({"level1_mode": "sc", "use_level2": False,
                        "use_level3": False}, LossWeights(0.0, 1.0, 0.0, 0.0)),
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
    span_limit: int = 5
    context_size: int = 1
    weights: LossWeights = None  # None: the ablation's weights
    ablation: str = "full"
    instance_mode: str = "wiki"
    max_tokens: int = 6000
    max_sentences: int = 1000
    max_sentence_len: int = 50

    def __post_init__(self):
        if self.weights is None:
            self.weights = _ablation(self.ablation)[1]
        self.validate()

    def validate(self):
        if self.epochs < 0:
            raise ContractError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.learning_rate <= 0 or self.accumulator_init <= 0:
            raise ContractError("learning rate and accumulator init must be > 0")
        if self.instance_mode not in ("wiki", "web"):
            raise ContractError(f"bad instance_mode {self.instance_mode!r}")
        arch = self.arch(1)  # the wiring does not depend on the dimension
        active = (arch.needs_question_nets, arch.m2_active, arch.use_level2,
                  arch.use_level3)
        for slot, (w, on) in enumerate(zip(self.weights.as_tuple(), active), 1):
            if w > 0 and not on:
                raise ContractError(f"lambda{slot} is {w} but ablation "
                                    f"{self.ablation!r} turns that level off")

    def arch(self, embed_dim: int) -> Architecture:
        return Architecture(
            embed_dim=embed_dim,
            hidden_width=self.hidden_width,
            span_limit=self.span_limit,
            context_size=self.context_size,
            **_ablation(self.ablation)[0],
        )

    def as_flat_dict(self) -> dict:
        """Flat key=value view (the config-file schema)."""
        out = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.name == "weights":
                out.update(zip(LAMBDA_KEYS, v.as_tuple()))
            else:
                out[f.name] = v
        return out

    @classmethod
    def from_mapping(cls, mapping: dict) -> "TrainConfig":
        """Build from flat string keys (config file / CLI overrides).

        A ``lambdaN`` key overrides its own slot of the ablation's weights.
        """
        known = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        lambdas = {}
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
    """Read `key = value` lines; '#' starts a comment; blank lines ignored."""
    mapping = {}
    with open(path, "r", encoding="utf-8") as fh:
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
    terms = [
        (weights.level1_qs, scores.phi_comb if scores.phi_comb is not None
         else scores.phi1, gold_spans),
        (weights.level1_sc, scores.phi2, gold_spans),
        (weights.level2, scores.phi3, gold_spans),
        (weights.level3, scores.phi4, gold_uniques),
    ]
    total = None
    for w, phi, gold in terms:
        if w == 0.0:
            continue
        if phi is None:
            raise ContractError("positive loss weight for an inactive level")
        term = ad.logsumexp(phi) - ad.logsumexp(ad.gather(phi, gold))
        term = ad.scale(term, w)
        total = term if total is None else ad.add(total, term)
    if total is None:
        raise ContractError("all loss weights are zero")
    return total


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


def prepare_examples(examples, table, arch: Architecture) -> list:
    """Encode every example once; None for examples without candidates."""
    prepared = []
    for example in examples:
        cands = build_candidates(example, arch.span_limit)
        prepared.append(encode_example(example, cands, table, arch)
                        if cands.spans else None)
    return prepared


def _train_em(params, prepared, examples) -> float:
    hits = 0
    for example, enc in zip(examples, prepared):
        if enc is None:
            continue
        pred = predict(score_example(params, enc), enc)
        if pred is not None and exact_match(pred.text, example.answers):
            hits += 1
    return hits / len(examples)


def train(examples, config: TrainConfig, table, out_dir=None,
          log=None) -> TrainResult:
    """Seeded single-example Adagrad over the multi-level objective.

    Examples are encoded once up front and visited in a freshly shuffled
    order each epoch. Per-epoch metrics (mean loss, train EM) are appended
    to ``metrics.jsonl`` and a checkpoint is written per epoch when
    ``out_dir`` is given; all randomness derives from ``config.seed`` so
    identical inputs give byte-identical checkpoints.
    """
    config.validate()
    if not examples:
        raise NoTrainableDataError("empty training corpus")
    arch = config.arch(table.dimension)
    params = CascadeParams.initialize(arch, config.seed)
    prepared = prepare_examples(examples, table, arch)
    trainable = [
        i for i, enc in enumerate(prepared)
        if enc is not None and enc.gold_spans.size > 0 and enc.gold_uniques.size > 0
    ]
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
            if config.dropout > 0.0:
                drop = DropoutState(
                    config.dropout,
                    np.random.default_rng((config.seed, epoch, step)),
                    training=True,
                )
            else:
                drop = DropoutState.off()
            # a diverging run is reported by backward or adagrad_step
            with np.errstate(over="ignore", invalid="ignore"):
                scores = forward_cascade(tape, bound, enc, drop)
                loss = multi_loss(scores, enc.gold_spans, enc.gold_uniques,
                                  config.weights)
                if loss is None:
                    continue
                grads = tape.backward(loss)
                adagrad_step(params.named_arrays(), grads, state)
            losses.append(float(loss.value))
        em = _train_em(params, prepared, examples)
        entry = EpochMetrics(
            epoch=epoch + 1,
            mean_loss=float(np.mean(losses)) if losses else 0.0,
            train_em=em,
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
