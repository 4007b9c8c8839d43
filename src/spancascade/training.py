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
        if any(v < 0 for v in vals):
            raise ContractError(f"loss weights must be nonnegative, got {vals}")
        if abs(sum(vals) - 1.0) > 1e-9:
            raise ContractError(f"loss weights must sum to 1, got {sum(vals)!r}")

    def as_tuple(self):
        return (self.level1_qs, self.level1_sc, self.level2, self.level3)


SINGLE_LOSS_WEIGHTS = LossWeights(0.0, 0.0, 0.0, 1.0)


@dataclass
class TrainConfig:
    """Everything a training run needs besides the data and embeddings."""

    epochs: int = 20
    seed: int = 0
    dropout: float = 0.1
    learning_rate: float = 0.05
    accumulator_init: float = 0.1
    hidden_width: int = 300
    span_limit: int = 5
    context_size: int = 1
    weights: LossWeights = field(default_factory=LossWeights)
    single_loss: bool = False
    drop_level2: bool = False
    drop_level3: bool = False
    combined_level1: bool = False
    level1_mode: str = "both"
    instance_mode: str = "wiki"
    max_tokens: int = 6000
    max_sentences: int = 1000
    max_sentence_len: int = 50

    def __post_init__(self):
        # consistency rules: single_loss pins the weights; no attention
        # level means no aggregation level either
        if self.single_loss:
            self.weights = SINGLE_LOSS_WEIGHTS
        if self.drop_level2:
            self.drop_level3 = True
        self.validate()

    def validate(self):
        if self.epochs < 0:
            raise ContractError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.learning_rate <= 0 or self.accumulator_init <= 0:
            raise ContractError("learning rate and accumulator init must be > 0")
        if self.level1_mode not in ("both", "qs", "sc"):
            raise ContractError(f"bad level1_mode {self.level1_mode!r}")
        if self.instance_mode not in ("wiki", "web"):
            raise ContractError(f"bad instance_mode {self.instance_mode!r}")
        w = self.weights
        if w.level3 > 0 and self.drop_level3:
            raise ContractError("level-3 loss weight set but level 3 is dropped")
        if w.level2 > 0 and self.drop_level2:
            raise ContractError("level-2 loss weight set but level 2 is dropped")
        if w.level1_qs > 0 and self.level1_mode == "sc" and not self.combined_level1:
            raise ContractError("question+span loss weight set but submodel off")
        if w.level1_sc > 0 and (self.level1_mode == "qs" or self.combined_level1):
            raise ContractError("span+context loss weight set but submodel off")

    def arch(self, embed_dim: int) -> Architecture:
        return Architecture(
            embed_dim=embed_dim,
            hidden_width=self.hidden_width,
            span_limit=self.span_limit,
            context_size=self.context_size,
            level1_mode=self.level1_mode,
            use_level2=not self.drop_level2,
            use_level3=not self.drop_level3,
            combined_level1=self.combined_level1,
        )

    def as_flat_dict(self) -> dict:
        """Flat key=value view (the config-file schema)."""
        out = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.name == "weights":
                out["lambda1"] = v.level1_qs
                out["lambda2"] = v.level1_sc
                out["lambda3"] = v.level2
                out["lambda4"] = v.level3
            else:
                out[f.name] = v
        return out

    @classmethod
    def from_mapping(cls, mapping: dict) -> "TrainConfig":
        """Build from flat string keys (config file / CLI overrides)."""
        known = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        lambdas = {}
        defaults = LossWeights()
        for key, raw in mapping.items():
            if key in ("lambda1", "lambda2", "lambda3", "lambda4"):
                lambdas[key] = float(raw)
                continue
            if key == "ablation":
                continue  # resolved by the caller before this point
            if key not in known or key == "weights":
                raise UsageError(f"unknown config key {key!r}")
            ftype = known[key].type
            if ftype in ("int", int):
                kwargs[key] = int(raw)
            elif ftype in ("float", float):
                kwargs[key] = float(raw)
            elif ftype in ("bool", bool):
                kwargs[key] = _parse_bool(key, raw)
            else:
                kwargs[key] = str(raw)
        if lambdas:
            kwargs["weights"] = LossWeights(
                lambdas.get("lambda1", defaults.level1_qs),
                lambdas.get("lambda2", defaults.level1_sc),
                lambdas.get("lambda3", defaults.level2),
                lambdas.get("lambda4", defaults.level3),
            )
        return cls(**kwargs)


def _parse_bool(key, raw) -> bool:
    if isinstance(raw, bool):
        return raw
    v = str(raw).strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"config key {key!r} expects a boolean, got {raw!r}")


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


ABLATIONS = {
    "full": {},
    "single_loss": {"single_loss": True},
    "combined_level1": {
        "combined_level1": True,
        # the combined head absorbs both level-1 coefficients
        "weights": LossWeights(0.7, 0.0, 0.2, 0.1),
    },
    "level12_only": {
        "drop_level3": True,
        # remaining coefficients renormalized proportionally
        "weights": LossWeights(0.35 / 0.9, 0.35 / 0.9, 0.2 / 0.9, 0.0),
    },
    "level1_qs_only": {
        "drop_level2": True,
        "level1_mode": "qs",
        "weights": LossWeights(1.0, 0.0, 0.0, 0.0),
    },
    "level1_sc_only": {
        "drop_level2": True,
        "level1_mode": "sc",
        "weights": LossWeights(0.0, 1.0, 0.0, 0.0),
    },
}


def ablation_config(name: str, **overrides) -> TrainConfig:
    """Named reduced-cascade configurations.

    "full" keeps everything; "single_loss" trains only the aggregation
    level's objective; "combined_level1" merges the two level-1 submodels
    into one net over span, question and context; "level12_only" drops
    aggregation (prediction falls back to span scores maxed over
    mentions); the "level1_*_only" variants keep a single level-1 submodel
    and predict from its scores.
    """
    if name not in ABLATIONS:
        raise UsageError(
            f"unknown ablation {name!r}; valid names: {', '.join(sorted(ABLATIONS))}"
        )
    kwargs = dict(ABLATIONS[name])
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


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
    span_terms = [
        (weights.level1_qs, scores.phi_comb if scores.phi_comb is not None
         else scores.phi1),
        (weights.level1_sc, scores.phi2),
        (weights.level2, scores.phi3),
    ]
    total = None
    for w, phi in span_terms:
        if w == 0.0:
            continue
        if phi is None:
            raise ContractError("positive loss weight for an inactive level")
        term = ad.logsumexp(phi) - ad.logsumexp(ad.gather(phi, gold_spans))
        term = ad.scale(term, w)
        total = term if total is None else ad.add(total, term)
    if weights.level3 > 0.0:
        if scores.phi4 is None:
            raise ContractError("positive loss weight for an inactive level")
        term = ad.logsumexp(scores.phi4) - ad.logsumexp(
            ad.gather(scores.phi4, gold_uniques))
        term = ad.scale(term, weights.level3)
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
