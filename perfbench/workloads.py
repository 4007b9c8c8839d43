"""The three workloads, each closed-loop with one client in one process.

With tracing off a workload calls the package exactly as a user would:
``make_scorer(params, table)(example)`` per document, or ``train()``. With
tracing on it also makes the same calls one layer at a time, each inside a
span, and checks that the decomposed run computes what the plain run did.
"""

from __future__ import annotations

import resource
import sys
import traceback
import weakref
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

import numpy as np

import inputs
from tracer import Tracer

from spancascade import (
    AdagradState,
    Architecture,
    CascadeParams,
    DropoutState,
    ForwardStats,
    QAExample,
    Tape,
    TrainConfig,
    adagrad_step,
    build_candidates,
    encode_example,
    evaluate,
    exact_match,
    forward_cascade,
    make_scorer,
    multi_loss,
    predict,
    random_table,
    score_example,
    synth,
    tokenize,
    train,
    truncate,
)
from spancascade.evaluation import ScoredExample
from spancascade.model import prediction_scores

LAYERS = ("corpus", "embeddings", "model", "autodiff", "training", "evaluation")

EVAL_DIM = 100             # e = w = 100
MIN_EVAL_PASSES = 4        # 32 documents: the tail sample, 10 from the top, is a capped one
SETUP_REPEATS = 3
TRAIN_LONG_DIM = 50
TRAIN_LONG_EPOCHS = 6
TRAIN_SHORT_EPOCHS = 10
MIN_TRAIN_REPS = 3
REPORT_REPEATS = 3
ORACLE_TOLERANCE = 1e-9


@dataclass
class Outcome:
    """What a workload measured, checked and traced."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    def fail(self, reason: str, ops: int = 1):
        self.failed += ops
        self.problems.append(reason)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values):
    """(value, percentile, n): the highest percentile with 10 samples above."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def latency_metrics(out: Outcome, seconds_per_op, label: str):
    value, pct, n = tail(seconds_per_op)
    out.e2e["latency_ms_p50"] = 1000.0 * median(seconds_per_op)
    out.e2e["latency_ms_tail"] = 1000.0 * value
    out.info[f"{label}_ms_p50"] = out.e2e["latency_ms_p50"]
    out.info[f"{label}_ms_tail"] = {"value": out.e2e["latency_ms_tail"],
                                    "percentile": round(pct, 3), "samples": n}


# ---------------------------------------------------------------------------
# closed-form MACs of the inference pass, per stage


def stage_macs(arch: Architecture, m: int, sentence_lengths, S: int,
               U: int) -> dict:
    """Multiply-accumulates of score_example per stage, from shapes alone.

    A two-layer net over r rows of width-i input costs r*i*w + r*w*w; a
    linear head over r rows costs r*w. Holds for the default wiring (both
    level-1 submodels, levels 2 and 3 on).
    """
    e, w = arch.embed_dim, arch.hidden_width

    def net(rows, in_dim):
        return rows * in_dim * w + rows * w * w

    attention = net(m, e)  # question-side projection, once per example
    for G in sentence_lengths:
        attention += (net(G, e) + m * w * G + m * G * e + G * m * e
                      + net(m, 2 * e) + net(G, 2 * e))
    return {
        "q_summary": net(m, e) + m * w + m * e,
        "l1_qs": net(S, 2 * e + 2) + S * w,
        "l1_sc": net(S, 3 * e + 1) + S * w,
        "attention": attention,
        "l2": net(S, arch.level2_in_dim) + S * w,
        "l3": net(S, w + 1) + net(U, w) + U * w,
    }


def record_scoring(tr: Tracer, out: Outcome, arch, enc, stats):
    """Per-call counts of one scored example, and the exact MAC check."""
    spans, uniques = enc.n_spans, enc.n_unique
    tr.count("corpus.tokens", enc.doc_embed.shape[0])
    tr.count("corpus.sentences", len(enc.sentence_ranges))
    tr.count("corpus.spans", spans)
    tr.count("corpus.uniques", uniques)
    tr.count("corpus.gold_spans", int(enc.gold_spans.size))
    tr.count("model.attention_calls", stats.attention_calls)
    tr.count("model.score_macs", stats.macs)
    stages = stage_macs(arch, enc.question.shape[0],
                        [t - s for s, t in enc.sentence_ranges], spans, uniques)
    for name, macs in stages.items():
        tr.count(f"model.score_macs.{name}", macs)
    if sum(stages.values()) != stats.macs:
        out.fail(f"{enc.example_id}: closed-form MACs {sum(stages.values())} "
                 f"!= ForwardStats.macs {stats.macs}")


def traced_lookup(tr: Tracer, table, example: QAExample):
    """The embedding lookups encode_example makes, as separate calls."""
    with tr.span("embeddings.lookup"):
        table.lookup_all(example.question)
        for doc in example.documents:
            table.lookup_all(doc.tokens)


def traced_report(tr: Tracer, cached: dict):
    """evaluate() over cached ScoredExamples: the evaluation layer alone."""
    for r in range(REPORT_REPEATS):
        with tr.span("evaluation.report", op=f"report-{r}"):
            evaluate(cached.__getitem__, list(cached))


def layer_metrics(out: Outcome, tr: Tracer, n_ops: int):
    """Every per-layer value the traced run measured; unmeasured ones stay 0."""
    timed = ("corpus.tokenize", "corpus.truncate", "corpus.build_candidates",
             "embeddings.lookup", "model.encode", "model.score",
             "model.forward", "autodiff.bind", "autodiff.backward",
             "training.loss", "training.adagrad", "training.em_pass",
             "evaluation.report")
    for name in timed:
        out.layers[f"{name}_ms"] = tr.median_ms(name)
    for name in tr.counts:
        out.layers[name] = tr.mean_count(name)
    spans = sum(tr.counts.get("corpus.spans", ()))
    if spans:
        out.layers["corpus.unique_ratio"] = sum(tr.counts["corpus.uniques"]) / spans
    for layer, ms in tr.self_ms(LAYERS, n_ops).items():
        out.layers[f"{layer}.self_ms"] = ms


# ---------------------------------------------------------------------------
# eval_long


def run_eval_long(seed: int, seconds: float, trace: bool,
                  t_start: float) -> Outcome:
    out = Outcome()
    t_first = perf_counter()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        docs = inputs.eval_long_documents(seed)
        questions = [tokenize(d.question).tokens for d in docs]
        table = random_table(inputs.vocabulary(), EVAL_DIM, seed)
        arch = Architecture(embed_dim=EVAL_DIM, hidden_width=EVAL_DIM)
        params = CascadeParams.initialize(arch, seed)
        scorer = make_scorer(params, table)
        setup_times.append(perf_counter() - t0)
    smallest = int(np.argmin([d.raw_tokens for d in docs]))

    def run_op(i):
        doc = truncate(tokenize(docs[i].text))
        return doc, scorer(QAExample(docs[i].doc_id, questions[i], [doc],
                                     docs[i].answers))

    t0 = perf_counter()
    run_op(smallest)  # warm-up: allocator and BLAS reach steady state
    warm = perf_counter() - t0
    out.e2e["setup_s"] = (t_first - t_start) + median(setup_times) + warm
    out.info["inputs_digest"] = inputs.raw_documents_digest(docs)

    expected: dict = {}

    def check(i, doc, scored) -> list:
        if i not in expected:
            kept = inputs.truncate_sentences(docs[i].sentences)
            expected[i] = (sum(len(s) for s in kept),
                           *inputs.brute_force_counts(kept))
        tokens, spans, uniques = expected[i]
        problems = []
        if len(doc.tokens) != tokens:
            problems.append(f"retained {len(doc.tokens)} tokens, expected {tokens}")
        if int(np.sum(scored.mention_counts)) != spans:
            problems.append(f"{int(np.sum(scored.mention_counts))} spans, "
                            f"brute force {spans}")
        if len(scored.candidates) != uniques:
            problems.append(f"{len(scored.candidates)} uniques, "
                            f"brute force {uniques}")
        if not scored.candidates:
            problems.append("no prediction")
        if not np.all(np.isfinite(scored.scores)):
            problems.append("non-finite score")
        return [f"{docs[i].doc_id}: {p}" for p in problems]

    tr = Tracer() if trace else None
    reference: dict = {}
    latest: dict = {}
    plain_lat, plain_tokens, traced_lat = [], [], []
    order_rng = np.random.default_rng([seed, 3])
    t_loop = perf_counter()
    passes = 0
    while passes < MIN_EVAL_PASSES or perf_counter() - t_loop < seconds:
        # a traced run alternates plain and traced passes over the same docs
        traced = trace and passes % 2 == 1
        for i in order_rng.permutation(len(docs)):
            out.attempted += 1
            try:
                if traced:
                    doc, scored, dt = traced_eval_op(
                        tr, out, out.attempted, docs[i], questions[i], params,
                        table)
                else:
                    t0 = perf_counter()
                    doc, scored = run_op(i)
                    dt = perf_counter() - t0
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out.fail(f"{docs[i].doc_id}: exception")
                continue
            problems = check(i, doc, scored)
            if traced and i in reference and not np.array_equal(
                    reference[i], scored.scores):
                problems.append(f"{docs[i].doc_id}: traced scores differ "
                                "from make_scorer's")
            if problems:
                out.fail("; ".join(problems))
                continue
            reference.setdefault(i, scored.scores)
            latest[i] = scored
            if traced:
                traced_lat.append(dt)
            else:
                plain_lat.append(dt)
                plain_tokens.append(len(doc.tokens))
        passes += 1
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    if plain_lat:
        # throughput over every timed document; a median would hide slow ones
        out.e2e["tokens_per_s"] = sum(plain_tokens) / sum(plain_lat)
        out.info["eval_tokens_per_s"] = out.e2e["tokens_per_s"]
        latency_metrics(out, plain_lat, "eval_doc")

    oracle_check(out, docs[smallest], questions[smallest], params, table)
    if trace and plain_lat and traced_lat:
        traced_report(tr, {docs[i].doc_id: scored
                           for i, scored in latest.items()})
        layer_metrics(out, tr, len(traced_lat))
        out.layers["trace.overhead_ms"] = 1000.0 * (median(traced_lat)
                                                    - median(plain_lat))
        out.tracer = tr
    return out


def traced_eval_op(tr: Tracer, out: Outcome, op: int, raw, question,
                   params, table):
    """make_scorer's body, one layer call per span; also returns the latency
    of those calls, without the extra lookup and the counting."""
    arch = params.arch
    t0 = perf_counter()
    with tr.span("bench.op", op=op):
        with tr.span("corpus.tokenize"):
            doc = tokenize(raw.text)
        with tr.span("corpus.truncate"):
            doc = truncate(doc)
        example = QAExample(raw.doc_id, question, [doc], raw.answers)
        with tr.span("corpus.build_candidates"):
            cands = build_candidates(example, arch.span_limit)
        if not cands.spans:
            return doc, ScoredExample(raw.doc_id, list(raw.answers), [],
                                      np.zeros(0), np.zeros(0, dtype=np.intp)), \
                perf_counter() - t0
        with tr.span("model.encode"):
            enc = encode_example(example, cands, table, arch)
        stats = ForwardStats()
        with tr.span("model.score"):
            scores = score_example(params, enc, workers=1, stats=stats)
        with tr.span("model.predict"):
            u_scores = prediction_scores(scores, enc)
    latency = perf_counter() - t0
    traced_lookup(tr, table, example)
    record_scoring(tr, out, arch, enc, stats)
    return doc, ScoredExample(raw.doc_id, list(raw.answers),
                              enc.unique_surfaces, u_scores,
                              enc.mention_counts), latency


def oracle_check(out: Outcome, raw, question, params, table):
    """Recording vs non-recording forward on one document, within 1e-9."""
    out.attempted += 1
    example = QAExample(raw.doc_id, question, [truncate(tokenize(raw.text))],
                        raw.answers)
    try:
        enc = encode_example(example, build_candidates(example), table,
                             params.arch)
        plain = score_example(params, enc)
        tape = Tape()
        recorded = forward_cascade(tape, params.bind(tape), enc,
                                   DropoutState.off()).values()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        out.fail("oracle: exception")
        return
    worst = 0.0
    for level in ("phi1", "phi2", "phi_comb", "phi3", "phi4"):
        a, b = getattr(plain, level), getattr(recorded, level)
        if (a is None) != (b is None):
            out.fail(f"oracle: level {level} active on one path only")
            return
        if a is not None:
            worst = max(worst, float(np.max(np.abs(a - b))))
    out.info["oracle_max_abs_diff"] = worst
    if not worst <= ORACLE_TOLERANCE:
        out.fail(f"oracle: score_example vs forward_cascade differ by {worst}")


# ---------------------------------------------------------------------------
# training workloads


def train_short_inputs(seed: int):
    train_set, heldout = synth.make_overfit_corpus(seed=seed)
    table = synth.make_table(embed_dim=16, seed=seed)
    config = TrainConfig(epochs=TRAIN_SHORT_EPOCHS, seed=seed, hidden_width=32)
    return train_set, heldout, table, config


def train_long_inputs(seed: int):
    examples = [
        QAExample(d.doc_id, tokenize(d.question).tokens,
                  [truncate(tokenize(d.text))], d.answers)
        for d in inputs.train_long_documents(seed)
    ]
    table = random_table(inputs.vocabulary(), TRAIN_LONG_DIM, seed)
    config = TrainConfig(epochs=TRAIN_LONG_EPOCHS, seed=seed,
                         hidden_width=TRAIN_LONG_DIM)
    return examples, [], table, config


def params_bytes(params) -> list:
    return [(name, arr.tobytes()) for name, arr in params.named_arrays()]


def run_training(make_inputs, seed: int, seconds: float, trace: bool,
                 t_start: float) -> Outcome:
    out = Outcome()
    examples, heldout, table, config = make_inputs(seed)
    t_ready = perf_counter()
    out.info["inputs_digest"] = inputs.examples_digest(examples + heldout)
    tokens_per_epoch = sum(len(doc.tokens) for ex in examples
                           for doc in ex.documents)
    E = config.epochs

    tr = Tracer() if trace else None
    refs: list = []
    setups, epochs, traced_epochs = [], [], []
    first = None
    t_loop = perf_counter()
    min_reps = MIN_TRAIN_REPS - 1 if trace else MIN_TRAIN_REPS
    while len(setups) < min_reps or perf_counter() - t_loop < seconds:
        out.attempted += E
        stamps = []
        t0 = perf_counter()
        try:
            result = train(examples, config, table,
                           log=lambda _line: stamps.append(perf_counter()))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out.fail("train() raised", E)
            if not setups:
                break
            continue
        durations = [b - a for a, b in zip(stamps, stamps[1:])]
        setups.append(stamps[0] - t0)
        epochs.extend(durations)
        check_train_result(out, result, config)
        if first is None:
            first = result
        elif params_bytes(result.params) != params_bytes(first.params):
            out.fail("two train() runs with one seed gave different parameters")
        if trace:
            out.attempted += 1
            traced_epochs.extend(replica(tr, out, refs, len(setups), examples,
                                         config, table, result))
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    if not setups:
        return out
    out.e2e["setup_s"] = (t_ready - t_start) + median(setups)
    # throughput over every timed epoch, so periodic collection pauses count
    out.e2e["tokens_per_s"] = tokens_per_epoch * len(epochs) / sum(epochs)
    out.info["train_examples_per_s"] = (out.e2e["tokens_per_s"] * len(examples)
                                        / tokens_per_epoch)
    latency_metrics(out, epochs, "epoch")

    scorer = make_scorer(first.params, table)
    eval_set = heldout or examples
    cached = {}
    for ex in eval_set:
        out.attempted += 1
        try:
            scored = scorer(ex)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out.fail(f"{ex.example_id}: exception")
            continue
        if not scored.candidates or not np.all(np.isfinite(scored.scores)):
            out.fail(f"{ex.example_id}: no finite prediction")
        cached[ex.example_id] = scored
    if heldout:
        report = evaluate(cached.__getitem__, list(cached))
        out.info["heldout_em"] = report.em
        out.layers["evaluation.heldout_em"] = report.em
    if trace and traced_epochs:
        traced_report(tr, cached)
        layer_metrics(out, tr, len(tr.durations("bench.epoch")))
        out.layers["autodiff.unreclaimed_tapes"] = max(
            tr.counts.get("autodiff.unreclaimed_tapes", [0]))
        out.layers["trace.overhead_ms"] = 1000.0 * (median(traced_epochs)
                                                    - median(epochs))
        out.tracer = tr
    return out


def check_train_result(out: Outcome, result, config):
    if result.skipped:
        out.fail(f"train() skipped {result.skipped} examples that have gold spans")
    if len(result.metrics) != config.epochs:
        out.fail(f"train() logged {len(result.metrics)} of {config.epochs} epochs")
    if not all(np.isfinite(m.mean_loss) for m in result.metrics):
        out.fail("non-finite training loss")


def replica(tr: Tracer, out: Outcome, refs: list, rep: int, examples,
            config: TrainConfig, table, reference) -> list:
    """train()'s algorithm through its public calls, one span per call.

    Uses the same shuffle and dropout generators, so the final parameters
    must be byte-identical to ``reference.params``. Returns the durations of
    epochs 2..E.
    """
    arch = config.arch(table.dimension)
    with tr.span("bench.prepare", op=f"prepare-{rep}"):
        with tr.span("model.initialize"):
            params = CascadeParams.initialize(arch, config.seed)
        prepared = []
        for example in examples:
            with tr.span("corpus.build_candidates"):
                cands = build_candidates(example, arch.span_limit)
            if not cands.spans:
                prepared.append(None)
                continue
            traced_lookup(tr, table, example)
            with tr.span("model.encode"):
                prepared.append(encode_example(example, cands, table, arch))
    trainable = [i for i, enc in enumerate(prepared)
                 if enc is not None and enc.gold_spans.size > 0
                 and enc.gold_uniques.size > 0]
    state = AdagradState(config.learning_rate, config.accumulator_init)
    shuffle_rng = np.random.default_rng(config.seed)
    epoch_times = []
    for epoch in range(config.epochs):
        op = f"{rep}-{epoch}"
        with tr.span("bench.epoch", op=op):
            t0 = perf_counter()
            order = shuffle_rng.permutation(np.array(trainable, dtype=np.intp))
            losses = []
            for step, idx in enumerate(order):
                enc = prepared[int(idx)]
                tape = Tape()
                refs.append(weakref.ref(tape))
                with tr.span("autodiff.bind"):
                    bound = params.bind(tape)
                if config.dropout > 0.0:
                    drop = DropoutState(
                        config.dropout,
                        np.random.default_rng((config.seed, epoch, step)),
                        training=True)
                else:
                    drop = DropoutState.off()
                with tr.span("model.forward"):
                    scores = forward_cascade(tape, bound, enc, drop)
                tr.count("model.forward_macs", tape.stats.macs)
                with tr.span("training.loss"):
                    loss = multi_loss(scores, enc.gold_spans, enc.gold_uniques,
                                      config.weights)
                if loss is None:
                    continue
                with tr.span("autodiff.backward"):
                    grads = tape.backward(loss)
                with tr.span("training.adagrad"):
                    adagrad_step(params.named_arrays(), grads, state)
                losses.append(float(loss.value))
                tr.count("autodiff.tape_nodes", len(tape))
                # tapes of earlier steps that only cyclic GC can still free
                refs[:] = [r for r in refs if r() is not None]
                tr.count("autodiff.unreclaimed_tapes", len(refs) - 1)
            with tr.span("training.em_pass"):
                hits = 0
                for example, enc in zip(examples, prepared):
                    if enc is None:
                        continue
                    stats = ForwardStats()
                    with tr.span("model.score"):
                        scored = score_example(params, enc, stats=stats)
                    with tr.span("model.predict"):
                        pred = predict(scored, enc)
                    if epoch == 0:
                        record_scoring(tr, out, arch, enc, stats)
                    if pred is not None and exact_match(pred.text, example.answers):
                        hits += 1
            elapsed = perf_counter() - t0
        if epoch > 0:
            epoch_times.append(elapsed)
        logged = reference.metrics[epoch]
        mean_loss = float(np.mean(losses)) if losses else 0.0
        if (mean_loss, hits / len(examples)) != (logged.mean_loss, logged.train_em):
            out.fail(f"replica epoch {epoch + 1} loss/EM differ from train()'s")
    if params_bytes(params) != params_bytes(reference.params):
        out.fail("replica parameters are not byte-identical to train()'s")
    return epoch_times
