"""Command-line entry point: train, eval, predict, bench, gradcheck.

Exit codes: 0 success, 1 usage error, 2 I/O or data error, 3 numeric
failure (gradient check above threshold, non-finite values), 4
unanswerable (predict found no candidates after truncation). Every
command echoes its resolved configuration so runs are reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bench as bench_mod
from . import corpus
from . import synth
from .autodiff import Tape, finite_difference_check
from .corpus import QAExample, load_examples, tokenize, truncate
from .embeddings import load_embeddings
from .errors import (
    CheckpointError,
    ContractError,
    DataError,
    DimensionError,
    EmptyCandidateError,
    NonFiniteError,
    NoTrainableDataError,
    ParseError,
    UsageError,
    open_text,
)
from .evaluation import evaluate, rank_candidates
from .model import (
    CascadeParams,
    forward_cascade,
    load_checkpoint,
    make_scorer,
    prepare_example,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3
EXIT_UNANSWERABLE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _echo_config(flat: dict):
    print("resolved configuration:")
    for key in sorted(flat):
        print(f"  {key} = {flat[key]}")


def _int_list(flag: str, text: str) -> list:
    """Integers of a comma list; a malformed one is a usage error."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, "
                         f"got {text!r}") from None


def _load_table(path, dimension):
    if not os.path.exists(path):
        raise DataError(f"embeddings file not found: {path}")
    return load_embeddings(path, dimension)


def _load_corpus(path, config):
    if not os.path.exists(path):
        raise DataError(f"data file not found: {path}")
    return load_examples(
        path,
        mode=config.instance_mode,
        max_tokens=config.max_tokens,
        max_sentences=config.max_sentences,
        max_sentence_len=config.max_sentence_len,
    )


def _resolve_train_config(args):
    from .training import TrainConfig, parse_config_file

    mapping = parse_config_file(args.config) if args.config else {}
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    for key in ("epochs", "seed", "ablation"):
        if getattr(args, key) is not None:
            mapping[key] = str(getattr(args, key))
    return TrainConfig.from_mapping(mapping)


def cmd_train(args) -> int:
    from .training import train

    config = _resolve_train_config(args)
    _echo_config(config.as_flat_dict())
    table = _load_table(args.embeddings, args.dim)
    examples = _load_corpus(args.data, config)
    result = train(examples, config, table, out_dir=args.out,
                   log=lambda msg: print(msg))
    if result.metrics:
        last = result.metrics[-1]
        print(f"final: loss {last.mean_loss:.4f} train_em {last.train_em:.3f} "
              f"({result.skipped} examples skipped)")
    print(f"checkpoint written to {os.path.join(args.out, 'checkpoint.ckpt')}")
    return EXIT_OK


def cmd_eval(args) -> int:
    limits = _int_list("--truncate", args.truncate)
    if min(limits) < 1:
        raise UsageError(f"--truncate limits must be positive, got "
                         f"{min(limits)}")
    params = load_checkpoint(args.checkpoint)
    table = _load_table(args.embeddings, params.arch.embed_dim)
    _echo_config({
        "checkpoint": args.checkpoint, "data": args.data, "topk": args.topk,
        "truncate": args.truncate, "mode": args.mode,
    })
    scorer = make_scorer(params, table)
    os.makedirs(args.out, exist_ok=True)
    sweep = len(limits) > 1
    rows = []  # truncation sweep: limit, EM, oracle EM per limit
    for limit in limits:
        examples = load_examples(args.data, mode=args.mode, max_tokens=limit)
        if not examples:
            raise UsageError(f"no examples in {args.data}")
        report = evaluate(scorer, examples, k_max=args.topk)
        rows.append(f"{limit},{report.em:.6f},{report.oracle_em:.6f}\n")
        if sweep:
            print(f"truncate={limit} em={report.em:.4f} "
                  f"oracle_em={report.oracle_em:.4f}")
    if sweep:
        sweep_path = os.path.join(args.out, "truncation_sweep.csv")
        with open(sweep_path, "w", encoding="utf-8") as fh:
            fh.write("limit,em,oracle_em\n" + "".join(rows))
        print(f"sweep written to {sweep_path}")
        return EXIT_OK
    print(f"EM {report.em:.3f} F1 {report.f1:.3f} "
          f"(oracle EM {report.oracle_em:.3f}, {report.total} examples)")
    report_path = os.path.join(args.out, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    report.write_topk_csv(os.path.join(args.out, "topk.csv"))
    report.write_frequency_csv(os.path.join(args.out, "frequency.csv"))
    print(f"report written to {report_path}")
    return EXIT_OK


def cmd_predict(args) -> int:
    if corpus.LONE_SURROGATE.search(args.question):
        raise UsageError("--question is not UTF-8 text (it holds a lone surrogate)")
    question = tokenize(args.question).tokens
    if not question:
        raise UsageError("question has no tokens")
    params = load_checkpoint(args.checkpoint)
    table = _load_table(args.embeddings, params.arch.embed_dim)
    if not os.path.exists(args.document):
        raise DataError(f"document file not found: {args.document}")
    with open_text(args.document) as fh:
        text = fh.read()
    doc = truncate(tokenize(text), max_tokens=args.truncate)
    example = QAExample("predict", question, [doc], [])
    _echo_config({
        "checkpoint": args.checkpoint, "document": args.document,
        "truncate": args.truncate,
    })
    scored = make_scorer(params, table)(example)
    if not scored.candidates:
        print("unanswerable: no candidate spans after truncation")
        return EXIT_UNANSWERABLE
    best = rank_candidates(scored)[0]
    print(f"answer: {scored.candidates[best]}")
    print(f"score: {scored.scores[best]:.6f}")
    print(f"mentions: {int(scored.mention_counts[best])}")
    return EXIT_OK


def cmd_bench(args) -> int:
    lengths = _int_list("--lengths", args.lengths)
    _echo_config({
        "lengths": args.lengths, "reps": args.reps,
        "embed_dim": args.dim, "hidden_width": args.hidden, "seed": args.seed,
    })
    result = bench_mod.run_benchmark(
        lengths, reps=args.reps, embed_dim=args.dim,
        hidden_width=args.hidden, seed=args.seed, log=lambda m: print(m))
    result.write_csv(args.out)
    print(f"benchmark written to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .training import TrainConfig, multi_loss

    if not 0.0 < args.threshold < np.inf:
        raise UsageError(f"--threshold must be positive and finite, "
                         f"got {args.threshold}")
    example, table = synth.gradcheck_instance(embed_dim=args.dim,
                                              seed=args.table_seed)
    config = TrainConfig(hidden_width=args.hidden, dropout=0.0)
    arch = config.arch(table.dimension)
    params = CascadeParams.initialize(arch, args.seed)
    enc = prepare_example(example, table, arch)
    _echo_config({
        "seed": args.seed, "table_seed": args.table_seed,
        "embed_dim": args.dim, "hidden_width": args.hidden,
        "threshold": args.threshold, "epsilon": args.epsilon,
    })

    def loss_fn(arrays):
        tape = Tape()
        p = CascadeParams.from_arrays(arch, args.seed, arrays).bind(tape)
        # a non-finite loss is reported by finite_difference_check
        with np.errstate(over="ignore", invalid="ignore"):
            scores = forward_cascade(tape, p, enc)
            return multi_loss(scores, enc.gold_spans, enc.gold_uniques,
                              config.weights)

    result = finite_difference_check(loss_fn, params.as_dict(),
                                     epsilon=args.epsilon)
    print(f"max relative error: {result.max_rel_error:.3e} "
          f"(worst parameter: {result.worst_param}{list(result.worst_index)})")
    if result.max_rel_error >= args.threshold:
        print(f"FAIL: above threshold {args.threshold:g}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"OK: below threshold {args.threshold:g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spancascade",
                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a cascade on a JSONL corpus")
    p.add_argument("--data", required=True, help="JSONL corpus path")
    p.add_argument("--embeddings", required=True, help="embedding text file")
    p.add_argument("--dim", type=int, default=300,
                   help="embedding dimension of the file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    p.add_argument("--ablation", help="named ablation configuration")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a JSONL corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--topk", type=int, default=5)
    p.add_argument("--truncate", default=str(corpus.DEFAULT_MAX_TOKENS),
                   help="token cap, or comma list for a sweep")
    p.add_argument("--mode", choices=("wiki", "web"), default="wiki")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="answer one question over one document")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--document", required=True, help="plain-text file")
    p.add_argument("--truncate", type=int, default=corpus.DEFAULT_MAX_TOKENS)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="cascade vs biLSTM throughput")
    p.add_argument("--lengths", default="200,1000,3000,10000")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="bench.csv")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of the full cascade loss")
    p.add_argument("--seed", type=int, default=0, help="parameter init seed")
    p.add_argument("--table-seed", type=int, default=13,
                   help="embedding seed; central differences are only valid "
                        "off ReLU kinks, so noisy seeds exist")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-3)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, DataError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NonFiniteError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ContractError, EmptyCandidateError, DimensionError,
            NoTrainableDataError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
