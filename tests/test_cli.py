"""Command-line surface: subcommands, exit codes, reproducibility."""

import argparse
import json
import os
import re

import pytest

from spancascade import cli
from spancascade.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_UNANSWERABLE,
    EXIT_USAGE,
    build_parser,
    main,
)
from spancascade.corpus import QAExample, load_examples, tokenize, truncate
from spancascade.evaluation import evaluate, rank_candidates
from spancascade.model import load_checkpoint, make_scorer, save_checkpoint


def test_readme_synopsis_lists_every_option():
    """README's Command line block names exactly the options that each
    subcommand's parser defines."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    documented = {}
    for usage in re.split(r"^spancascade ", block, flags=re.M)[1:]:
        command, rest = usage.split(maxsplit=1)
        documented[command] = set(re.findall(r"--[a-z-]+", rest))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    defined = {command: {option for action in sub._actions
                         for option in action.option_strings
                         if option.startswith("--")} - {"--help"}
               for command, sub in subparsers.choices.items()}
    assert documented == defined


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_unknown_flag_is_usage_error():
    assert main(["train", "--nonsense"]) == EXIT_USAGE


def test_train_missing_embeddings_names_path(tmp_path, corpus_path, capsys):
    missing = str(tmp_path / "nope.txt")
    code = main(["train", "--data", corpus_path, "--embeddings", missing,
                 "--dim", "8", "--out", str(tmp_path / "out")])
    assert code == EXIT_IO
    assert missing in capsys.readouterr().err


def test_train_negative_seed_rejected_before_any_file_is_read(tmp_path,
                                                              capsys):
    missing = str(tmp_path / "nope.txt")
    code = main(["train", "--data", missing, "--embeddings", missing,
                 "--dim", "8", "--out", str(tmp_path / "out"), "--seed", "-1"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "usage error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_train_non_positive_dim_is_usage_error(tmp_path, corpus_path,
                                               embeddings_path, dim, capsys):
    code = main(["train", "--data", corpus_path, "--embeddings",
                 embeddings_path, "--dim", dim, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert f"dimension must be positive, got {dim}" in capsys.readouterr().err


def test_train_unknown_config_key(corpus_path, embeddings_path, tmp_path,
                                  capsys):
    code = main(["train", "--data", corpus_path, "--embeddings",
                 embeddings_path, "--dim", "8", "--out", str(tmp_path),
                 "--set", "not_a_key=1"])
    assert code == EXIT_USAGE
    assert "not_a_key" in capsys.readouterr().err


def test_train_writes_outputs_and_echoes_config(trained_dir, capsys):
    assert (trained_dir / "checkpoint.ckpt").exists()
    assert (trained_dir / "metrics.jsonl").exists()
    lines = (trained_dir / "metrics.jsonl").read_text().strip().split("\n")
    assert len(lines) == 3
    assert json.loads(lines[0])["epoch"] == 1


def test_train_rerun_identical_checkpoint(tmp_path, corpus_path,
                                          embeddings_path, trained_dir):
    out2 = tmp_path / "rerun"
    code = main([
        "train", "--data", corpus_path, "--embeddings", embeddings_path,
        "--dim", "8", "--out", str(out2),
        "--set", "hidden_width=8", "--set", "epochs=3", "--seed", "0",
    ])
    assert code == EXIT_OK
    assert ((out2 / "checkpoint.ckpt").read_bytes()
            == (trained_dir / "checkpoint.ckpt").read_bytes())


def test_train_ablation_resolves_weights(tmp_path, corpus_path,
                                         embeddings_path, capsys):
    code = main([
        "train", "--data", corpus_path, "--embeddings", embeddings_path,
        "--dim", "8", "--out", str(tmp_path / "out"),
        "--ablation", "single_loss",
        "--set", "hidden_width=8", "--set", "epochs=1",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "lambda4 = 1.0" in out and "lambda1 = 0.0" in out


# former wiring flags, and Architecture's ``wiring``, which only
# ``ablation`` sets
@pytest.mark.parametrize("key", [
    "single_loss", "drop_level2", "drop_level3", "combined_level1",
    "wiring",
])
def test_train_removed_wiring_key_is_usage_error(tmp_path, corpus_path,
                                                 embeddings_path, key, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = true\n")
    base = ["train", "--data", corpus_path, "--embeddings", embeddings_path,
            "--dim", "8", "--out", str(tmp_path / "out")]
    for extra in (["--set", f"{key}=true"], ["--config", str(conf)]):
        assert main(base + extra) == EXIT_USAGE
        assert repr(key) in capsys.readouterr().err


def test_eval_prints_metrics_and_writes_reports(tmp_path, corpus_path,
                                                embeddings_path, trained_dir,
                                                capsys):
    out = tmp_path / "eval"
    code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                 "--data", corpus_path, "--embeddings", embeddings_path,
                 "--out", str(out), "--topk", "5"])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "EM" in printed and "F1" in printed
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["em"] <= 1.0
    topk_lines = (out / "topk.csv").read_text().strip().split("\n")
    assert len(topk_lines) == 6  # header + 5 rows
    assert (out / "frequency.csv").exists()


def test_eval_empty_corpus_is_usage_error(tmp_path, embeddings_path,
                                          trained_dir):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                 "--data", str(empty), "--embeddings", embeddings_path])
    assert code == EXIT_USAGE


def test_eval_truncation_sweep(tmp_path, corpus_path, embeddings_path,
                               trained_dir, capsys):
    out = tmp_path / "sweep"
    code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                 "--data", corpus_path, "--embeddings", embeddings_path,
                 "--out", str(out), "--truncate", "4,50"])
    assert code == EXIT_OK
    lines = (out / "truncation_sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "limit,em,oracle_em"
    assert len(lines) == 3
    # oracle EM can only improve with a larger budget
    first = float(lines[1].split(",")[2])
    second = float(lines[2].split(",")[2])
    assert second >= first


def test_train_non_object_corpus_line_is_io_error(tmp_path, corpus_path,
                                                 embeddings_path, capsys):
    data = tmp_path / "corpus.jsonl"
    with open(corpus_path) as fh:
        data.write_text(fh.readline() + "42\n")
    code = main(["train", "--data", str(data), "--embeddings", embeddings_path,
                 "--dim", "8", "--out", str(tmp_path / "out")])
    assert code == EXIT_IO
    assert "line 2: expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("question", ["who", "is"]), ("id", 7),
])
def test_train_non_string_corpus_field_is_io_error(tmp_path, corpus_path,
                                                   embeddings_path, field,
                                                   value, capsys):
    data = tmp_path / "corpus.jsonl"
    with open(corpus_path) as fh:
        record = json.loads(fh.readline())
    data.write_text(json.dumps({**record, field: value}) + "\n")
    code = main(["train", "--data", str(data), "--embeddings", embeddings_path,
                 "--dim", "8", "--out", str(tmp_path / "out")])
    assert code == EXIT_IO
    assert f"line 1: field '{field}' must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_corpus_question_without_tokens_is_io_error(tmp_path, corpus_path,
                                                    embeddings_path,
                                                    trained_dir, command,
                                                    capsys):
    data = tmp_path / "corpus.jsonl"
    with open(corpus_path) as fh:
        record = json.loads(fh.readline())
    data.write_text(json.dumps({**record, "question": "   "}) + "\n")
    if command == "train":
        args = ["--dim", "8", "--out", str(tmp_path / "out")]
    else:
        args = ["--checkpoint", str(trained_dir / "checkpoint.ckpt")]
    code = main([command, "--data", str(data), "--embeddings", embeddings_path,
                 *args])
    assert code == EXIT_IO
    assert "line 1: question has no tokens" in capsys.readouterr().err


def test_eval_bad_checkpoint(tmp_path, corpus_path, embeddings_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    code = main(["eval", "--checkpoint", str(bad), "--data", corpus_path,
                 "--embeddings", embeddings_path])
    assert code == EXIT_IO


def test_eval_dimension_mismatch_is_data_error(tmp_path, corpus_path,
                                               trained_dir, capsys):
    # checkpoint expects 8-dim vectors; this file carries 3-dim ones
    small = tmp_path / "small.txt"
    small.write_text("boral 1 0 0\nprelt 0 1 0\n")
    code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                 "--data", corpus_path, "--embeddings", str(small)])
    assert code == EXIT_IO
    assert "expected token plus 8 values" in capsys.readouterr().err


def test_predict_answers_toy_question(tmp_path, embeddings_path, trained_dir,
                                      capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text("boral holds the prelt . boral stands near the stone . "
                   "cindra holds the quost .")
    code = main(["predict", "--checkpoint",
                 str(trained_dir / "checkpoint.ckpt"),
                 "--embeddings", embeddings_path,
                 "--question", "which item holds the prelt ?",
                 "--document", str(doc)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "answer:" in out and "score:" in out and "mentions:" in out


def test_train_eval_predict_share_oov_vectors(tmp_path, corpus_path,
                                              embeddings_path, monkeypatch,
                                              capsys):
    """A model trained with a non-zero seed is scored against the OOV vectors
    it was trained with: every command loads the same bank."""
    missing = {"boral", "prelt", "quost", "ramik", "sovel"}
    vectors = tmp_path / "vectors.txt"
    with open(embeddings_path) as fh:
        vectors.write_text("".join(line for line in fh
                                   if line.split()[0] not in missing))
    tables, load = [], cli.load_embeddings

    def capture(*args):
        tables.append(load(*args))
        return tables[-1]

    monkeypatch.setattr(cli, "load_embeddings", capture)
    run, out = tmp_path / "run", tmp_path / "eval"
    checkpoint = str(run / "checkpoint.ckpt")
    assert main(["train", "--data", corpus_path, "--embeddings", str(vectors),
                 "--dim", "8", "--out", str(run), "--seed", "3",
                 "--set", "hidden_width=8", "--set", "epochs=3"]) == EXIT_OK
    assert main(["eval", "--checkpoint", checkpoint, "--data", corpus_path,
                 "--embeddings", str(vectors), "--out", str(out)]) == EXIT_OK
    with open(corpus_path) as fh:
        text = json.loads(fh.readline())["documents"][0]
    doc = tmp_path / "doc.txt"
    doc.write_text(text)
    question = "which item holds the prelt ?"
    capsys.readouterr()
    assert main(["predict", "--checkpoint", checkpoint, "--embeddings",
                 str(vectors), "--question", question,
                 "--document", str(doc)]) == EXIT_OK
    printed = capsys.readouterr().out

    trained = tables[0]
    assert len(tables) == 3
    for table in tables[1:]:
        assert (table.lookup_all(sorted(missing)).tobytes()
                == trained.lookup_all(sorted(missing)).tobytes())
    scorer = make_scorer(load_checkpoint(checkpoint), trained)
    expected = evaluate(scorer, load_examples(corpus_path))
    assert (out / "report.json").read_text() == expected.to_json()
    scored = scorer(QAExample("predict", tokenize(question).tokens,
                              [truncate(tokenize(text))], []))
    best = rank_candidates(scored)[0]
    assert f"answer: {scored.candidates[best]}\n" in printed
    assert f"score: {scored.scores[best]:.6f}\n" in printed


def _rewrite_header(src, dst, change):
    """Copy a checkpoint with its JSON header replaced by ``change(header)``."""
    data = src.read_bytes()
    magic = data.index(b"\n") + 1
    size = int.from_bytes(data[magic:magic + 8], "little")
    header = change(json.loads(data[magic + 8:magic + 8 + size]))
    blob = json.dumps(header).encode("utf-8")
    dst.write_bytes(data[:magic] + len(blob).to_bytes(8, "little") + blob
                    + data[magic + 8 + size:])


def _ffnn_qs_v_shape(shape_of):
    """A header change that sets ffnn_qs.V's shape to ``shape_of(shape)``."""
    def change(header):
        spec = next(t for t in header["tensors"] if t["name"] == "ffnn_qs.V")
        spec["shape"] = shape_of(spec["shape"])
        return header
    return change


def _arch_field(name, value):
    """A header change that sets the architecture field ``name``."""
    return lambda h: {**h, "arch": {**h["arch"], name: value}}


@pytest.mark.parametrize("change, message", [
    (_arch_field("not_a_field", 1), "not_a_field"),
    (lambda h: {k: v for k, v in h.items() if k != "seed"}, "'seed'"),
    (_ffnn_qs_v_shape(lambda s: s[::-1]), "'ffnn_qs.V' has shape"),
    (lambda h: [h], "unsupported format version None"),
    (_ffnn_qs_v_shape(lambda s: [-3]), "non-negative integers"),
    (_ffnn_qs_v_shape(lambda s: [10**12]), "truncated tensor 'ffnn_qs.V'"),
    (_ffnn_qs_v_shape(lambda s: [10**20]), "truncated tensor 'ffnn_qs.V'"),
    # truncating int() would read [8.7, 18] as the right shape [8, 18]
    (_ffnn_qs_v_shape(lambda s: [s[0] + 0.7] + s[1:]),
     "non-negative integers"),
    # level 3 turned off while its ten tensors stay listed; the first of
    # them by name is the mention transform's
    (_arch_field("wiring", "level12_only"),
     "tensor 'ffnn_agg.U' is not part of the architecture"),
    # (8, 8.0) == (8, 8), so a float dimension would pass the shape checks
    (_arch_field("embed_dim", 8.0), "embed_dim must be a positive integer"),
    (_arch_field("span_limit", 5.0), "span_limit must be a positive integer"),
    (_arch_field("context_size", 1.0),
     "context_size must be a positive integer"),
    (_arch_field("context_size", True),
     "context_size must be a positive integer"),
    (lambda h: {**h, "seed": 1.7}, "seed must be a non-negative integer"),
    (lambda h: {**h, "seed": -1}, "seed must be a non-negative integer"),
    # the version that held four level switches where ``wiring`` is now
    (lambda h: {**h, "format_version": 1}, "unsupported format version 1"),
], ids=["unknown-arch-key", "missing-seed", "transposed-tensor",
        "header-not-an-object", "negative-shape", "huge-shape",
        "overflowing-shape", "fractional-shape", "unexpected-tensors",
        "float-embed-dim", "float-span-limit", "float-context-size",
        "bool-context-size", "fractional-seed", "negative-seed",
        "format-version-1"])
def test_predict_corrupt_checkpoint_header(tmp_path, embeddings_path,
                                           trained_dir, change, message,
                                           capsys):
    bad = tmp_path / "bad.ckpt"
    _rewrite_header(trained_dir / "checkpoint.ckpt", bad, change)
    assert _predict_prelt(tmp_path, embeddings_path, bad) == EXIT_IO
    err = capsys.readouterr().err
    assert str(bad) in err and message in err


def _predict_prelt(tmp_path, embeddings_path, checkpoint):
    doc = tmp_path / "doc.txt"
    doc.write_text("boral holds the prelt .")
    return main(["predict", "--checkpoint", str(checkpoint),
                 "--embeddings", embeddings_path,
                 "--question", "which item holds the prelt ?",
                 "--document", str(doc)])


def _nan_entry(params):
    params.nets["ffnn_qs"].V[0, 0] = float("nan")


def _overflow(params):
    # every first-layer unit is ~1e300, so the second layer overflows
    params.nets["ffnn_qs"].a[:] = 1e300
    params.nets["ffnn_qs"].U[:] = 1e300


@pytest.mark.parametrize("edit, code, message", [
    (_nan_entry, EXIT_IO, "tensor 'ffnn_qs.V' holds non-finite values"),
    (_overflow, EXIT_NUMERIC, "non-finite score at inference"),
], ids=["nan-tensor", "overflowing-weights"])
def test_predict_non_finite_weights(tmp_path, embeddings_path, trained_dir,
                                    edit, code, message, capsys):
    params = load_checkpoint(trained_dir / "checkpoint.ckpt")
    edit(params)
    bad = tmp_path / "edited.ckpt"
    save_checkpoint(bad, params)
    assert _predict_prelt(tmp_path, embeddings_path, bad) == code
    assert message in capsys.readouterr().err


def test_predict_non_utf8_question_is_usage_error(tmp_path, embeddings_path,
                                                  trained_dir, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text("boral holds the prelt .")
    # argv decodes a byte that is not UTF-8 to a lone surrogate
    question = b"which \xff holds the prelt ?".decode("utf-8", "surrogateescape")
    code = main(["predict", "--checkpoint",
                 str(trained_dir / "checkpoint.ckpt"),
                 "--embeddings", embeddings_path,
                 "--question", question, "--document", str(doc)])
    assert code == EXIT_USAGE
    assert "--question is not UTF-8 text" in capsys.readouterr().err


def test_predict_unanswerable_empty_document(tmp_path, embeddings_path,
                                             trained_dir, capsys):
    doc = tmp_path / "empty.txt"
    doc.write_text("")
    code = main(["predict", "--checkpoint",
                 str(trained_dir / "checkpoint.ckpt"),
                 "--embeddings", embeddings_path,
                 "--question", "which item ?", "--document", str(doc)])
    assert code == EXIT_UNANSWERABLE
    assert "unanswerable" in capsys.readouterr().out


def test_predict_respects_truncate_flag(tmp_path, embeddings_path,
                                        trained_dir, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text("boral holds the prelt . cindra holds the quost .")
    code = main(["predict", "--checkpoint",
                 str(trained_dir / "checkpoint.ckpt"),
                 "--embeddings", embeddings_path,
                 "--question", "which item holds the quost ?",
                 "--document", str(doc), "--truncate", "5"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    # the second sentence was cut away, so its entity cannot be predicted
    assert "cindra" not in out.split("answer:")[1].split("\n")[0]


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--lengths", "40,80",
                 "--reps", "1", "--dim", "8", "--hidden", "8",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,cascade_ms,baseline_ms,speedup,cascade_peak_mb"
    assert len(lines) == 3


def test_bench_rejects_unsorted_lengths(tmp_path):
    code = main(["bench", "--lengths", "100,50", "--reps", "1",
                 "--out", str(tmp_path / "b.csv")])
    assert code == EXIT_USAGE


def _runnable(command, tmp_path, corpus_path, embeddings_path, trained_dir):
    """Arguments with which ``command`` runs, for a test to add one flag to
    or to override one of."""
    checkpoint = str(trained_dir / "checkpoint.ckpt")
    return {
        "train": ["--data", corpus_path, "--embeddings", embeddings_path,
                  "--dim", "8", "--out", str(tmp_path / "out")],
        "eval": ["--checkpoint", checkpoint, "--data", corpus_path,
                 "--embeddings", embeddings_path, "--out", str(tmp_path)],
        "predict": ["--checkpoint", checkpoint, "--embeddings",
                    embeddings_path, "--question", "which item ?",
                    "--document", corpus_path],
        "bench": ["--reps", "1", "--out", str(tmp_path / "b.csv")],
    }.get(command, [])


@pytest.mark.parametrize("args, message", [
    (["eval", "--truncate", "abc"], "--truncate expects comma-separated "
                                    "integers, got 'abc'"),
    (["eval", "--truncate", "5,abc"], "got '5,abc'"),
    (["bench", "--lengths", "10,abc"], "--lengths expects comma-separated "
                                       "integers, got '10,abc'"),
    (["bench", "--lengths", ""], "--lengths expects comma-separated "
                                 "integers, got ''"),
    (["gradcheck", "--dim", "-1"], "dimension must be positive, got -1"),
    (["gradcheck", "--dim", "0"], "dimension must be positive, got 0"),
    (["gradcheck", "--epsilon", "nan"], "epsilon must be positive and finite, "
                                        "got nan"),
    (["train", "--seed", "-1"], "usage error: seed must be >= 0, got -1"),
    (["gradcheck", "--seed", "-1"], "parameter seed must be >= 0, got -1"),
    (["gradcheck", "--table-seed", "-1"], "table seed must be >= 0, got -1"),
    (["bench", "--seed", "-1"], "parameter seed must be >= 0, got -1"),
    (["train", "--set", "learning_rate=nan"],
     "learning_rate must be positive and finite, got nan"),
    (["train", "--set", "learning_rate=inf"],
     "learning_rate must be positive and finite, got inf"),
    (["train", "--set", "accumulator_init=nan"],
     "accumulator_init must be positive and finite, got nan"),
    (["gradcheck", "--threshold", "nan"],
     "--threshold must be positive and finite, got nan"),
    (["gradcheck", "--threshold", "inf"],
     "--threshold must be positive and finite, got inf"),
    (["train", "--set", "max_tokens=0"], "max_tokens must be positive, got 0"),
    (["train", "--set", "max_sentence_len=-1"],
     "max_sentence_len must be positive, got -1"),
], ids=["truncate-word", "truncate-list", "lengths-list", "lengths-empty",
        "dim-negative", "dim-zero", "epsilon-nan", "train-seed",
        "gradcheck-seed", "gradcheck-table-seed", "bench-seed",
        "learning-rate-nan",
        "learning-rate-inf", "accumulator-init-nan", "threshold-nan",
        "threshold-inf", "max-tokens-zero", "max-sentence-len-negative"])
def test_malformed_number_is_usage_error(args, message, tmp_path, corpus_path,
                                         embeddings_path, trained_dir, capsys):
    args = args + _runnable(args[0], tmp_path, corpus_path, embeddings_path,
                            trained_dir)
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, flag, code", [
    ("train", "--data", EXIT_IO),
    ("train", "--embeddings", EXIT_IO),
    ("train", "--config", EXIT_USAGE),
    ("eval", "--data", EXIT_IO),
    ("predict", "--document", EXIT_IO),
])
def test_non_utf8_file_is_one_line_naming_it(command, flag, code, tmp_path,
                                             corpus_path, embeddings_path,
                                             trained_dir, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"epochs = 1\ncaf\xe9 \xff\n")
    args = _runnable(command, tmp_path, corpus_path, embeddings_path,
                     trained_dir)
    if flag in args:
        args[args.index(flag) + 1] = str(bad)
    else:
        args += [flag, str(bad)]
    assert main([command] + args) == code
    err = capsys.readouterr().err
    assert f"{bad} is not UTF-8 text" in err
    assert err.count("\n") == 1


def test_train_diverging_learning_rate_is_one_numeric_error(
        tmp_path, corpus_path, embeddings_path, capsys):
    code = main(["train", "--data", corpus_path, "--embeddings",
                 embeddings_path, "--dim", "8", "--out", str(tmp_path),
                 "--set", "hidden_width=8", "--set", "epochs=1",
                 "--set", "learning_rate=1e300"])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: non-finite loss")
    assert err.count("\n") == 1


def test_gradcheck_passes_and_prints(capsys):
    code = main(["gradcheck"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "max relative error" in out


def test_gradcheck_impossible_threshold_fails(capsys):
    code = main(["gradcheck", "--threshold", "1e-18"])
    assert code == EXIT_NUMERIC
