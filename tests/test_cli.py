"""Command-line surface: subcommands, exit codes, reproducibility."""

import json
import os

import pytest

from spancascade.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_UNANSWERABLE,
    EXIT_USAGE,
    main,
)
from spancascade.model import load_checkpoint, save_checkpoint


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


@pytest.mark.parametrize("key", [
    "single_loss", "drop_level2", "drop_level3", "combined_level1",
    "level1_mode",
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


@pytest.mark.parametrize("change", [
    lambda h: {**h, "arch": {**h["arch"], "not_a_field": 1}},
    lambda h: {k: v for k, v in h.items() if k != "seed"},
    _ffnn_qs_v_shape(lambda s: s[::-1]),
    lambda h: [h],
    _ffnn_qs_v_shape(lambda s: [-3]),
    _ffnn_qs_v_shape(lambda s: [10**12]),
    _ffnn_qs_v_shape(lambda s: [10**20]),
    # truncating int() would read [8.7, 18] as the right shape [8, 18]
    _ffnn_qs_v_shape(lambda s: [s[0] + 0.7] + s[1:]),
    # level 3 switched off while its ten tensors stay listed
    lambda h: {**h, "arch": {**h["arch"], "use_level3": False}},
], ids=["unknown-arch-key", "missing-seed", "transposed-tensor",
        "header-not-an-object", "negative-shape", "huge-shape",
        "overflowing-shape", "fractional-shape", "unexpected-tensors"])
def test_predict_corrupt_checkpoint_header(tmp_path, embeddings_path,
                                           trained_dir, change, capsys):
    bad = tmp_path / "bad.ckpt"
    _rewrite_header(trained_dir / "checkpoint.ckpt", bad, change)
    assert _predict_prelt(tmp_path, embeddings_path, bad) == EXIT_IO
    assert str(bad) in capsys.readouterr().err


def _predict_prelt(tmp_path, embeddings_path, checkpoint):
    doc = tmp_path / "doc.txt"
    doc.write_text("boral holds the prelt .")
    return main(["predict", "--checkpoint", str(checkpoint),
                 "--embeddings", embeddings_path,
                 "--question", "which item holds the prelt ?",
                 "--document", str(doc)])


def _nan_entry(params):
    params.ffnn_qs.V[0, 0] = float("nan")


def _overflow(params):
    # every first-layer unit is ~1e300, so the second layer overflows
    params.ffnn_qs.a[:] = 1e300
    params.ffnn_qs.U[:] = 1e300


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
    assert lines[0] == "n,cascade_ms,baseline_ms,speedup"
    assert len(lines) == 3


def test_bench_rejects_unsorted_lengths(tmp_path):
    code = main(["bench", "--lengths", "100,50", "--reps", "1",
                 "--out", str(tmp_path / "b.csv")])
    assert code == EXIT_USAGE


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
], ids=["truncate-word", "truncate-list", "lengths-list", "lengths-empty",
        "dim-negative", "dim-zero", "epsilon-nan"])
def test_malformed_number_is_usage_error(args, message, tmp_path, corpus_path,
                                         embeddings_path, trained_dir, capsys):
    if args[0] == "eval":
        args = args + ["--checkpoint", str(trained_dir / "checkpoint.ckpt"),
                       "--data", corpus_path, "--embeddings", embeddings_path,
                       "--out", str(tmp_path)]
    elif args[0] == "bench":
        args = args + ["--reps", "1", "--out", str(tmp_path / "b.csv")]
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert message in err


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
