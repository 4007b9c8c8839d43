"""Shared fixtures: a small on-disk corpus, embeddings, and a checkpoint."""

import json

import numpy as np
import pytest

WORDS = [
    "boral", "cindra", "dorax", "elvan",
    "prelt", "quost", "ramik", "sovel",
    "stone", "river", "tower", "garden",
    "which", "item", "holds", "stands", "near", "the", "and", ".", "?",
]


def _record(idx, answer, cue, distractor, alt_cue, filler):
    doc = (f"{answer} holds the {cue} . "
           f"{answer} stands near the {filler} . "
           f"{distractor} holds the {alt_cue} .")
    return {
        "id": f"ex{idx}",
        "question": f"which item holds the {cue} ?",
        "documents": [doc],
        "answers": [answer],
    }


@pytest.fixture
def softmax_spy(monkeypatch):
    """Every probability vector ``autodiff._softmax`` returns, one per row."""
    from spancascade import autodiff

    vectors = []
    softmax = autodiff._softmax

    def spy(v, axis):
        y = softmax(v, axis)
        vectors.extend(np.array(row) for row in
                       np.moveaxis(y, axis, -1).reshape(-1, y.shape[axis]))
        return y

    monkeypatch.setattr(autodiff, "_softmax", spy)
    return vectors


@pytest.fixture(scope="session")
def corpus_path(tmp_path_factory):
    rng = np.random.default_rng(5)
    entities = ["boral", "cindra", "dorax", "elvan"]
    cues = ["prelt", "quost", "ramik", "sovel"]
    fillers = ["stone", "river", "tower", "garden"]
    records = []
    for i in range(8):
        ents = rng.choice(4, size=2, replace=False)
        cs = rng.choice(4, size=2, replace=False)
        records.append(_record(
            i, entities[int(ents[0])], cues[int(cs[0])],
            entities[int(ents[1])], cues[int(cs[1])],
            fillers[int(rng.integers(0, 4))]))
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return str(path)


@pytest.fixture(scope="session")
def embeddings_path(tmp_path_factory):
    rng = np.random.default_rng(9)
    lines = []
    for w in WORDS:
        vec = rng.normal(size=8)
        lines.append(w + " " + " ".join(f"{v:.8f}" for v in vec))
    path = tmp_path_factory.mktemp("emb") / "vectors.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="session")
def trained_dir(tmp_path_factory, corpus_path, embeddings_path):
    from spancascade.cli import main

    out = tmp_path_factory.mktemp("run")
    code = main([
        "train", "--data", corpus_path, "--embeddings", embeddings_path,
        "--dim", "8", "--out", str(out),
        "--set", "hidden_width=8", "--set", "epochs=3", "--seed", "0",
    ])
    assert code == 0
    return out
