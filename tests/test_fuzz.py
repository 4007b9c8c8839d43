"""Property tests: the loaders end in a package error or a result, never
in any other exception, whatever text, JSON or bytes they are given."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancascade import errors
from spancascade.corpus import load_examples
from spancascade.embeddings import load_embeddings
from spancascade.model import (
    CHECKPOINT_MAGIC,
    Architecture,
    CascadeParams,
    load_checkpoint,
    save_checkpoint,
)

PACKAGE_ERRORS = tuple(
    v for v in vars(errors).values()
    if isinstance(v, type) and issubclass(v, Exception)
)

FIELDS = ("id", "question", "documents", "answers")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# records with every field present, some well-typed, plus arbitrary JSON
records = st.one_of(
    json_values,
    st.fixed_dictionaries({
        "id": json_values,
        "question": st.text() | json_values,
        "documents": st.lists(st.text()) | json_values,
        "answers": st.lists(st.text()) | json_values,
    }),
)
lines = st.one_of(records.map(json.dumps), st.text())


def _outcome(load, text):
    try:
        load(io.StringIO(text))
    except PACKAGE_ERRORS:
        pass


@settings(derandomize=True, deadline=None)
@given(st.lists(lines, max_size=4))
def test_load_examples_random_lines(rows):
    _outcome(load_examples, "\n".join(rows) + "\n")


@settings(derandomize=True, deadline=None)
@given(st.text() | st.lists(
    st.lists(st.text(max_size=6) | st.floats().map(repr), min_size=1,
             max_size=4).map(" ".join), max_size=4).map("\n".join))
def test_load_embeddings_random_text(text):
    _outcome(lambda src: load_embeddings(src, 2), text)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A valid checkpoint's bytes, and a path to write corrupt copies to."""
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    params = CascadeParams.initialize(Architecture(embed_dim=2, hidden_width=2), 0)
    save_checkpoint(path, params)
    return path.read_bytes(), path


def _with_shape(data, tensor, shape) -> bytes:
    """``data`` with one tensor's header shape (index mod count) replaced."""
    at = len(CHECKPOINT_MAGIC) + 8
    size = int.from_bytes(data[at - 8:at], "little")
    header = json.loads(data[at:at + size])
    specs = header["tensors"]
    specs[tensor % len(specs)]["shape"] = shape
    blob = json.dumps(header).encode("utf-8")
    return (data[:at - 8] + len(blob).to_bytes(8, "little") + blob
            + data[at + size:])


dimensions = (st.integers() | st.sampled_from([-1, 2**40, 10**20])
              | st.floats() | st.booleans() | st.none() | st.text(max_size=2))
positions = st.integers(min_value=0)
corruptions = st.one_of(
    st.tuples(st.just("cut"), positions),
    st.tuples(st.just("overwrite"),
              st.lists(st.tuples(positions, st.integers(0, 255)),
                       min_size=1, max_size=4)),
    st.tuples(st.just("shape"), positions,
              st.lists(dimensions, max_size=3) | dimensions),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(corruption=corruptions)
def test_load_checkpoint_corrupt_bytes(checkpoint, corruption):
    data, path = checkpoint
    kind, *args = corruption
    if kind == "cut":
        data = data[:args[0] % (len(data) + 1)]
    elif kind == "overwrite":
        data = bytearray(data)
        for pos, byte in args[0]:
            data[pos % len(data)] = byte
    else:
        data = _with_shape(data, *args)
    path.write_bytes(bytes(data))
    try:
        load_checkpoint(path)
    except errors.CheckpointError:
        pass
