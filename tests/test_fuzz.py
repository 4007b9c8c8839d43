"""Property tests: the loaders end in a package error or a result, never
in any other exception, whatever text or JSON they are given."""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from spancascade import errors
from spancascade.corpus import load_examples
from spancascade.embeddings import load_embeddings

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
