"""Embedding loader, normalization, and OOV hashing behavior."""

import io

import numpy as np
import pytest

from spancascade.embeddings import (
    OOV_BANK_SIZE,
    EmbeddingTable,
    load_embeddings,
    oov_bucket,
    random_table,
)
from spancascade.errors import ContractError, DataError, ParseError


def test_load_normalizes_vectors():
    table = load_embeddings("the 0.1 0.2 0.2\n", 3)
    np.testing.assert_allclose(table.lookup("the"),
                               [1 / 3, 2 / 3, 2 / 3], rtol=1e-12)


def test_all_loaded_vectors_unit_norm():
    rng = np.random.default_rng(0)
    lines = []
    for i in range(50):
        vec = rng.uniform(-5, 5, 4)
        lines.append(f"tok{i} " + " ".join(f"{v:.6f}" for v in vec))
    table = load_embeddings("\n".join(lines) + "\n", 4)
    for i in range(50):
        assert abs(np.linalg.norm(table.lookup(f"tok{i}")) - 1.0) < 1e-6


def test_empty_stream_gives_empty_table():
    table = load_embeddings(io.StringIO(""), 7)
    assert len(table) == 0
    assert table.dimension == 7


def test_wrong_component_count_names_line():
    with pytest.raises(ParseError, match="line 2"):
        load_embeddings("a 1 2 3\nb 1 2\n", 3)


def test_bad_number_names_line():
    with pytest.raises(ParseError, match="line 1"):
        load_embeddings("a 1 2 oops\n", 3)


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "1e999"])
def test_non_finite_value_names_line(bad):
    with pytest.raises(ParseError, match="line 2: non-finite"):
        load_embeddings(f"a 1 2\nb 1 {bad}\n", 2)


def test_extreme_magnitudes_normalize_to_unit_vectors():
    table = load_embeddings("a 1e200 -1e200\nb 1e-200 0\n", 2)
    np.testing.assert_allclose(table.lookup("a"), [0.5 ** 0.5, -0.5 ** 0.5],
                               rtol=1e-15)
    np.testing.assert_array_equal(table.lookup("b"), [1.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructor_rejects_non_finite_vector(bad):
    with pytest.raises(DataError, match="non-finite vector for token 'a'"):
        EmbeddingTable({"a": [bad, 1.0]}, 2)


def test_zero_norm_vector_rejected():
    with pytest.raises(DataError):
        load_embeddings("a 0 0 0\n", 3)


def test_duplicate_token_first_wins():
    table = load_embeddings("a 1 0\na 0 1\n", 2)
    np.testing.assert_array_equal(table.lookup("a"), [1.0, 0.0])


def test_lookup_case_folds():
    table = load_embeddings("Paris 0 1\n", 2)
    np.testing.assert_array_equal(table.lookup("PARIS"), table.lookup("paris"))
    np.testing.assert_array_equal(table.lookup("Paris"), [0.0, 1.0])


def test_oov_deterministic_and_from_bank():
    table = load_embeddings("a 1 0\n", 2, seed=5)
    v1 = table.lookup("zzz-not-there")
    v2 = table.lookup("zzz-not-there")
    assert v1.tobytes() == v2.tobytes()
    bucket = oov_bucket("zzz-not-there", 5)
    np.testing.assert_array_equal(v1, table.oov_bank[bucket])


def test_oov_bank_standard_normal_not_renormalized():
    table = EmbeddingTable({}, 300, seed=1)
    bank = table.oov_bank
    assert bank.shape == (OOV_BANK_SIZE, 300)
    # N(0,1) coordinates: vector norms concentrate near sqrt(300), not 1
    norms = np.linalg.norm(bank, axis=1)
    assert abs(np.mean(norms) - np.sqrt(300)) < 1.0


def test_oov_bucket_spread_hits_every_bucket():
    rng = np.random.default_rng(123)
    letters = "abcdefghijklmnopqrstuvwxyz"
    seen = set()
    for _ in range(10 ** 5):
        token = "".join(letters[i] for i in rng.integers(0, 26, size=8))
        seen.add(oov_bucket(token, seed=0))
    assert seen == set(range(OOV_BANK_SIZE))


def test_two_tokens_can_share_bucket():
    # 1001 distinct tokens must collide somewhere in a 1000-slot bank
    buckets = [oov_bucket(f"token-{i}", seed=0) for i in range(1001)]
    assert len(set(buckets)) < len(buckets)


def test_lookup_rejects_empty_token():
    table = EmbeddingTable({}, 3)
    with pytest.raises(ContractError):
        table.lookup("")


def test_lookup_all_stacks():
    table = load_embeddings("a 1 0\nb 0 1\n", 2)
    mat = table.lookup_all(["a", "b", "a"])
    assert mat.shape == (3, 2)
    np.testing.assert_array_equal(mat[0], mat[2])


def test_table_rejects_bad_dimension():
    with pytest.raises(ContractError):
        EmbeddingTable({}, 0)
    with pytest.raises(DataError):
        EmbeddingTable({"a": np.ones(3)}, 2)


def test_random_table_unit_vectors():
    table = random_table(["x", "y"], 8, seed=3)
    assert abs(np.linalg.norm(table.lookup("x")) - 1.0) < 1e-9
    t2 = random_table(["x", "y"], 8, seed=3)
    assert table.lookup("y").tobytes() == t2.lookup("y").tobytes()


def test_load_from_file(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("hello 3 4\n")
    table = load_embeddings(str(path), 2)
    np.testing.assert_allclose(table.lookup("hello"), [0.6, 0.8], rtol=1e-12)
