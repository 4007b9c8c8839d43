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
    table = load_embeddings(io.StringIO("the 0.1 0.2 0.2\n"), 3)
    np.testing.assert_allclose(table.lookup("the"),
                               [1 / 3, 2 / 3, 2 / 3], rtol=1e-12)


def test_all_loaded_vectors_unit_norm():
    rng = np.random.default_rng(0)
    lines = []
    for i in range(50):
        vec = rng.uniform(-5, 5, 4)
        lines.append(f"tok{i} " + " ".join(f"{v:.6f}" for v in vec))
    table = load_embeddings(io.StringIO("\n".join(lines) + "\n"), 4)
    for i in range(50):
        assert abs(np.linalg.norm(table.lookup(f"tok{i}")) - 1.0) < 1e-6


def test_empty_stream_gives_empty_table():
    table = load_embeddings(io.StringIO(""), 7)
    assert len(table) == 0
    assert table.dimension == 7


def test_wrong_component_count_names_line():
    with pytest.raises(ParseError, match="line 2"):
        load_embeddings(io.StringIO("a 1 2 3\nb 1 2\n"), 3)


def test_bad_number_names_line():
    with pytest.raises(ParseError, match="line 1"):
        load_embeddings(io.StringIO("a 1 2 oops\n"), 3)


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "1e999"])
def test_non_finite_value_names_line(bad):
    with pytest.raises(ParseError, match="line 2: non-finite"):
        load_embeddings(io.StringIO(f"a 1 2\nb 1 {bad}\n"), 2)


def test_extreme_magnitudes_normalize_to_unit_vectors():
    table = load_embeddings(io.StringIO("a 1e200 -1e200\nb 1e-200 0\n"), 2)
    np.testing.assert_allclose(table.lookup("a"), [0.5 ** 0.5, -0.5 ** 0.5],
                               rtol=1e-15)
    np.testing.assert_array_equal(table.lookup("b"), [1.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructor_rejects_non_finite_vector(bad):
    with pytest.raises(DataError, match="non-finite vector for token 'a'"):
        EmbeddingTable(["a"], [[bad, 1.0]])


def test_constructor_names_first_bad_token():
    vectors = [[1.0, 0.0], [0.0, 0.0], [np.nan, 1.0], [0.0, 0.0]]
    with pytest.raises(DataError, match="zero-norm vector for token 'b'"):
        EmbeddingTable(["a", "b", "c", "d"], vectors)
    # a repeated token's later row is dropped unchecked
    table = EmbeddingTable(["a", "A"], [[1.0, 0.0], [np.nan, 0.0]])
    np.testing.assert_array_equal(table.lookup("a"), [1.0, 0.0])


def test_zero_norm_vector_rejected():
    with pytest.raises(DataError):
        load_embeddings(io.StringIO("a 0 0 0\n"), 3)


def test_duplicate_token_first_wins():
    table = load_embeddings(io.StringIO("a 1 0\na 0 1\n"), 2)
    np.testing.assert_array_equal(table.lookup("a"), [1.0, 0.0])


def test_repeated_token_after_lowercasing_keeps_first_in_both_loaders():
    loaded = load_embeddings(io.StringIO("A 1 0\na 0 1\n"), 2)
    assert len(loaded) == 1
    np.testing.assert_array_equal(loaded.lookup("a"), [1.0, 0.0])
    drawn = random_table(["A", "a"], 4, seed=3)
    first = np.random.default_rng(3).standard_normal(4)
    assert len(drawn) == 1
    assert drawn.lookup("a").tobytes() == (first / np.linalg.norm(first)).tobytes()


def test_lookup_case_folds():
    table = load_embeddings(io.StringIO("Paris 0 1\n"), 2)
    np.testing.assert_array_equal(table.lookup("PARIS"), table.lookup("paris"))
    np.testing.assert_array_equal(table.lookup("Paris"), [0.0, 1.0])


def test_oov_deterministic_and_from_bank():
    table = load_embeddings(io.StringIO("a 1 0\n"), 2)
    v1 = table.lookup("zzz-not-there")
    v2 = table.lookup("zzz-not-there")
    assert v1.tobytes() == v2.tobytes()
    bucket = oov_bucket("zzz-not-there")
    np.testing.assert_array_equal(v1, table.oov_bank[bucket])
    other = random_table(["b", "c"], 2, seed=5)
    assert other.lookup("zzz-not-there").tobytes() == v1.tobytes()


def test_oov_bank_is_fixed_and_buckets_keep_their_values():
    """Every table draws its bank from default_rng(0), and the buckets are
    the ones a seed-0 table always had, so seed-0 checkpoints stay valid."""
    for dimension in (2, 16):
        bank = np.random.default_rng(0).standard_normal((OOV_BANK_SIZE,
                                                         dimension))
        loaded = load_embeddings(io.StringIO(
            "a " + " ".join(["1"] * dimension) + "\n"), dimension)
        drawn = random_table(["x", "y"], dimension, seed=7)
        assert loaded.oov_bank.tobytes() == bank.tobytes()
        assert drawn.oov_bank.tobytes() == bank.tobytes()
    tokens = [".", "?", "which", "zzz-not-there", "paris"]
    assert [oov_bucket(t) for t in tokens] == [617, 782, 482, 6, 904]


def test_oov_bank_standard_normal_not_renormalized():
    table = EmbeddingTable([], np.empty((0, 300)))
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
        seen.add(oov_bucket(token))
    assert seen == set(range(OOV_BANK_SIZE))


def test_two_tokens_can_share_bucket():
    # 1001 distinct tokens must collide somewhere in a 1000-slot bank
    buckets = [oov_bucket(f"token-{i}") for i in range(1001)]
    assert len(set(buckets)) < len(buckets)


def test_lookup_rejects_empty_token():
    table = EmbeddingTable([], np.empty((0, 3)))
    with pytest.raises(ContractError):
        table.lookup("")
    with pytest.raises(ContractError):
        table.lookup_all(["a", ""])


def test_lookup_all_stacks():
    table = load_embeddings(io.StringIO("a 1 0\nb 0 1\n"), 2)
    mat = table.lookup_all(["a", "b", "a"])
    assert mat.shape == (3, 2)
    np.testing.assert_array_equal(mat[0], mat[2])


def test_table_rejects_bad_dimension():
    with pytest.raises(ContractError, match="dimension must be positive, got 0"):
        EmbeddingTable([], np.empty((0, 0)))
    with pytest.raises(DataError):
        EmbeddingTable(["a", "b"], np.ones((1, 2)))
    with pytest.raises(DataError):
        EmbeddingTable(["a"], np.ones(3))


@pytest.mark.parametrize("dimension", [0, -1])
def test_load_rejects_bad_dimension_before_reading(dimension):
    def lines():
        raise AssertionError("a line was read")
        yield  # a generator that fails on its first line

    with pytest.raises(ContractError, match=f"got {dimension}"):
        load_embeddings(lines(), dimension)


def test_random_table_unit_vectors():
    table = random_table(["x", "y"], 8, seed=3)
    assert abs(np.linalg.norm(table.lookup("x")) - 1.0) < 1e-9
    t2 = random_table(["x", "y"], 8, seed=3)
    assert table.lookup("y").tobytes() == t2.lookup("y").tobytes()


def _per_token_vectors(n, dimension, seed):
    """The reference: one draw per token, each divided by its own norm."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        arr = rng.standard_normal(dimension)
        rows.append(arr / np.linalg.norm(arr))
    return np.stack(rows)


@pytest.mark.parametrize("dimension", [16, 50, 100])
def test_random_table_matches_per_token_reference(dimension):
    tokens = [f"w{i}" for i in range(3000)]
    table = random_table(tokens, dimension, seed=11)
    reference = _per_token_vectors(len(tokens), dimension, seed=11)
    assert table.lookup_all(tokens).tobytes() == reference.tobytes()
    bank = np.random.default_rng(0).standard_normal((OOV_BANK_SIZE, dimension))
    assert table.oov_bank.tobytes() == bank.tobytes()


def test_lookup_all_equals_stacked_lookups_and_rows_are_read_only():
    table = random_table(["Alpha", "beta", "gamma"], 6, seed=2)
    tokens = ["alpha", "ALPHA", "Beta", "gamma", "unseen", "Unseen", "zeta"]
    np.testing.assert_array_equal(table.lookup_all(tokens),
                                  np.stack([table.lookup(t) for t in tokens]))
    assert table.lookup_all([]).shape == (0, 6)
    for token in ("beta", "unseen"):
        row = table.lookup(token)
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 1.0
    assert not table.oov_bank.flags.writeable


def test_lookup_all_hashes_each_distinct_oov_token_once(monkeypatch):
    from spancascade import embeddings

    table = random_table(["alpha", "beta"], 4, seed=3)
    tokens = ["Zork", "alpha", "zork", "qux", "ZORK", "beta", "qux", "alpha"]
    expected = np.stack([table.lookup(t) for t in tokens])
    hashed = []

    def counting_bucket(token):
        hashed.append(token)
        return oov_bucket(token)

    monkeypatch.setattr(embeddings, "oov_bucket", counting_bucket)
    assert table.lookup_all(tokens).tobytes() == expected.tobytes()
    assert sorted(hashed) == ["qux", "zork"]


def test_load_from_file(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("hello 3 4\n")
    table = load_embeddings(str(path), 2)
    np.testing.assert_allclose(table.lookup("hello"), [0.6, 0.8], rtol=1e-12)


def test_load_from_path_object(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("hello 3 4")  # no trailing newline
    table = load_embeddings(path, 2)
    np.testing.assert_allclose(table.lookup("hello"), [0.6, 0.8], rtol=1e-12)
