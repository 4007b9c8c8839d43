"""Fixed pretrained word vectors with deterministic out-of-vocabulary hashing.

Vectors are loaded from the common text interchange format (one token per
line followed by whitespace-separated decimals), unit-normalized, and never
updated. Tokens missing from the vocabulary map onto a bank of 1000 fixed
random vectors via FNV-1a hashing, so the same token always gets the same
vector across runs and platforms.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ContractError, DataError, ParseError, open_text

OOV_BANK_SIZE = 1000

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash; stable, public, non-cryptographic."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def oov_bucket(token: str, seed: int) -> int:
    """Bucket in [0, 1000) for an out-of-vocabulary token.

    The table seed is mixed in as 8 little-endian bytes ahead of the
    UTF-8 token bytes, so different tables shuffle tokens differently.
    """
    data = (seed & _MASK64).to_bytes(8, "little") + token.encode("utf-8")
    return fnv1a64(data) % OOV_BANK_SIZE


class EmbeddingTable:
    """Immutable token -> vector map plus the hashed OOV bank.

    In-vocabulary vectors are L2-normalized at construction; the OOV bank
    is drawn coordinate-wise from N(0, 1) using the table seed and is kept
    unnormalized. Lookups case-fold to lowercase. Safe for unrestricted
    concurrent reads.
    """

    def __init__(self, vectors: dict[str, np.ndarray], dimension: int, seed: int = 0):
        if dimension <= 0:
            raise ContractError(f"dimension must be positive, got {dimension}")
        if seed < 0:
            raise ContractError(f"table seed must be >= 0, got {seed}")
        self.dimension = int(dimension)
        self.seed = int(seed)
        vocab = {}
        for token, vec in vectors.items():
            key = token.lower()
            if key in vocab:
                continue  # first occurrence wins
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (self.dimension,):
                raise DataError(
                    f"vector for {token!r} has shape {arr.shape}, "
                    f"expected ({self.dimension},)"
                )
            if not np.all(np.isfinite(arr)):
                raise DataError(f"non-finite vector for token {token!r}")
            if not arr.any():
                raise DataError(f"zero-norm vector for token {token!r}")
            with np.errstate(over="ignore"):
                norm = np.linalg.norm(arr)
            if not 0.0 < norm < np.inf:  # the squares over- or underflowed
                arr = arr / np.abs(arr).max()
                norm = np.linalg.norm(arr)
            arr = arr / norm
            arr.setflags(write=False)
            vocab[key] = arr
        self._vocab = vocab
        bank = np.random.default_rng(self.seed).standard_normal(
            (OOV_BANK_SIZE, self.dimension)
        )
        bank.setflags(write=False)
        self._oov_bank = bank

    def __len__(self):
        return len(self._vocab)

    def __contains__(self, token: str) -> bool:
        return token.lower() in self._vocab

    @property
    def oov_bank(self) -> np.ndarray:
        return self._oov_bank

    def lookup(self, token: str) -> np.ndarray:
        """Vector for a token; OOV tokens hash into the fixed bank."""
        if not token:
            raise ContractError("lookup of an empty token")
        key = token.lower()
        vec = self._vocab.get(key)
        if vec is not None:
            return vec
        return self._oov_bank[oov_bucket(key, self.seed)]

    def lookup_all(self, tokens) -> np.ndarray:
        """Stack lookups into an (n, dimension) matrix."""
        if not tokens:
            return np.zeros((0, self.dimension))
        return np.stack([self.lookup(t) for t in tokens])


def load_embeddings(source, dimension: int, seed: int = 0) -> EmbeddingTable:
    """Parse `token v1 ... v_dimension` lines into an EmbeddingTable.

    ``source`` is a path (``str`` or ``os.PathLike``), which is opened as
    UTF-8 (a byte that does not decode raises DataError), or any iterable
    of text lines such as an open text stream. Duplicate tokens keep their
    first occurrence; malformed lines, including nan or infinite values,
    raise ParseError with the line number; zero-norm vectors raise
    DataError. A dimension below 1 raises ContractError before any line
    is read.
    """
    if dimension < 1:
        raise ContractError(f"dimension must be positive, got {dimension}")
    if isinstance(source, (str, os.PathLike)):
        with open_text(source) as fh:
            return load_embeddings(fh, dimension, seed)
    vectors: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != dimension + 1:
            raise ParseError(
                f"expected token plus {dimension} values, got {len(parts)} fields",
                line_number=lineno,
            )
        token = parts[0]
        try:
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", line_number=lineno) from None
        if not np.all(np.isfinite(vec)):
            raise ParseError(f"non-finite value for token {token!r}",
                             line_number=lineno)
        if token.lower() in vectors:
            continue
        if not vec.any():
            raise DataError(f"line {lineno}: zero-norm vector for token {token!r}")
        vectors[token.lower()] = vec
    return EmbeddingTable(vectors, dimension, seed)


def random_table(tokens, dimension: int, seed: int = 0) -> EmbeddingTable:
    """In-vocabulary table with seeded random unit vectors for each token.

    Used by the synthetic corpora so that no two tokens collide the way
    OOV bank buckets can.
    """
    if dimension < 1:
        raise ContractError(f"dimension must be positive, got {dimension}")
    if seed < 0:
        raise ContractError(f"table seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    vectors = {}
    for token in tokens:
        v = rng.standard_normal(dimension)
        while np.linalg.norm(v) == 0.0:
            v = rng.standard_normal(dimension)
        vectors[token.lower()] = v
    return EmbeddingTable(vectors, dimension, seed)
