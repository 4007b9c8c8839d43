"""Fixed pretrained word vectors with deterministic out-of-vocabulary hashing.

Vectors are loaded from the common text interchange format (one token per
line followed by whitespace-separated decimals), unit-normalized, and never
updated. Tokens missing from the vocabulary map onto one fixed bank of 1000
random vectors via FNV-1a hashing, so the same token always gets the same
vector across tables, runs and platforms.
"""

from __future__ import annotations

import math
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


def oov_bucket(token: str) -> int:
    """Bucket in [0, 1000) for an out-of-vocabulary token: FNV-1a over 8
    zero bytes, then the token's UTF-8 bytes."""
    return fnv1a64(bytes(8) + token.encode("utf-8")) % OOV_BANK_SIZE


class EmbeddingTable:
    """Immutable token -> vector map plus the hashed OOV bank.

    ``tokens`` is a sequence, and row i of the (len(tokens), e) ``vectors``
    is token i's; tokens case-fold to lowercase and a repeated one keeps
    its first row. One read-only (V + 1000, e) float64 matrix holds the V
    vocabulary rows, L2-normalized, then the OOV bank, drawn from N(0, 1)
    by ``default_rng(0)`` and kept unnormalized, so every table of one
    dimension has the same bank; a dict maps each lowercased token to its
    row. Safe for unrestricted concurrent reads.
    """

    def __init__(self, tokens, vectors):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or len(vectors) != len(tokens):
            raise DataError(f"vectors have shape {vectors.shape}, expected "
                            f"({len(tokens)}, dimension)")
        self.dimension = vectors.shape[1]
        if self.dimension < 1:
            raise ContractError(f"dimension must be positive, got {self.dimension}")
        first: dict[str, int] = {}  # lowercased token -> index of its first row
        for i, token in enumerate(tokens):
            first.setdefault(token.lower(), i)
        index = list(first.values())
        bank = np.random.default_rng(0).standard_normal(
            (OOV_BANK_SIZE, self.dimension))
        matrix = np.concatenate([vectors[index], bank])
        vocab = matrix[:len(index)]
        finite = np.isfinite(vocab).all(axis=1)
        bad = ~(finite & vocab.any(axis=1))
        if bad.any():
            i = int(bad.argmax())
            kind = "zero-norm" if finite[i] else "non-finite"
            raise DataError(f"{kind} vector for token {tokens[index[i]]!r}")
        # per-row sqrt(dot) gives np.linalg.norm's bits; norm(axis=1) may not
        with np.errstate(over="ignore"):
            norms = np.sqrt([np.dot(row, row) for row in vocab])
        for i in np.flatnonzero(~((0.0 < norms) & (norms < np.inf))):
            vocab[i] /= np.abs(vocab[i]).max()  # the squares over- or underflowed
            norms[i] = np.sqrt(np.dot(vocab[i], vocab[i]))
        vocab /= norms[:, None]
        matrix.setflags(write=False)
        self._matrix = matrix
        self._rows = dict(zip(first, range(len(index))))

    def __len__(self):
        return len(self._rows)

    @property
    def oov_bank(self) -> np.ndarray:
        return self._matrix[len(self._rows):]

    def _row(self, token: str) -> int:
        if not token:
            raise ContractError("lookup of an empty token")
        key = token.lower()
        row = self._rows.get(key)
        return len(self._rows) + oov_bucket(key) if row is None else row

    def lookup(self, token: str) -> np.ndarray:
        """Vector for a token; OOV tokens hash into the fixed bank."""
        return self._matrix[self._row(token)]

    def lookup_all(self, tokens) -> np.ndarray:
        """The (n, dimension) matrix of ``lookup`` rows, in one gather; each
        distinct token, after lowercasing, is looked up (and hashed, if
        out of vocabulary) once."""
        keys = [token.lower() for token in tokens]
        rows = {key: self._row(key) for key in dict.fromkeys(keys)}
        return self._matrix[[rows[key] for key in keys]]


def load_embeddings(source, dimension: int) -> EmbeddingTable:
    """Parse `token v1 ... v_dimension` lines into an EmbeddingTable.

    ``source`` is a path (``str`` or ``os.PathLike``), which is opened as
    UTF-8 (a byte that does not decode raises DataError), or any iterable
    of text lines such as an open text stream. Malformed lines, including
    nan or infinite values, raise ParseError with the line number; the
    table keeps the first of repeated tokens and raises DataError naming a
    zero-norm one. A dimension below 1 raises ContractError before any
    line is read.
    """
    if dimension < 1:
        raise ContractError(f"dimension must be positive, got {dimension}")
    if isinstance(source, (str, os.PathLike)):
        with open_text(source) as fh:
            return load_embeddings(fh, dimension)
    tokens, rows = [], []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != dimension + 1:
            raise ParseError(f"expected token plus {dimension} values, got "
                             f"{len(parts)} fields", line_number=lineno)
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", line_number=lineno) from None
        if not all(map(math.isfinite, rows[-1])):
            raise ParseError(f"non-finite value for token {parts[0]!r}",
                             line_number=lineno)
        tokens.append(parts[0])
    return EmbeddingTable(tokens, np.reshape(rows, (len(rows), dimension)))


def random_table(tokens, dimension: int, seed: int = 0) -> EmbeddingTable:
    """In-vocabulary table with seeded random unit vectors for each token.

    One (len(tokens), dimension) standard-normal draw from
    ``default_rng(seed)``, row i for ``tokens[i]``; a repeated token keeps
    its first row. The OOV bank is the fixed one. Used by the synthetic
    corpora so that no two tokens collide the way OOV bank buckets can.
    """
    if dimension < 1:
        raise ContractError(f"dimension must be positive, got {dimension}")
    if seed < 0:
        raise ContractError(f"table seed must be >= 0, got {seed}")
    tokens = list(tokens)
    vectors = np.random.default_rng(seed).standard_normal((len(tokens), dimension))
    return EmbeddingTable(tokens, vectors)
