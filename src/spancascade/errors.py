"""Exception types shared across the package, and the UTF-8 text opener.

The CLI maps these onto exit codes: usage errors -> 1, I/O and data
errors -> 2, numeric failures -> 3.
"""

import os
from contextlib import contextmanager


class DimensionError(ValueError):
    """Operand shapes do not chain; the message names both shapes."""


class ContractError(ValueError):
    """A documented precondition of an operation was violated."""


class EmptyCandidateError(ValueError):
    """A distribution or aggregate was requested over an empty set."""


class NonFiniteError(FloatingPointError):
    """A forward value or gradient left the finite float64 range."""


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DataError(ValueError):
    """Well-formed input with unusable content (e.g. a zero-norm vector)."""


class CheckpointError(ValueError):
    """Checkpoint file is missing, corrupt, or version-incompatible."""


class NoTrainableDataError(ValueError):
    """Every training example was skipped (no gold candidate spans)."""


class UsageError(ValueError):
    """Bad command-line or config-file usage."""


@contextmanager
def open_text(path, error=DataError):
    """Open ``path`` as UTF-8 text; a byte that does not decode while the
    block reads raises ``error`` naming the file, not UnicodeDecodeError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{os.fspath(path)} is not UTF-8 text "
                        f"({exc.reason})") from None
