"""Exception types shared across the package, `text_lines`, the one way
any reader gets at the lines of a text file, and `replacing`, the one
way an output file replaces an earlier one (`write_atomic` for a file
on its own).

The CLI maps these onto process exit codes: usage problems exit 1,
`DataFormatError` and `ValidationError` exit 2, `NumericFailure` exits 3.
"""

import os
from contextlib import contextmanager
from pathlib import Path


class ValidationError(ValueError):
    """A domain precondition was violated (bad shapes, lengths, ranges)."""


class DimensionError(ValidationError):
    """Array shapes are incompatible for the requested operation."""


class DataFormatError(ValueError):
    """A file on disk does not conform to its documented format."""


class NumericFailure(ArithmeticError):
    """A computation produced non-finite values and cannot continue."""


def text_lines(path) -> list[tuple[int, str]]:
    """(line number from 1, line) for each non-blank line of a UTF-8 text
    file; bytes that do not decode raise DataFormatError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return [(lineno, line) for lineno, line in enumerate(text.splitlines(), start=1)
            if line.strip()]


@contextmanager
def replacing(path, data: bytes):
    """Write `data` to a temp file beside `path`, run the body of the
    `with`, then replace `path` with the temp file.  If the write or the
    body fails, `path` keeps its previous bytes and the temp file is
    removed.  A body that writes another file the same way makes the two
    a pair: both are written whole before either is replaced."""
    path = Path(path)
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        temp.write_bytes(data)
        yield
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def write_atomic(path, data: bytes) -> None:
    """Write `data` to `path` so that a reader finds either the previous
    file whole or the new one (see `replacing`)."""
    with replacing(path, data):
        pass
