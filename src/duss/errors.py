"""Exception types shared across the toolkit, the readers of text inputs, and
the one writer of output files.

ValidationError covers bad parameters and violated preconditions (CLI exit
code 1); DataError covers unreadable, malformed, or inconsistent data files
(CLI exit code 2).
"""

import contextlib
import os
from typing import Dict, List


class DussError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(DussError):
    """Invalid argument, configuration, or precondition violation."""


class DataError(DussError):
    """Missing, malformed, or mutually inconsistent data."""


def read_lines(path, what: str) -> List[str]:
    """The lines of a UTF-8 text file; a file that cannot be opened or decoded
    raises DataError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from None


def check_json_types(row: Dict, types: Dict) -> None:
    """Raise KeyError for a missing field of a parsed JSON row and TypeError
    for one not of its type; bool is an int subclass, so it passes only as bool."""
    for name, kind in types.items():
        value = row[name]
        if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
            raise TypeError(f"{name} has type {type(value).__name__}")


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Open `<path>.tmp` for writing and move it over `path` once the block
    ends; on any failure the temporary file is removed and `path` is left as
    it was. A temporary file that cannot be created raises DataError naming
    `path`."""
    tmp = f"{path}.tmp"
    try:
        fh = open(tmp, mode, **kwargs)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
