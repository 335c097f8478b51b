"""Small file-writing helpers shared by the library and the CLI."""

from __future__ import annotations

import contextlib
import csv
import errno
import json
import os
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TextIO

import numpy as np

__all__ = ["atomic_write_text", "canonical_json", "write_csv"]


@contextlib.contextmanager
def _atomic_file(path: str | Path) -> Iterator[TextIO]:
    """A text file to write path through, so readers never observe a
    half-written file.

    The block writes a temp file in the target directory. When it exits
    cleanly the file is flushed and fsynced, renamed onto path, and the
    directory fsynced after the rename, so a crash leaves either the old
    file or the whole new one on disk. When it raises, the temp file is
    removed and path is left as it was.
    """
    path = Path(path)
    directory = path.parent or Path(".")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    _fsync_directory(directory)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path atomically and durably (see _atomic_file)."""
    with _atomic_file(path) as fh:
        fh.write(text)


def write_csv(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write a header and rows atomically through `csv.writer`, so a cell
    holding a comma, quote or newline is quoted and reads back intact.

    Rows stream into the temp file one at a time, so the whole text is never
    held in memory. Floats are written with repr (csv stringifies Python and
    numpy float64 values alike that way), so they round-trip exactly; None
    becomes an empty field.
    """
    with _atomic_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fsync_directory(directory: Path) -> None:
    """Make a rename in the directory durable. Where a directory cannot be
    opened (Windows) or fsynced (EINVAL on some file systems), the rename
    stands without it."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError as exc:
        if exc.errno != errno.EINVAL:
            raise
    finally:
        os.close(fd)


class _CanonicalEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, np.floating):
            return float(o)
        if isinstance(o, np.integer):
            return int(o)
        return super().default(o)


def canonical_json(doc) -> str:
    """Sorted keys, two-space indent, trailing newline, floats via repr.

    The same document always serializes to the same bytes, which is what
    makes checkpoint and report files safely comparable across runs. The
    output is strict JSON: a nan or infinity raises ValueError instead of
    being written as a bare token.
    """
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, cls=_CanonicalEncoder)
    return text + "\n"
