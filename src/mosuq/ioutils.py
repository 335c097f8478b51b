"""The package's one file layer: every file it reads or writes goes through here.

Files are UTF-8 text in `open_text`'s one mode; each is written through one atomic,
durable write, and JSON is read by `read_json_object`. CSV tables are written by one
columnar writer, `write_csv`, which formats chunks of rows one column at a time and
streams them to disk, gathering each chunk's rows through row indices if given.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import tempfile
from collections.abc import Iterator, Sequence
from pathlib import Path
from typing import TextIO

import numpy as np

__all__ = ["atomic_write_text", "canonical_json", "count_lines", "open_text", "read_json_object",
           "write_csv"]


def open_text(file: str | Path | int, mode: str = "r") -> TextIO:
    """file (a path or a descriptor) opened in the one text mode: UTF-8 whatever
    the locale, and no newline translation, so lines end as they were written."""
    return open(file, mode, encoding="utf-8", newline="")


def count_lines(path: str | Path) -> int:
    """An upper bound on the lines open_text splits the file into (at LF, CR or CRLF),
    read 16 KiB at a time: one over, and one more per CRLF that a block end splits."""
    count = 1
    with open(path, "rb", buffering=0) as fh:
        for block in iter(lambda: fh.read(2**14), b""):
            count += block.count(b"\n")
            if b"\r" in block:
                count += block.count(b"\r") - block.count(b"\r\n")
    return count


def read_json_object(path: str | Path, error: type) -> dict:
    """The JSON object in the file at path, or error naming path if the file cannot
    be read, is not UTF-8 or not JSON, holds an integer beyond Python's digit limit
    or nesting beyond the recursion limit, or its root is not an object."""
    try:
        with open_text(path) as fh:
            doc = json.loads(fh.read())
    except (OSError, ValueError, RecursionError) as exc:  # a JSONDecodeError names line and column
        raise error(f"{path}: unreadable as JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: root must be a JSON object")
    return doc


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
        with open_text(fd, "w") as fh:
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


# Rows formatted and written per chunk. Larger chunks save little time and
# raise peak memory: the chunk's cells are all held at once.
_CSV_CHUNK_ROWS = 512


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence, rows=None) -> None:
    """Write a header and equal-length columns atomically as CSV.

    Each column is a 1-D numpy array, a sequence, a 2-D numpy array (its
    columns in order) or a function from a chunk's row index (a slice, or
    part of rows) to that chunk's cells. With rows, an integer index array,
    the file holds those rows of every column, in that order. Rows are
    gathered and formatted _CSV_CHUNK_ROWS at a time, one column at a time
    with a rule chosen once per column, and each chunk is one write to the
    temp file, so neither the whole text nor a gathered copy is ever held:
    - float64 arrays: repr, so values round-trip exactly (nan stays "nan");
    - str arrays: the text, quoted if needed;
    - anything else, cell by cell: None is an empty field, a str is quoted
      if needed, any float (numpy float64 too) uses float.__repr__, and any
      other value uses str.
    A cell, header cells included, is quoted when it holds a comma, a
    double quote, a carriage return or a newline; quotes inside are
    doubled. A lone empty field is written as "" so the row reads back with
    one field. Apart from quoting a lone carriage return, the bytes are
    those of `csv.writer(fh, lineterminator="\\n")`.
    """
    blocks = [isinstance(col, np.ndarray) and col.ndim == 2 for col in columns]
    width = sum(col.shape[1] if block else 1 for col, block in zip(columns, blocks))
    if width != len(header):
        raise ValueError(f"{len(header)} header cells but {width} columns")
    formats = [_column_format(col) for col in columns]
    lengths = [len(col) for col in columns if not callable(col)]
    num_rows = max(lengths, default=0) if rows is None else len(rows)
    with _atomic_file(path) as fh:
        fh.write(_csv_text([tuple(map(_cell, header))], width))
        for lo in range(0, num_rows, _CSV_CHUNK_ROWS):
            hi = lo + _CSV_CHUNK_ROWS
            at = slice(lo, hi) if rows is None else rows[lo:hi]
            cells = []
            for fmt, col, block in zip(formats, columns, blocks):
                part = col(at) if callable(col) else col[at]
                cells.extend(map(fmt, part.T) if block else [fmt(part)])
            fh.write(_csv_text(zip(*cells, strict=True), width))


def _csv_text(rows, width: int) -> str:
    """Rows of formatted cells as CSV lines. A lone empty field is written
    as "", since an empty line would read back as a row with no fields."""
    lines = (cell or '""' for (cell,) in rows) if width == 1 else map(",".join, rows)
    return "\n".join(lines) + "\n"


def _quote(text: str) -> str:
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


def _column_format(col):
    """The formatting rule for a column, as a function of one chunk of it."""
    dtype = col.dtype if isinstance(col, np.ndarray) else np.dtype(object)
    if dtype == np.float64:
        return lambda chunk: map(float.__repr__, chunk.tolist())
    if dtype.kind == "U":
        return lambda chunk: map(_quote, chunk.tolist())
    return lambda chunk: map(_cell, chunk)


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
