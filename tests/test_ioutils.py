"""Atomic, durable text writes and the shared CSV writer."""

from __future__ import annotations

import csv
import errno
import io
import math
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mosuq.datagen import Dataset, save_dataset_csv
from mosuq.errors import CheckpointError, ConfigError
from mosuq.ioutils import (_CSV_CHUNK_ROWS, atomic_write_text, count_lines, open_text,
                           read_json_object, write_csv)


@pytest.fixture
def io_events(monkeypatch):
    """Record every fsync (inode, size, is-directory) and every rename."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", st.st_ino, st.st_size, stat.S_ISDIR(st.st_mode)))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


class TestAtomicWriteText:
    def test_text_is_utf8_and_line_ends_are_not_translated(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "café\nb\r\nc\r")
        assert path.read_bytes() == b"caf\xc3\xa9\nb\r\nc\r"

    def test_writes_the_text(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "one\ntwo\n")
        assert path.read_text() == "one\ntwo\n"

    def test_replaces_an_existing_file_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_file_is_synced_whole_before_the_rename(self, tmp_path, io_events):
        text = "x" * 10_000
        atomic_write_text(tmp_path / "out.txt", text)
        kinds = [e[0] for e in io_events]
        assert kinds.count("replace") == 1
        rename = kinds.index("replace")
        temp_inode = io_events[rename][1]
        synced_before = [e for e in io_events[:rename] if e[0] == "fsync"]
        assert ("fsync", temp_inode, len(text), False) in synced_before

    def test_directory_is_synced_after_the_rename(self, tmp_path, io_events):
        atomic_write_text(tmp_path / "out.txt", "data")
        rename = [e[0] for e in io_events].index("replace")
        dir_inode = os.stat(tmp_path).st_ino
        assert any(
            e[0] == "fsync" and e[1] == dir_inode and e[3] for e in io_events[rename + 1 :]
        )

    def test_failed_write_leaves_no_temp_file_and_keeps_the_old_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "out.txt"
        path.write_text("old")

        def broken_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", broken_fsync)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(path, "new")
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.txt"]


    @pytest.mark.parametrize("code, raises", [(errno.EINVAL, False), (errno.EIO, True)])
    def test_directory_fsync_error_is_raised_unless_unsupported(
        self, tmp_path, monkeypatch, code, raises
    ):
        real_fsync = os.fsync

        def fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(code, os.strerror(code))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        path = tmp_path / "out.txt"
        if raises:
            with pytest.raises(OSError):
                atomic_write_text(path, "data")
        else:
            atomic_write_text(path, "data")
        assert path.read_text() == "data"


def csv_writer_bytes(header, columns) -> bytes:
    """The oracle: what `csv.writer` writes for the same header and rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return buf.getvalue().encode()


# Text cells without a lone carriage return, which csv.writer leaves
# unquoted (see test_lone_carriage_return_is_quoted).
_TEXT = st.lists(
    st.sampled_from([",", '"', "\n", "\r\n", "", " ", "  lead", "é", "✓ ok", "x"])
    | st.text(st.characters(codec="utf-8", exclude_characters="\r\x00"), max_size=3),
    max_size=4,
).map("".join)
_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1e16, math.inf, -math.inf, math.nan, 0.1, 2.5e16]
)
_CELLS = st.one_of(
    _TEXT, _FLOATS, _FLOATS.map(np.float64), st.integers(), st.booleans(), st.none()
)
_INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def tables(draw):
    """A header and 1-4 equal-length columns: lists of mixed cells, or
    float64, str, int64 or bool arrays."""
    width, rows = draw(st.integers(1, 4)), draw(st.integers(0, 12))
    header = draw(st.lists(_TEXT, min_size=width, max_size=width))
    columns = []
    for _ in range(width):
        kind = draw(st.sampled_from(["cells", "float64", "str", "int", "bool"]))
        cells = st.lists(
            {"cells": _CELLS, "float64": _FLOATS, "str": _TEXT, "int": _INT64,
             "bool": st.booleans()}[kind],
            min_size=rows, max_size=rows,
        )
        values = draw(cells)
        dtype = {"float64": np.float64, "str": str, "int": np.int64, "bool": bool}.get(kind)
        columns.append(values if dtype is None else np.array(values, dtype=dtype))
    return header, columns


class TestCountLines:
    """count_lines sizes the loader's float columns, so it must never be below the
    lines open_text yields: LF, CR and CRLF ends, quoted line breaks (lines, not
    records), multi-byte text, and a CRLF that a 16 KiB block end splits."""

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet='a,"\u00e9\n\r', max_size=40),
           st.sampled_from([0, 1, 2**14 - 2, 2**14 - 1, 2**15 - 1]))
    @example('\r\n"q\r\nx"\r', 2**14 - 1)  # the CRLF straddles the first block end
    @example('\u00e9\r\n', 2**14 - 3)  # so does this one, after a two-byte character
    def test_never_below_the_lines_open_text_yields(self, tmp_path_factory, text, pad):
        path = tmp_path_factory.mktemp("lines") / "t.csv"
        path.write_bytes(("a" * pad + text).encode("utf-8"))
        with open_text(path) as fh:
            assert count_lines(path) >= sum(1 for _ in fh)


class TestReadJsonObject:
    def test_reads_the_object(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes('{"id": "café",\r\n "n": [1, 2.5, NaN]}'.encode())
        doc = read_json_object(path, ConfigError)
        assert doc["id"] == "café" and doc["n"][:2] == [1, 2.5] and math.isnan(doc["n"][2])

    @pytest.mark.parametrize("error", [ConfigError, CheckpointError])
    def test_a_missing_file_is_the_given_error_naming_it(self, tmp_path, error):
        path = tmp_path / "missing.json"
        with pytest.raises(error, match=re.escape(f"{path}: unreadable as JSON")) as info:
            read_json_object(path, error)
        assert type(info.value) is error

    def test_invalid_json_names_the_line_and_column(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{\n  "a": 1,\n  "b"\n}')
        with pytest.raises(ConfigError, match="line 4 column 1"):
            read_json_object(path, ConfigError)


class TestWriteCsv:
    def test_int_uint_and_bool_arrays_write_str_of_each_value(self, tmp_path):
        path = tmp_path / "t.csv"
        columns = [np.array([-3, 0, 2**40]), np.array([0, 7, 255], np.uint8),
                   np.array([True, False, True])]
        write_csv(path, ["i", "u", "b"], columns)
        assert path.read_bytes() == b"i,u,b\n-3,0,True\n0,7,False\n1099511627776,255,True\n"

    def test_floats_use_repr_and_none_is_empty(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], [[1, "x"], [0.1, 1e-05], [None, 2.5e16]])
        assert path.read_text() == "a,b,c\n1,0.1,\nx,1e-05,2.5e+16\n"

    def test_cells_with_delimiters_are_quoted(self, tmp_path):
        path = tmp_path / "t.csv"
        cells = ['weird,id"x', 'say "hi"', "two\nlines", "plain"]
        write_csv(path, ["id"], [cells])
        assert path.read_text().startswith('id\n"weird,id""x"\n"say ""hi"""\n')
        with open(path, newline="") as fh:
            assert [row[0] for row in csv.reader(fh)] == ["id", *cells]

    def test_lone_carriage_return_is_quoted(self, tmp_path):
        """csv.writer with a "\\n" terminator leaves a lone "\\r" unquoted,
        and csv.reader then ends the row there."""
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b\rc"], [["c\rr", "\r"], np.array([1, 2])])
        assert path.read_bytes() == b'a,"b\rc"\n"c\rr",1\n"\r",2\n'
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [["a", "b\rc"], ["c\rr", "1"], ["\r", "2"]]

    @pytest.mark.parametrize("column", [["", None, "x"], np.array(["", "", "x"])])
    def test_a_lone_empty_field_is_quoted(self, tmp_path, column):
        """An empty line would read back as a row with no fields."""
        path = tmp_path / "t.csv"
        write_csv(path, ["id"], [column])
        assert path.read_text() == 'id\n""\n""\nx\n'
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [["id"], [""], [""], ["x"]]

    def test_nan_in_a_float_column_is_written_as_nan(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["v"], [np.array([math.nan, -math.inf, -0.0, 5e-324])])
        assert path.read_text() == "v\nnan\n-inf\n-0.0\n5e-324\n"

    def test_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["epoch", "loss"], [[], []])
        assert path.read_text() == "epoch,loss\n"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_numpy_and_python_floats_write_the_same_text(self, tmp_path_factory, x):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, ["v", "w"], [[x], [np.float64(x)]])
        assert path.read_text() == f"v,w\n{x!r},{x!r}\n"

    @settings(max_examples=200, deadline=None)
    @given(tables())
    def test_matches_csv_writer_byte_for_byte(self, tmp_path_factory, table):
        header, columns = table
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, header, columns)
        assert path.read_bytes() == csv_writer_bytes(header, columns)

    @pytest.mark.parametrize("rows", [1, 511, 512, 513, 1025])
    def test_dataset_file_matches_the_row_by_row_writer(self, tmp_path, rows):
        """The bytes `csv.writer` gives for one row list per sample (id,
        system_id, domain_tag, y, true_noise_var or None, then the features),
        on both sides of every chunk boundary."""
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, 3))
        x[0] = [-0.0, 5e-324, 1e16]
        var = rng.uniform(0.01, 2.0, size=rows)
        var[::7] = math.nan
        ids = [f"r{i}" if i % 5 else f'r,"{i}"' for i in range(rows)]
        tags = ["in_domain" if i % 3 else "ood" for i in range(rows)]
        dataset = Dataset(ids, [f"sys{i % 4}" for i in range(rows)], tags, rng.normal(size=rows),
                          var, x)
        path = tmp_path / "d.csv"
        save_dataset_csv(dataset, path)
        header = ["id", "system_id", "domain_tag", "y", "true_noise_var", "f0", "f1", "f2"]
        cells = [
            dataset.ids.tolist(), dataset.system_ids.tolist(), dataset.domain_tags.tolist(),
            dataset.y.tolist(),
            [None if math.isnan(v) else v for v in dataset.true_noise_var.tolist()],
            *dataset.x.T.tolist(),
        ]
        assert path.read_bytes() == csv_writer_bytes(header, cells)

    @pytest.mark.parametrize("count", [1, 512, 1300])
    def test_rows_gather_every_column_a_chunk_at_a_time(self, tmp_path, count):
        """A 2-D column stands for its columns, a function column gives each
        chunk's cells from its row index, and rows pick and order the rows:
        the bytes of csv.writer on the gathered rows."""
        rng = np.random.default_rng(count)
        x, y = rng.normal(size=(700, 3)), rng.normal(size=700)
        names = np.array([f"n,{i}" for i in range(700)])
        rows = rng.integers(0, 700, size=count)

        def halves(at):
            return [None if v < 0 else v for v in y[at].tolist()]

        path = tmp_path / "t.csv"
        header = ["name", "y", "half", "a", "b", "c"]
        write_csv(path, header, [names, y, halves, x], rows)
        want = [names[rows].tolist(), y[rows].tolist(), halves(rows), *x[rows].T.tolist()]
        assert path.read_bytes() == csv_writer_bytes(header, want)
        write_csv(path, header, [names, y, halves, x])
        want = [names.tolist(), y.tolist(), halves(slice(None)), *x.T.tolist()]
        assert path.read_bytes() == csv_writer_bytes(header, want)

    def test_a_2d_column_counts_its_columns_against_the_header(self, tmp_path):
        with pytest.raises(ValueError, match="2 header cells but 4 columns"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0], np.zeros((1, 3))])

    def test_columns_of_different_lengths_are_refused(self, tmp_path):
        path = tmp_path / "t.csv"
        for columns in ([[1, 2], [3]], [[1], np.zeros(_CSV_CHUNK_ROWS + 1)]):
            with pytest.raises(ValueError):
                write_csv(path, ["a", "b"], columns)
        with pytest.raises(ValueError, match="2 header cells but 1 columns"):
            write_csv(path, ["a", "b"], [[1]])
        assert os.listdir(tmp_path) == []

    def test_a_column_failing_in_its_second_chunk_leaves_neither_file(self, tmp_path):
        path = tmp_path / "t.csv"
        seen = []

        class Broken:
            def __str__(self):
                # Chunks are written while the temp file is open.
                seen.extend(p for p in os.listdir(tmp_path) if p.startswith(".t.csv."))
                raise RuntimeError("cell formatting failed")

        cells = [1] * (_CSV_CHUNK_ROWS + 10)
        cells[_CSV_CHUNK_ROWS + 3] = Broken()
        with pytest.raises(RuntimeError, match="cell formatting failed"):
            write_csv(path, ["a", "b"], [cells, np.full(len(cells), 2.5)])
        assert len(seen) == 1
        assert os.listdir(tmp_path) == []
