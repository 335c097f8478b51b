"""Atomic, durable text writes and the shared CSV writer."""

from __future__ import annotations

import csv
import errno
import os
import stat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mosuq.ioutils import atomic_write_text, write_csv


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


class TestWriteCsv:
    def test_floats_use_repr_and_none_is_empty(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], [[1, 0.1, None], ["x", 1e-05, 2.5e16]])
        assert path.read_text() == "a,b,c\n1,0.1,\nx,1e-05,2.5e+16\n"

    def test_cells_with_delimiters_are_quoted(self, tmp_path):
        path = tmp_path / "t.csv"
        cells = ['weird,id"x', 'say "hi"', "two\nlines", "plain"]
        write_csv(path, ["id"], [[c] for c in cells])
        assert path.read_text().startswith('id\n"weird,id""x"\n"say ""hi"""\n')
        with open(path, newline="") as fh:
            assert [row[0] for row in csv.reader(fh)] == ["id", *cells]

    def test_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["epoch", "loss"], [])
        assert path.read_text() == "epoch,loss\n"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_numpy_and_python_floats_write_the_same_text(self, tmp_path_factory, x):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, ["v", "w"], [[x, np.float64(x)]])
        assert path.read_text() == f"v,w\n{x!r},{x!r}\n"

    def test_a_failing_rows_iterator_leaves_neither_file(self, tmp_path):
        path = tmp_path / "t.csv"
        seen = []

        def rows():
            yield [1, 2.5]
            # Rows are written while the temp file is open.
            seen.extend(p for p in os.listdir(tmp_path) if p.startswith(".t.csv."))
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            write_csv(path, ["a", "b"], rows())
        assert len(seen) == 1
        assert os.listdir(tmp_path) == []
