import csv
import math
import os
import signal
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rcmlab.reports
from rcmlab.reports import format_value, write_csv

META = {"config_hash": "0123456789abcdef", "version": "test"}


def _reference_csv(path, header, blocks):
    """Row-at-a-time writer: csv.writer over format_value'd cells."""
    with open(path, "w", newline="") as fh:
        fh.write(f"#config_hash={META['config_hash']},version={META['version']}\r\n")
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for columns in blocks:
            per_row = [c for c in columns if isinstance(c, (list, tuple, np.ndarray))]
            for i in range(len(per_row[0])):
                row = [c[i] if isinstance(c, (list, tuple, np.ndarray)) else c for c in columns]
                writer.writerow([format_value(v) for v in row])


special_floats = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 0.1])
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True), special_floats)
texts = st.one_of(st.text(alphabet=st.sampled_from(list('ab ,"\r\n\t.é')), max_size=6),
                  st.just(""))
cells = st.one_of(texts, st.integers(-10**6, 10**6), st.booleans(), floats,
                  floats.map(np.float64))


@st.composite
def tables(draw, max_blocks=4):
    n_cols = draw(st.integers(1, 4))
    header = draw(st.lists(texts, min_size=n_cols, max_size=n_cols))
    blocks = []
    for _ in range(draw(st.integers(0, max_blocks))):
        n = draw(st.integers(0, 5))
        kinds = draw(st.lists(st.sampled_from(["list", "tuple", "array", "const"]),
                              min_size=n_cols, max_size=n_cols))
        if all(k == "const" for k in kinds):
            kinds[0] = "list"
        columns = []
        for kind in kinds:
            if kind == "array":
                columns.append(np.array(draw(st.lists(floats, min_size=n, max_size=n)),
                                        dtype=np.float64))
            elif kind == "const":
                columns.append(draw(cells))
            else:
                col = draw(st.lists(cells, min_size=n, max_size=n))
                columns.append(tuple(col) if kind == "tuple" else col)
        blocks.append(columns)
    return header, blocks


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tables())
def test_write_csv_matches_csv_writer(tmp_path_factory, table):
    header, blocks = table
    out = tmp_path_factory.mktemp("csv")
    write_csv(out / "blocks.csv", header, iter(blocks), META)
    _reference_csv(out / "rows.csv", header, blocks)
    assert (out / "blocks.csv").read_bytes() == (out / "rows.csv").read_bytes()


@pytest.mark.parametrize("header, blocks", [
    (["a"], [[["", "x", ""]]]),
    (["only"], [[[""]], [[1.5]], [np.array([-0.0, math.nan])]]),
    (["", "b"], [[["", ""], ""]]),
    (['q"uote', "c,omma"], [[['say "hi"', "a\r\nb"], np.array([math.inf, -math.inf])]]),
    (["t", "x", "v"], [[2.0, "0 0", np.array([0.25, 1e-17])], [4.0, "1 0", [True, 3]]]),
])
def test_write_csv_quoting_edge_cases(tmp_path, header, blocks):
    write_csv(tmp_path / "blocks.csv", header, blocks, META)
    _reference_csv(tmp_path / "rows.csv", header, blocks)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_csv_rejects_ragged_blocks(tmp_path):
    with pytest.raises(ValueError, match="equal length"):
        write_csv(tmp_path / "x.csv", ["a", "b"], [[[1, 2], [3]]], META)
    with pytest.raises(ValueError, match="at least one column"):
        write_csv(tmp_path / "y.csv", ["a"], [[1.0]], META)


# ---------------------------------------------------------------------------
# two-process writer


@contextmanager
def _forks(split_rows=0):
    """Two workers and a split threshold of ``split_rows``; yields the pids of
    the children write_csv forks, and checks on exit that each was reaped."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    with mock.patch.object(rcmlab.reports, "_SPLIT_ROWS", split_rows), \
            mock.patch.object(rcmlab.reports, "_worker_count", lambda: 2), \
            mock.patch.object(os, "fork", fork):
        yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, 0)


def _serial():
    return mock.patch.object(rcmlab.reports, "_worker_count", lambda: 1)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(tables(max_blocks=5))
@example((["a", "b"], [[["", 'x"y'], 1.5], [[","], [""]], [np.array([0.5]), "c\nd"]]))
@example((["v"], [[[""]], [[1]], [["q,"]], [[2.0]], [np.array([math.nan])]]))
def test_two_process_csv_matches_serial_and_csv_writer(tmp_path_factory, table):
    header, blocks = table
    out = tmp_path_factory.mktemp("split")
    with _forks() as pids:
        write_csv(out / "split.csv", header, iter(blocks), META)
    assert len(pids) == (len(blocks) >= 2)
    with _serial():
        write_csv(out / "serial.csv", header, iter(blocks), META)
    _reference_csv(out / "rows.csv", header, blocks)
    split = (out / "split.csv").read_bytes()
    assert split == (out / "serial.csv").read_bytes() == (out / "rows.csv").read_bytes()


def test_two_process_csv_forks_from_split_rows(tmp_path):
    rows = rcmlab.reports._SPLIT_ROWS
    cases = [([np.arange(rows, dtype=float)], [[1.0]]), ([np.arange(rows - 1, dtype=float)], [[1.0]]),
             ([np.arange(rows, dtype=float)],)]
    for blocks, forked in zip(cases, [1, 0, 0]):
        with _forks(split_rows=rows) as pids:
            write_csv(tmp_path / "split.csv", ["a"], blocks, META)
        assert len(pids) == forked
        _reference_csv(tmp_path / "rows.csv", ["a"], blocks)
        assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("index, bad, message", [
    (1, [[1.0, 2.0], [3.0]], "equal length"),
    (2, [1.0], "at least one column"),
    (1, [[1.0] * 3, "bad\udc80"], "can't encode"),
])
def test_two_process_csv_raises_the_serial_error(tmp_path, index, bad, message):
    blocks = [[[float(i)] * 3, "x"] for i in range(4)]
    blocks[index] = bad
    with _serial(), pytest.raises(ValueError, match=message) as serial:
        write_csv(tmp_path / "serial.csv", ["a", "b"], iter(blocks), META)
    with _forks() as pids:
        with pytest.raises(ValueError) as split:
            write_csv(tmp_path / "split.csv", ["a", "b"], iter(blocks), META)
    assert len(pids) == 1
    assert type(split.value) is type(serial.value)
    assert str(split.value) == str(serial.value)
    # the blocks before the failing one are written, as the serial loop writes them
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


@pytest.mark.parametrize("kill_at, message", [
    (3, "ended before sending every block"),
    (4, f"failed \\(exit code -{int(signal.SIGKILL)}\\)"),
], ids=["mid-table", "after-last-frame"])
def test_two_process_csv_raises_oserror_when_the_child_dies(tmp_path, kill_at, message):
    parent = os.getpid()

    def blocks():
        for i in range(5):
            if i == kill_at and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            if i < 4:
                yield [[float(i)] * 3]

    path = tmp_path / "x.csv"
    with _forks() as pids:
        with pytest.raises(OSError, match=message) as err:
            write_csv(path, ["a"], blocks(), META)
    assert len(pids) == 1
    assert str(path) in str(err.value)


def test_one_worker_never_forks(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called with one worker")

    blocks = [[np.arange(5, dtype=float), "x"] for _ in range(3)]
    monkeypatch.setattr(rcmlab.reports, "_SPLIT_ROWS", 0)
    monkeypatch.setattr(rcmlab.reports, "_worker_count", lambda: 1)
    monkeypatch.setattr(os, "fork", no_fork)
    write_csv(tmp_path / "serial.csv", ["a", "b"], blocks, META)
    _reference_csv(tmp_path / "rows.csv", ["a", "b"], blocks)
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_csv_formats_a_repeated_tuple_column_once(tmp_path, monkeypatch):
    labels = ("0 0", "a,b", 'q"')
    blocks = ([[float(i), labels, np.arange(3.0) + i] for i in range(4)]
              + [[9.0, ("x", "y", "z"), labels]])
    real_cells = rcmlab.reports._cells
    scans = []
    monkeypatch.setattr(rcmlab.reports, "_cells",
                        lambda column: scans.append(column is labels) or real_cells(column))
    with _serial():
        write_csv(tmp_path / "serial.csv", ["t", "y", "v"], blocks, META)
    # once at position 1 for the first four blocks, once more at position 2
    assert scans.count(True) == 2
    with _forks() as pids:
        write_csv(tmp_path / "split.csv", ["t", "y", "v"], blocks, META)
    assert len(pids) == 1
    _reference_csv(tmp_path / "rows.csv", ["t", "y", "v"], blocks)
    assert ((tmp_path / "serial.csv").read_bytes() == (tmp_path / "split.csv").read_bytes()
            == (tmp_path / "rows.csv").read_bytes())
