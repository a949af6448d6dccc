import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
def tables(draw):
    n_cols = draw(st.integers(1, 4))
    header = draw(st.lists(texts, min_size=n_cols, max_size=n_cols))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
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
