"""Deterministic report writers: CSV, canonical JSON, and self-contained SVG.

Every file embeds the configuration hash and artifact version.  Floats are
rendered with shortest round-trip formatting, iteration orders are fixed, so
identical inputs always produce byte-identical files.

CSV bodies are written a column block at a time: a block is a list of
equal-length columns, formatted column by column and written with one
``write`` call, so a caller can stream a large table without holding its
rows.  A float array column is rendered as ``repr`` of each value; every
other cell goes through :func:`format_value`.  Cells are then quoted the way
``csv.writer``'s ``QUOTE_MINIMAL`` quotes them: a cell holding ``,``, ``"``,
``\r`` or ``\n`` is wrapped in double quotes with inner quotes doubled, and
a row whose only cell is empty is written as ``""``.

A table of two or more blocks whose first block has at least ``_SPLIT_ROWS``
rows is formatted on two processes when two cores are usable: a forked child
formats the odd-indexed blocks and pickles each one's bytes, or the
ValueError it raised, onto a pipe, and the parent writes them in order
between its own even-indexed blocks.  The bytes are those of the serial
loop whatever the core count.
"""

from __future__ import annotations

import json
import math
import os
import pickle
from itertools import chain, islice, repeat

import numpy as np

from .workers import _worker_count

_NEEDS_QUOTES = (",", '"', "\r", "\n")
_PER_ROW = (list, tuple, np.ndarray)
# a fork plus reap costs about as much as formatting this many rows
_SPLIT_ROWS = 4096


def format_value(v):
    if isinstance(v, float):
        # normalizes numpy scalars to the shortest round-trip float form
        return repr(float(v))
    return str(v)


def _quote(cell):
    if any(c in cell for c in _NEEDS_QUOTES):
        return '"' + cell.replace('"', '""') + '"'
    return cell


class _Formatted(tuple):
    """A tuple column's cells, already through :func:`_cells` (see write_csv)."""


def _cells(column):
    if type(column) is _Formatted:
        return column
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return map(repr, column.tolist())
    # format_value leaves a str as it is, so a column of str skips the call
    cells = column if set(map(type, column)) <= {str} else list(map(format_value, column))
    if any(c in "".join(cells) for c in _NEEDS_QUOTES):
        return map(_quote, cells)
    return cells


def _block_text(columns):
    """CSV text of one block: each column is a numpy array, list or tuple with
    one cell per row; any other value is one cell repeated on every row."""
    lengths = {len(c) for c in columns if isinstance(c, _PER_ROW)}
    if len(lengths) != 1:
        raise ValueError("a block needs at least one column, all of equal length")
    (n,) = lengths
    if n == 0:
        return ""
    cols = [_cells(c) if isinstance(c, _PER_ROW) else repeat(_quote(format_value(c)), n)
            for c in columns]
    if len(cols) == 1:
        lines = ('""' if c == "" else c for c in cols[0])
    else:
        lines = map(",".join, zip(*cols))
    # the empty last line gives the block its final terminator
    return "\r\n".join(chain(lines, [""]))


def write_csv(path, header, blocks, meta):
    """RFC-4180 style CSV preceded by one '#'-prefixed metadata line.

    ``blocks`` is an iterable of column blocks (see the module docstring);
    their rows follow the header in order.  The first two blocks are drawn
    before either is formatted, to choose between one and two processes.
    A tuple passed again at the same column position reuses its cells.
    """
    last = {}  # position -> (tuple, its cells); held, so `is` never matches a newer tuple

    def reuse(columns):
        for i, c in enumerate(columns):
            if type(c) is tuple and last.get(i, (None,))[0] is not c:
                last[i] = (c, _Formatted(_cells(c)))
        return [last[i][1] if type(c) is tuple else c for i, c in enumerate(columns)]

    with open(path, "w", newline="") as fh:
        fh.write(f"#config_hash={meta['config_hash']},version={meta['version']}\r\n")
        fh.write(_block_text([[h] for h in header]))
        blocks = map(reuse, blocks)
        head = list(islice(blocks, 2))
        blocks = chain(head, blocks)
        if (len(head) < 2 or _rows(head[0]) < _SPLIT_ROWS or _worker_count() < 2
                or not hasattr(os, "fork")):
            for columns in blocks:
                fh.write(_block_text(columns))
        else:
            _write_split(fh, path, blocks)


def _rows(columns):
    return next((len(c) for c in columns if isinstance(c, _PER_ROW)), 0)


def _write_split(fh, path, blocks):
    """Writes the blocks to ``fh`` with the odd-indexed ones formatted by a
    forked child.  Both processes walk the same ``blocks``.  A ValueError in
    any block is raised at that block's position, as the serial loop raises
    it; any other failure of the child raises an OSError naming ``path``.
    The child is reaped before return."""
    encoding, errors = fh.encoding, fh.errors
    fh.flush()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # the child touches neither fh nor stdio, and exits 1 unless it sent all
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                _send_odd_blocks(pipe, blocks, encoding, errors)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    pipe = open(read_fd, "rb")
    try:
        for i, columns in enumerate(blocks):
            fh.buffer.write(_receive(pipe, path) if i % 2
                            else _block_text(columns).encode(encoding, errors))
    finally:
        pipe.close()  # a child still sending gets BrokenPipeError and exits
        _, status = os.waitpid(pid, 0)
    if status:
        raise OSError(f"{path}: the CSV formatting process failed "
                      f"(exit code {os.waitstatus_to_exitcode(status)})")


def _send_odd_blocks(pipe, blocks, encoding, errors):
    """The child's loop: each odd-indexed block's bytes pickled onto ``pipe``
    and flushed, lest the parent wait on a pickle's last byte, up to the
    first ValueError, pickled in its block's place and flushed by the close."""
    for columns in islice(blocks, 1, None, 2):
        try:
            data = _block_text(columns).encode(encoding, errors)
        except ValueError as exc:
            pickle.dump(exc, pipe)
            return
        pickle.dump(data, pipe)
        pipe.flush()


def _receive(pipe, path):
    """The next block's bytes from the child; raises the exception it sent."""
    try:
        data = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        data = OSError(f"{path}: the CSV formatting process ended before sending every block")
    if isinstance(data, Exception):
        raise data
    return data


def write_json(path, payload, meta):
    data = {"config_hash": meta["config_hash"], "version": meta["version"], **payload}
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


_WIDTH, _HEIGHT = 800, 600
_MARGIN = 60


def _scale(points_x, points_y):
    lo_x, hi_x = min(points_x), max(points_x)
    lo_y, hi_y = min(points_y), max(points_y)
    if hi_x == lo_x:
        hi_x = lo_x + 1.0
    if hi_y == lo_y:
        hi_y = lo_y + 1.0

    def to_px(x, y):
        px = _MARGIN + (x - lo_x) / (hi_x - lo_x) * (_WIDTH - 2 * _MARGIN)
        py = _HEIGHT - _MARGIN - (y - lo_y) / (hi_y - lo_y) * (_HEIGHT - 2 * _MARGIN)
        return px, py

    return to_px


def scatter_svg(path, points, lines, meta, xlabel, ylabel, title):
    """Scatter plot with optional polyline overlays; one circle per point.

    ``points`` is an (n, 2) array or a list of (x, y); a point with a
    non-finite coordinate is not drawn.  ``lines`` maps a label to a list of
    (x, y) vertices drawn as a polyline.
    """
    xy = np.asarray(points, dtype=float).reshape(-1, 2)
    xs, ys = xy[np.isfinite(xy).all(axis=1)].T
    all_x = xs.tolist() or [0.0, 1.0]
    all_y = ys.tolist() or [0.0, 1.0]
    for pts in lines.values():
        all_x += [x for x, y in pts if math.isfinite(y)]
        all_y += [y for x, y in pts if math.isfinite(y)]
    to_px = _scale(all_x, all_y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f"<desc>config_hash={meta['config_hash']} version={meta['version']}</desc>",
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 16}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{_HEIGHT // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_HEIGHT // 2})">{ylabel}</text>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
    ]
    colors = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd"]
    for i, (label, pts) in enumerate(sorted(lines.items())):
        drawable = [(x, y) for x, y in pts if math.isfinite(y)]
        if len(drawable) < 2:
            continue
        coords = " ".join(
            f"{format_value(px)},{format_value(py)}" for px, py in (to_px(x, y) for x, y in drawable)
        )
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        lx, ly = to_px(*drawable[-1])
        parts.append(
            f'<text x="{format_value(lx)}" y="{format_value(ly - 6)}" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    # to_px maps the arrays elementwise, in the same operations as one point
    pxs, pys = (a.tolist() for a in to_px(xs, ys))
    parts += [f'<circle cx="{px!r}" cy="{py!r}" r="2" fill="#333333"/>' for px, py in zip(pxs, pys)]
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
