"""Geometry of the integer lattice and its periodic (torus) approximations.

Vertices live either in the full lattice (plain integer tuples) or on a
finite torus of even side length L, where coordinates are taken modulo L.
Distances are always graph (l1) distances; balls use a strict inequality,
``B(x, r) = {y : |x - y| < r}``.

The module also builds the axis-aligned staircase path from the origin to a
target vertex and the small family of hyper-rectangles that covers a tube
around that path, both of which the ball-chain construction relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def l1_norm(x):
    """Sum of absolute coordinates of a lattice point."""
    return int(sum(abs(int(c)) for c in x))


@dataclass(frozen=True)
class TorusGeometry:
    """A d-dimensional discrete torus with side length L.

    Parameters
    ----------
    d : int
        Dimension, at least 2.
    L : int
        Side length, an even integer of at least 4.  An even side makes the
        torus bipartite (coordinate sum even or odd), which the heat kernel
        sweep in :mod:`rcmlab.kernel` relies on.
    """

    d: int
    L: int

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 2:
            raise ValueError("dimension must be an integer >= 2")
        if int(self.L) != self.L or self.L < 4 or self.L % 2 != 0:
            raise ValueError("side length must be an even integer >= 4")

    @property
    def n_vertices(self):
        return self.L**self.d

    @property
    def n_edges(self):
        # one undirected edge per (vertex, positive axis) pair
        return self.d * self.n_vertices

    def wrap(self, point):
        """Canonical representative of a lattice point, coordinates in [0, L)."""
        return tuple(int(c) % self.L for c in point)

    def index(self, point):
        """Flat index of a (possibly unwrapped) point; lexicographic in coords."""
        idx = 0
        for c in point:
            idx = idx * self.L + (int(c) % self.L)
        return idx

    def coords(self, index):
        """Inverse of :meth:`index`."""
        out = []
        for _ in range(self.d):
            out.append(index % self.L)
            index //= self.L
        return tuple(reversed(out))

    def torus_distance(self, x, y):
        """Graph distance on the torus (each coordinate wraps)."""
        total = 0
        for a, b in zip(x, y):
            diff = abs(int(a) - int(b)) % self.L
            total += min(diff, self.L - diff)
        return total

    def neighbor_table(self):
        """Read-only int32 array of shape (n_vertices, 2d): columns a and d+a
        hold the +e_a and -e_a neighbor indices respectively.  One cached
        table per (d, L) is shared by every caller and thread."""
        return _neighbor_table(self.d, self.L)

    def distance_field(self, center):
        """Torus distances from ``center`` to every vertex, indexed flat."""
        axes = []
        for c in center:
            line = np.abs(np.arange(self.L) - (int(c) % self.L))
            axes.append(np.minimum(line, self.L - line))
        grid = axes[0]
        for line in axes[1:]:
            grid = grid[..., None] + line
        return grid.reshape(-1)

    def ball_indices(self, center, radius):
        """Flat indices of the torus ball B(center, radius), strict inequality.

        Raises if the ball could wrap around the torus (radius > L/2).
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        if radius > self.L / 2:
            raise ValueError("ball wraps")
        dist = self.distance_field(center)
        return np.flatnonzero(dist < radius)


@lru_cache(maxsize=32)
def _neighbor_table(d, L):
    n = L**d
    idx = np.arange(n).reshape((L,) * d)
    table = np.empty((n, 2 * d), dtype=np.int32)
    for a in range(d):
        table[:, a] = np.roll(idx, -1, axis=a).reshape(-1)
        table[:, d + a] = np.roll(idx, 1, axis=a).reshape(-1)
    table.flags.writeable = False  # the cache hands it to every caller
    return table


@dataclass(frozen=True)
class HyperRectangle:
    """Axis-aligned box ``base + {v : 0 <= v_axis <= length, |v_j| <= half_width}``.

    ``axis`` is 1-based.  The box has (length+1) * (2*half_width+1)**(d-1)
    vertices and always contains its base point.
    """

    base: tuple
    axis: int
    length: int
    half_width: int

    def __post_init__(self):
        d = len(self.base)
        if not (1 <= self.axis <= d):
            raise ValueError("axis out of range")
        if self.length < 0 or self.half_width < 0:
            raise ValueError("length and half_width must be nonnegative")

    @property
    def d(self):
        return len(self.base)

    @property
    def n_vertices(self):
        return (self.length + 1) * (2 * self.half_width + 1) ** (self.d - 1)

    def contains(self, point):
        a = self.axis - 1
        for j, (pj, bj) in enumerate(zip(point, self.base)):
            off = int(pj) - int(bj)
            if j == a:
                if not (0 <= off <= self.length):
                    return False
            elif abs(off) > self.half_width:
                return False
        return True

    def vertex_array(self):
        """All member vertices as an (n, d) integer array."""
        a = self.axis - 1
        ranges = []
        for j in range(self.d):
            if j == a:
                ranges.append(np.arange(0, self.length + 1))
            else:
                ranges.append(np.arange(-self.half_width, self.half_width + 1))
        mesh = np.meshgrid(*ranges, indexing="ij")
        offs = np.stack([m.reshape(-1) for m in mesh], axis=1)
        return offs + np.asarray(self.base, dtype=np.int64)


def corner_points(x):
    """The d+1 segment corners of the staircase path from 0 to x.

    Corner i fixes the first i coordinates of x and zeroes the rest.
    """
    d = len(x)
    pts = [tuple([0] * d)]
    for i in range(1, d + 1):
        pts.append(tuple(int(c) for c in x[:i]) + (0,) * (d - i))
    return pts


def path_points(x):
    """The staircase path from 0 to x: |x| + 1 vertices walking each axis in turn."""
    d = len(x)
    pts = [[0] * d]
    cur = [0] * d
    for i in range(d):
        target = int(x[i])
        step = 1 if target >= 0 else -1
        for _ in range(abs(target)):
            cur = list(cur)
            cur[i] += step
            pts.append(cur)
    return [tuple(p) for p in pts]


def _mirror_rectangle(rect, signs):
    """Reflect a hyper-rectangle coordinate-wise where signs are negative."""
    a = rect.axis - 1
    base = list(rect.base)
    for j, s in enumerate(signs):
        if s >= 0:
            continue
        if j == a:
            base[j] = -(base[j] + rect.length)
        else:
            base[j] = -base[j]
    return HyperRectangle(tuple(base), rect.axis, rect.length, rect.half_width)


def covering_rectangles(x, r):
    """A family of d+1 hyper-rectangles covering an r-tube around the path to x.

    Rectangle 0 is the full box [-r, r]^d around the origin; rectangle i runs
    from segment corner i-1 along axis i for a length |x_i| + r with
    half-width r in the other axes.  Points with negative coordinates are
    handled by mirroring the positive-orthant construction coordinate-wise.

    Together the rectangles contain every vertex within l1 distance r of the
    staircase path, ample for chain balls of radius sqrt(s) + r/48.
    """
    d = len(x)
    r = int(r)
    if r < 1:
        raise ValueError("radius must be a positive integer")
    if all(int(c) == 0 for c in x):
        raise ValueError("degenerate chain")
    if r > 4 * l1_norm(x):
        raise ValueError("radius exceeds four times the target norm")

    signs = [1 if int(c) >= 0 else -1 for c in x]
    ax = tuple(abs(int(c)) for c in x)

    rects = [HyperRectangle((-r,) + (0,) * (d - 1), 1, 2 * r, r)]
    corners = corner_points(ax)
    for i in range(1, d + 1):
        rects.append(HyperRectangle(corners[i - 1], i, ax[i - 1] + r, r))
    return [_mirror_rectangle(rect, signs) for rect in rects]
