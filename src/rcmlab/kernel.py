"""The constant speed random walk and its heat kernel.

The walk waits a mean-one exponential time at each vertex, then jumps to a
neighbor y of x with probability w(x, y) / mu(x), so its time-t law from a
start distribution is e^{t(P^T - I)} start, with P the jump matrix.  With A
the weight matrix and D = diag(mu), P^T = D^1/2 S D^-1/2 for the symmetric
S = D^-1/2 A D^-1/2, whose spectrum lies in [-1, 1], and there
e^{t(s - 1)} = sum_k c_k(t) T_k(s) with c_0 = ive(0, t), c_k = 2 ive(k, t)
and T_k the Chebyshev polynomials (Tal-Ezer and Kosloff's propagator).  The
vectors u_k = T_k(S) D^-1/2 start obey u_{k+1} = 2 S u_k - u_{k-1}, one
sparse product per term, and the law is D^1/2 sum_k c_k(t) u_k.

The torus side L is even (:class:`~rcmlab.lattice.TorusGeometry` admits no
other), so the nearest-neighbour graph is bipartite: S links the even colour
class (coordinate sum even) only to the odd one.  The sweep keeps each u_k as
its two halves (the red-black ordering, Saad, Iterative Methods for Sparse
Linear Systems, sec. 2.3), skipping a half that is identically zero.  S is
stored once, as its rows at the even vertices over the odd ones, in
ascending vertex order; its transpose, a CSC view of the same arrays, maps
the even half to the odd one.  From a point source x, T_k(S) delta_x lives
on x's class for even k and on the other for odd k, so each term is one
half-size product.  Both products sum each output over its sources in
ascending order, so the split changes no bit of a full sweep by S with
sorted rows.  The block's pattern depends on the geometry alone: one
read-only copy per geometry is shared by every kernel built on it.

As |T_k| <= 1 on [-1, 1], dropping the terms k > K moves the law of any start
distribution by at most sqrt(sum mu / min mu) * sum_{k > K} c_k(t) in l1 (so
also sup) norm.  K is the least degree keeping this below the tolerance,
about sqrt(t log(1/tol)).  It does not depend on the source, so a source
swept alone or inside a block gets the same bits; the dropped mass is a
Skellam tail, nondecreasing in t, so the degree for a time covers every
earlier one.  Entries the truncated series leaves negative are set to zero,
which moves no entry further from the true law.

The heat kernel (density with respect to the reversible measure mu) is
p(t, x, y) = P_x[X_t = y] / mu(y).  Everything built from p comes from one
sweep, :func:`propagate`: a block of sources, one column each, advances once
to the degree of the largest requested time, and every time sums its own
coefficients on the way; with targets the sweep keeps the terms
T_k(P^T) start at the targets instead.

A kernel holds only the block and mu.  S as one matrix exists only inside
:func:`spectral_oracle`, a dense eigendecomposition route that serves as an
independent oracle on small tori; :func:`simulate_walk` reads one row of S
per jump, already in vertex order.

scipy loads on first use: :func:`jump_kernel` imports ``scipy.sparse`` and
``scipy.special``, so the samplers and moment checks, which build no kernel,
run without it.

Both computations live on the torus, and a slice certifies only what it
computes: the series truncation.  It states nothing about how far the torus
law is from the law on the full lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def _colour_classes(d, L):
    """The even and odd colour classes (coordinate sum even or odd), each a
    sorted array of vertex indices.  As L is even, vertices 2m and 2m + 1 lie
    in opposite classes, so vertex v sits at position v // 2 of its class."""
    line = np.arange(L) & 1
    parity = line
    for _ in range(d - 1):
        parity = parity[..., None] ^ line
    parity = parity.reshape(-1)
    classes = np.flatnonzero(parity == 0), np.flatnonzero(parity)
    for rows in classes:
        rows.flags.writeable = False  # the cache hands them to every caller
    return classes


@dataclass
class JumpKernel:
    """S = D^-1/2 A D^-1/2 stored once, as the one off-diagonal block every
    sweep multiplies by, with mu alongside; the kernel holds nothing else.

    The nearest-neighbour graph is bipartite, so S maps each colour class
    onto the other.  ``block`` holds the rows of S at the even vertices over
    the odd ones, each in ascending vertex order, a row or column being a
    vertex's position v // 2 in its class; as S is symmetric, ``block.T`` (a
    CSC view of the same arrays) holds its rows at the odd vertices.  The two
    oracles read S from it: :func:`spectral_oracle` as a dense matrix,
    :func:`simulate_walk` one row at a time."""

    geometry: object
    mu: np.ndarray
    block: object  # scipy.sparse.csr_matrix


@lru_cache(maxsize=32)
def _block_pattern(geometry):
    """The block's CSR pattern (column indices, row pointers; int32) and each
    entry's column in the neighbor table (int8), read-only: row r lists the
    r-th even vertex's 2d neighbours by their positions v // 2 in the odd
    class, in ascending vertex order.  Every kernel on the geometry shares it."""
    d = geometry.d
    even = _colour_classes(d, geometry.L)[0]
    nbrs = geometry.neighbor_table()[even]
    order = np.argsort(nbrs, axis=1).astype(np.int8)
    cols = np.take_along_axis(nbrs, order, axis=1) >> 1
    indptr = np.arange(0, cols.size + 1, 2 * d, dtype=np.int32)
    for array in (cols, indptr, order):
        array.flags.writeable = False
    return cols, indptr, order


def jump_kernel(field):
    """Build the block of S(x, y) = w(x, y) / sqrt(mu(x) mu(y)) on neighbors;
    validates that the jump probabilities w(x, y) / mu(x) sum to one."""
    import scipy.sparse as sp
    import scipy.special  # noqa: F401  the kernel's sweeps need it; load it with scipy.sparse

    geo = field.geometry
    mu_vec = field.mu_vector()
    if np.any(mu_vec <= 0):
        raise ValueError("mu must be positive at every vertex")
    root = np.sqrt(mu_vec)
    even, odd = _colour_classes(geo.d, geo.L)
    cols, indptr, order = _block_pattern(geo)
    # one product sqrt(mu(x)) sqrt(mu(y)) per entry keeps S exactly symmetric
    data = root[odd][cols]
    data *= root[even, None]
    d, values = geo.d, field.values.reshape(-1)
    for j, a in enumerate(order.T):  # w(x, y) over it, in place, one column at a time
        # the edge to x + e_a carries values[x, a], the edge to y = x - e_a values[y, a]
        at = np.where(a < d, even, odd[cols[:, j]]) * d + a % d
        np.divide(values[at], data[:, j], out=data[:, j])
    block = sp.csr_matrix((data.reshape(-1), cols.reshape(-1), indptr),
                          shape=(even.size, odd.size))
    # row sums of P, since (S sqrt(mu))(x) / sqrt(mu(x)) = sum_y P(x, y)
    for sums, rows in ((block @ root[odd], even), (block.T @ root[even], odd)):
        if np.max(np.abs(sums / root[rows] - 1.0)) > 1e-12:
            raise ValueError("jump matrix rows must sum to one")
    return JumpKernel(geo, mu_vec, block)


@dataclass
class HeatKernelSlice:
    """Time-t law from one source, as probabilities and as a density.

    ``prob`` is P_x[X_t = .]; ``hk`` is prob / mu.  ``trunc_error`` bounds the
    series truncation of ``prob`` in l1 (hence sup) norm, and ``hk_error``
    = trunc_error / min mu bounds it for ``hk``: the one density error the
    envelope fit and its verification allow for.
    """

    t: float
    source: tuple
    prob: np.ndarray
    hk: np.ndarray
    trunc_error: float
    hk_error: float
    geometry: object


def point_mass(geometry, x):
    """Indicator vector of vertex x: the law at time zero of the walk from x."""
    v = np.zeros(geometry.n_vertices)
    v[geometry.index(x)] = 1.0
    return v


def _coefficients(t, n_terms):
    """c_0(t), ..., c_{n_terms - 1}(t): c_0 = ive(0, t), c_k = 2 ive(k, t)."""
    from scipy import special

    c = special.ive(np.arange(n_terms), t)
    c[1:] *= 2.0
    return c


def _series(t, tol, scale):
    """Coefficients c_0..c_K(t) for the least K with scale * sum_{k > K} c_k(t)
    <= tol, and that bound.  ``scale`` is sqrt(sum mu / min mu)."""
    n_terms = int(12.0 * math.sqrt(t)) + 40
    while True:
        c = _coefficients(t, n_terms)
        # tails[k] = sum_{j > k} c_j, summed from the small end; the terms past
        # n_terms fall geometrically and are far below the last one kept
        tails = np.append(np.cumsum(c[:0:-1])[::-1], 0.0)
        ok = np.flatnonzero(scale * tails <= tol)
        degree = int(ok[0]) if ok.size else n_terms
        if degree + 4 * math.sqrt(t) + 20 < n_terms:
            return c[: degree + 1], scale * float(tails[degree])
        n_terms *= 2


def _chebyshev_terms(block, u):
    """Yields T_1(S) u, T_2(S) u, ... by u_{k+1} = 2 S u_k - u_{k-1}, each as
    its (even half, odd half) pair; None stands for a half that is identically
    zero and costs no product, so a start on one class pays one half-size
    product per term, by ``block`` on the odd half and by its transpose on the
    even one.  Holds only the block and the last two pairs, so a finished
    profile keeps no kernel alive."""
    transpose = block.T

    def times_s(v):
        even, odd = v
        return (None if odd is None else block @ odd,
                None if even is None else transpose @ even)

    prev, cur = u, times_s(u)
    while True:
        yield cur
        nxt = times_s(cur)
        # S swaps the classes, so u_{k+1} is live on the halves u_{k-1} is
        for half, old in zip(nxt, prev):
            if half is not None:
                half *= 2.0
                half -= old
        prev, cur = cur, nxt


def propagate(kernel, start, times, tol=1e-10, targets=None):
    """Laws at ``times`` from ``start`` (a distribution, or a block of them as
    columns) and their truncation bounds, by one Chebyshev sweep to the degree
    of the largest time.  With ``targets`` (vertex indices) it returns the
    terms T_k(P^T) start at the targets as a :class:`TransitionProfile` instead.
    """
    if not all(0 <= t < math.inf for t in times):
        raise ValueError("time must be finite and nonnegative")
    if not (0 < tol < 1):
        raise ValueError("tolerance must be in (0, 1)")
    start = np.asarray(start, dtype=np.float64)
    root = np.sqrt(kernel.mu)
    if start.ndim == 2:
        root = root[:, None]
    classes = _colour_classes(kernel.geometry.d, kernel.geometry.L)
    u0 = start / root
    terms = _chebyshev_terms(kernel.block,
                             tuple(u0[rows] if np.any(u0[rows]) else None for rows in classes))
    scale = math.sqrt(float(kernel.mu.sum()) / float(kernel.mu.min()))
    if targets is not None:
        targets = np.asarray(targets)
        root_t = root[targets]
        on_odd = classes[0][targets // 2] != targets
        picks = [(sel, targets[sel] // 2) for sel in (np.flatnonzero(~on_odd),
                                                      np.flatnonzero(on_odd))]
        shape = targets.shape + start.shape[1:]

        def at_targets(halves):
            out = np.zeros(shape)
            for half, (sel, pos) in zip(halves, picks):
                if half is not None:
                    out[sel] = half[pos]
            return root_t * out

        profile = TransitionProfile(start[targets][None], kernel.mu[targets], 0.0, tol,
                                    scale, 0.0, map(at_targets, terms))
        del start, root, u0  # the sweep needs only the block and its last terms
        return profile.extend(max(times))
    series = [_series(t, tol, scale) for t in times]
    sums = [[None, None] for _ in series]
    for k, u in zip(range(1, max(len(c) for c, _ in series)), terms):
        for (c, _), acc in zip(series, sums):
            if k < len(c):
                for h, half in enumerate(u):
                    if half is None:
                        continue
                    if acc[h] is None:
                        acc[h] = c[k] * half
                    else:
                        acc[h] += c[k] * half
    laws = []
    for (c, _), acc in zip(series, sums):
        total = np.zeros_like(start)
        for rows, half in zip(classes, acc):
            if half is not None:
                total[rows] = half
        # the k = 0 term in the start's own coordinates, so t = 0 returns the start
        laws.append(np.maximum(c[0] * start + root * total, 0.0))
    return laws, [bound for _, bound in series]


def heat_slices(kernel, requests, tol=1e-10):
    """Slices for (t, x) requests, keyed by (t, wrapped x) in request order;
    sources that request the same set of times and lie in the same colour
    class share one sweep, so each term costs one half-size product per source."""
    geo = kernel.geometry
    mu_min = float(kernel.mu.min())
    table = {(float(t), geo.wrap(x)): None for t, x in requests}
    blocks = {}
    for x in dict.fromkeys(x for _, x in table):
        times = tuple(sorted(t for t, y in table if y == x))
        blocks.setdefault((times, sum(x) % 2), []).append(x)
    for (times, _), sources in blocks.items():
        start = np.column_stack([point_mass(geo, x) for x in sources])
        laws, tails = propagate(kernel, start, times, tol)
        for t, law, tail in zip(times, laws, tails):
            for j, x in enumerate(sources):
                prob = law[:, j].copy()
                table[t, x] = HeatKernelSlice(t, x, prob, prob / kernel.mu, tail,
                                              tail / mu_min, geo)
    return table


def heat_kernel(field, t, x, tol=1e-10, kernel=None):
    """Heat kernel slice at time t from source x, by the Chebyshev sweep;
    ``tol`` bounds the series truncation error."""
    kern = kernel if kernel is not None else jump_kernel(field)
    return heat_slices(kern, [(t, x)], tol)[float(t), field.geometry.wrap(x)]


_DENSE_LIMIT = 10_000


def spectral_oracle(field, t, x):
    """Dense eigendecomposition route for cross-validating the series method.

    Works through the symmetric matrix S = D^-1/2 A D^-1/2 (A the weight
    matrix, D = diag(mu)), assembled dense from the kernel's block and its
    transpose; all eigenvalues must lie in [-1, 1].
    """
    geo = field.geometry
    n = geo.n_vertices
    if n > _DENSE_LIMIT:
        raise ValueError("geometry too large for the dense spectral oracle")
    if t < 0:
        raise ValueError("time must be nonnegative")
    kern = jump_kernel(field)
    root = np.sqrt(kern.mu)
    even, odd = _colour_classes(geo.d, geo.L)
    dense = np.zeros((n, n))
    half = kern.block.toarray()
    dense[np.ix_(even, odd)] = half
    dense[np.ix_(odd, even)] = half.T
    eigvals, eigvecs = np.linalg.eigh(dense)
    if eigvals[0] < -1.0 - 1e-10 or eigvals[-1] > 1.0 + 1e-10:
        raise ValueError("spectrum escapes [-1, 1]")
    xi = geo.index(x)
    decay = np.exp(t * (eigvals - 1.0))
    # prob(y) = sum_k U[x,k] e^{t(lam_k - 1)} U[y,k] sqrt(mu(y)/mu(x))
    prob = (eigvecs @ (decay * eigvecs[xi])) * (root / root[xi])
    prob = np.maximum(prob, 0.0)
    return HeatKernelSlice(float(t), geo.wrap(x), prob, prob / kern.mu, 0.0, 0.0, geo)


def simulate_walk(field, x, t, rng, with_jumps=False, kernel=None):
    """One trajectory endpoint of the walk started at x and run until time t.

    Each jump reads the current vertex's row of S, its neighbors already in
    vertex order, and takes P(x, y) = S(x, y) sqrt(mu(y)) / sqrt(mu(x))."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    geo = field.geometry
    kern = kernel if kernel is not None else jump_kernel(field)
    root = np.sqrt(kern.mu)
    even, odd = _colour_classes(geo.d, geo.L)
    width, cols = 2 * geo.d, kern.block.indices
    # S's rows at the odd vertices are the block's columns: a stable sort by
    # column lists each column's entries by ascending row, so in vertex order
    entries = (np.arange(cols.size).reshape(-1, width),
               np.argsort(cols, kind="stable").reshape(-1, width))
    nbrs_of = odd[cols].reshape(-1, width), even[entries[1] // width]
    current = geo.index(x)
    clock = 0.0
    jumps = 0
    while True:
        clock += rng.exponential(1.0)
        if clock > t:
            break
        row = current // 2
        on_odd = int(even[row] != current)
        nbrs = nbrs_of[on_odd][row]
        probs = kern.block.data[entries[on_odd][row]] * root[nbrs] / root[current]
        current = int(rng.choice(nbrs, p=probs / probs.sum()))
        jumps += 1
    endpoint = geo.coords(current)
    if with_jumps:
        return endpoint, jumps
    return endpoint


@dataclass
class TransitionProfile:
    """Terms coeff[k] = T_k(P^T) start at the targets, for the degree that
    ``t_max`` needs; ``terms`` yields the next ones of the same sweep.
    ``trunc_error`` bounds the dropped terms' effect on ``prob`` up to t_max."""

    coeff: np.ndarray
    mu_targets: np.ndarray
    t_max: float
    tol: float
    scale: float
    trunc_error: float
    terms: object = dataclass_field(repr=False)

    def extend(self, t_max):
        """Continue the sweep until the terms cover t_max; returns self."""
        self.t_max = max(self.t_max, float(t_max))
        c, self.trunc_error = _series(self.t_max, self.tol, self.scale)
        more = [v for _, v in zip(range(len(c) - len(self.coeff)), self.terms)]
        if more:
            self.coeff = np.concatenate([self.coeff, more])
        return self

    def prob(self, t):
        """P_x[X_t = target] for each target; valid for 0 <= t <= t_max."""
        if not (0 <= t <= self.t_max * (1 + 1e-12)):
            raise ValueError("time outside the profiled range")
        return np.maximum(_coefficients(t, len(self.coeff)) @ self.coeff, 0.0)

    def hk(self, t):
        """p(t, x, target) for each target."""
        return self.prob(t) / self.mu_targets
