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
sorted rows.  The block's pattern, and where each entry's weight sits in a
field's values, depend on the geometry alone: one read-only copy per
geometry is shared by every kernel built on it.

A sweep also runs in growing stages.  T_k(S) u_0 vanishes outside the l1
torus ball B(k) of radius k around u_0's support (S links only neighbors),
so while k + 1 <= R the product u_{k+1} = 2 S u_k - u_{k-1} needs only the
block's rows at the even vertices of B(R), each with all its entries, over
the odd vertices of B(R + 1), which hold every neighbor of those rows.  The
terms then live on these vertices alone, in ascending position order; when
k reaches R the last two terms are scattered into the next stage, and the
full block and its transpose run the last one.  Each stage's R is the
largest radius whose even ball holds at most 1/32, 1/8 or 1/3 of its class:
from a point on 48^3, R = 13, 21 and 29, and a 98-term sweep multiplies 74 %
of the rows of 98 full products.  The stages keep every bit.  A row product
sums all the row's entries in stored order, as before.  The transpose sums
each output over ascending even positions, as before, less the entries at
even vertices outside the stage, and each of those multiplies a zero; scipy
starts every sum at +0.0, so a sum is never -0.0, and adding a signed zero
to it changes nothing.  Outside the stage every term of a full sweep is
+0.0, which is what the scatter writes.  A plan (positions and renumbered
column indices per stage) depends only on the geometry and the start's
support, and is cached read-only like the block's pattern.  A start on more
than 16 vertices gets no early stage, and a fraction its ball of radius 1
already exceeds gets none either.

As |T_k| <= 1 on [-1, 1], dropping the terms k > K moves the law of any start
distribution by at most sqrt(sum mu / min mu) * sum_{k > K} c_k(t) in l1 (so
also sup) norm.  A full law is certified by this bound, and K is the least
degree keeping it below the tolerance, about sqrt(t log(1/tol)).  It does
not depend on the source, so a source swept alone or inside a block gets the
same bits.  A sweep kept only at targets certifies each target y instead:
|T_k(S) u_0 (y)| <= |T_k(S) u_0|_2 <= |u_0|_2, so the dropped terms move its
value by at most sqrt(mu(y)) |u_0|_2 * sum_{k > K} c_k(t), which is
sqrt(mu(y) / mu(x)) * sum_{k > K} c_k(t) from a point source x (Carne and
Varopoulos's entrywise estimate); K is the least degree keeping the largest
target's bound below the tolerance, and each target reports its own.  The
dropped mass is a Skellam tail, nondecreasing in t, so the degree for a time
covers every earlier one.  Entries the truncated series leaves negative are set to zero, which
moves no entry further from the true law.

The heat kernel (density with respect to the reversible measure mu) is
p(t, x, y) = P_x[X_t = y] / mu(y).  Everything built from p comes from one
sweep, :func:`propagate`: a block of sources, one column each, advances once
to the degree of the largest requested time, and every time sums its own
coefficients on the way; with targets the sweep keeps the terms
T_k(P^T) start at the targets instead, exactly as many as the largest time
needs.

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
from dataclasses import dataclass
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
    """The block's CSR pattern (column indices, row pointers) and each entry's
    flat index into a field's ``values``, all int32 and read-only: row r lists
    the r-th even vertex's 2d neighbours by their positions v // 2 in the odd
    class, in ascending vertex order.  Every kernel on the geometry shares it."""
    d = geometry.d
    even = _colour_classes(d, geometry.L)[0]
    nbrs = geometry.neighbor_table()[even]
    order = np.argsort(nbrs, axis=1)
    cols = np.take_along_axis(nbrs, order, axis=1) >> 1
    indptr = np.arange(0, cols.size + 1, 2 * d, dtype=np.int32)
    # the edge to x + e_a carries values[x, a], the edge to y = x - e_a values[y, a]
    at = nbrs * d
    at[:, :d] = (even * d).astype(np.int32)[:, None]
    at += np.arange(2 * d, dtype=np.int32) % d
    at = np.take_along_axis(at, order, axis=1)
    for array in (cols, indptr, at):
        array.flags.writeable = False
    return cols, indptr, at


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
    cols, indptr, at = _block_pattern(geo)
    # one product sqrt(mu(x)) sqrt(mu(y)) per entry keeps S exactly symmetric
    data = root[odd][cols]
    data *= root[even, None]
    values = field.values.reshape(-1)
    for j, column in enumerate(at.T):  # w(x, y) over it, in place, one column at a time
        np.divide(values[column], data[:, j], out=data[:, j])
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
    <= tol, and that dropped sum.  ``scale`` is sqrt(sum mu / min mu) for a
    full law and sqrt(max mu(y)) |u_0|_2 at targets y (module docstring)."""
    n_terms = int(12.0 * math.sqrt(t)) + 40
    while True:
        c = _coefficients(t, n_terms)
        # tails[k] = sum_{j > k} c_j, summed from the small end; the terms past
        # n_terms fall geometrically and are far below the last one kept
        tails = np.append(np.cumsum(c[:0:-1])[::-1], 0.0)
        ok = np.flatnonzero(scale * tails <= tol)
        degree = int(ok[0]) if ok.size else n_terms
        if degree + 4 * math.sqrt(t) + 20 < n_terms:
            return c[: degree + 1], float(tails[degree])
        n_terms *= 2


# Stages end at the largest radius whose even ball around the start's support
# holds at most each of these fractions of the class (module docstring).
_STAGE_FRACTIONS = (1 / 32, 1 / 8, 1 / 3)

# a start on more vertices than this gets no early stage
_STAGE_SUPPORT = 16


@dataclass(frozen=True, eq=False)
class _Stage:
    """One stage of a sweep: the products u_{k+1} with k < ``radius`` run on
    S restricted to the ball B(radius) around the start's support.

    ``positions`` holds, ascending, the even positions at torus distance
    <= radius and the odd ones at distance <= radius + 1; ``indices`` the
    first ones' rows of the block's column indices, renumbered onto the
    second; ``into`` where the previous stage's positions sit in these (None
    for a first stage); ``sizes`` the lengths of the two halves.  The full
    block is a stage with ``positions`` and ``indices`` None and an infinite
    radius, and ends every plan."""

    radius: float
    positions: tuple
    indices: np.ndarray
    into: tuple
    sizes: tuple

    def lift(self, halves):
        """Halves on the previous stage's positions, on this stage's: zero at
        the positions that stage lacked."""
        out = []
        for half, into, size in zip(halves, self.into, self.sizes):
            if half is not None:
                wide = np.zeros((size,) + half.shape[1:])
                wide[into] = half
                half = wide
            out.append(half)
        return out


@lru_cache(maxsize=32)
def _stage_plan(geometry, support):
    """The stages of every sweep from a start on the vertex indices
    ``support``, read-only: one per radius that :data:`_STAGE_FRACTIONS`
    picks, then the full block, the only stage when ``support`` is None."""
    half = geometry.n_vertices // 2
    stages = []
    if support is not None:
        classes = _colour_classes(geometry.d, geometry.L)
        dist = np.minimum.reduce([geometry.distance_field(geometry.coords(v)) for v in support])
        dist_even, dist_odd = dist[classes[0]], dist[classes[1]]
        ball = np.cumsum(np.bincount(dist_even))  # the even ball's size per radius
        radii = {int(np.searchsorted(ball, f * half, side="right")) - 1
                 for f in _STAGE_FRACTIONS}
        cols = _block_pattern(geometry)[0]
        for radius in sorted(r for r in radii if r >= 1):
            positions = (np.flatnonzero(dist_even <= radius).astype(np.int32),
                         np.flatnonzero(dist_odd <= radius + 1).astype(np.int32))
            renumber = np.zeros(half, dtype=np.int32)
            renumber[positions[1]] = np.arange(positions[1].size, dtype=np.int32)
            indices = renumber[cols[positions[0]]]
            into = None
            if stages:
                into = tuple(np.searchsorted(new, old).astype(np.int32)
                             for new, old in zip(positions, stages[-1].positions))
            for array in (*positions, indices, *(into or ())):
                array.flags.writeable = False
            stages.append(_Stage(radius, positions, indices, into,
                                 tuple(p.size for p in positions)))
    into = stages[-1].positions if stages else None
    return (*stages, _Stage(math.inf, None, None, into, (half, half)))


def _start_stages(geometry, start):
    """The cached stage plan for the support of ``start`` (a vector or a block
    of columns)."""
    support = np.flatnonzero(start if start.ndim == 1 else start.any(axis=1))
    key = tuple(support.tolist()) if support.size <= _STAGE_SUPPORT else None
    return _stage_plan(geometry, key)


def _stage_block(block, stage):
    """The stage's sub-block of ``block``: the rows at its even positions, each
    with all its entries, over its odd positions."""
    import scipy.sparse as sp

    rows, width = stage.indices.shape
    data = np.take(block.data.reshape(-1, width), stage.positions[0], axis=0)
    indptr = np.arange(0, rows * width + 1, width, dtype=np.int32)
    return sp.csr_matrix((data.reshape(-1), stage.indices.reshape(-1), indptr),
                         shape=stage.sizes)


def _chebyshev_terms(block, u, stages):
    """Yields (stage, T_k(S) u) for k = 1, 2, ... by u_{k+1} = 2 S u_k - u_{k-1},
    each term as its (even half, odd half) pair on the stage's positions (see
    :class:`_Stage`; ``stages`` is a plan, ending with the full block).  None
    stands for a half that is identically zero and costs no product, so a
    start on one class pays one half-size product per term, by the stage's
    block on the odd half and by its transpose on the even one.  Holds only
    the block, the current stage's sub-block and the last two pairs, so a
    finished profile keeps no kernel alive."""
    prev, cur, k = None, u, 0
    for stage in stages:
        sub = block if stage.indices is None else _stage_block(block, stage)
        transpose = sub.T
        if k:
            prev, cur = stage.lift(prev), stage.lift(cur)
        elif stage.positions is not None:
            cur = tuple(None if half is None else half[pos]
                        for half, pos in zip(cur, stage.positions))
        while k < stage.radius:
            even, odd = cur
            nxt = (None if odd is None else sub @ odd,
                   None if even is None else transpose @ even)
            if prev is not None:
                # S swaps the classes, so u_{k+1} is live on the halves u_{k-1} is
                for half, old in zip(nxt, prev):
                    if half is not None:
                        half *= 2.0
                        half -= old
            prev, cur, k = cur, nxt, k + 1
            yield stage, cur


def propagate(kernel, start, times, tol=1e-10, targets=None):
    """Laws at ``times`` from ``start`` (a distribution, or a block of them as
    columns) and their truncation bounds, by one Chebyshev sweep to the degree
    of the largest time; each bound holds for the whole law in l1 norm.  With
    ``targets`` (vertex indices) it returns the terms T_k(P^T) start at the
    targets as a :class:`TransitionProfile` instead, whose degree and bound
    certify each target's value alone and so stop earlier (module docstring).
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
                             tuple(u0[rows] if np.any(u0[rows]) else None for rows in classes),
                             _start_stages(kernel.geometry, start))
    if targets is not None:
        targets = np.asarray(targets)
        root_t = root[targets]
        # |T_k(S) u0 (y)| <= |u0|_2 for every k and y; a ufunc reduction, as a
        # BLAS norm would wake its thread pool under annealed_green's workers
        norm_sq = float(np.square(u0).sum(axis=0).max())
        mu_t = kernel.mu[targets]
        c, dropped = _series(max(times), tol, math.sqrt(float(mu_t.max()) * norm_sq))
        on_odd = classes[0][targets // 2] != targets
        picks = [(sel, targets[sel] // 2) for sel in (np.flatnonzero(~on_odd),
                                                      np.flatnonzero(on_odd))]
        shape = targets.shape + start.shape[1:]

        def inside(stage):
            """Each class's targets in the stage and their indices there; the
            others' terms are zero."""
            if stage.positions is None:
                return picks
            out = []
            for (sel, pos), positions in zip(picks, stage.positions):
                at = np.minimum(np.searchsorted(positions, pos), positions.size - 1)
                hit = positions[at] == pos
                out.append((sel[hit], at[hit]))
            return out

        def at_targets(halves, located):
            out = np.zeros(shape)
            for half, (sel, at) in zip(halves, located):
                if half is not None:
                    out[sel] = half[at]
            return root_t * out

        coeff = [start[targets]]
        del start, root, u0  # the sweep needs only the block and its last terms
        stage = None
        for _, (now, u) in zip(range(len(c) - 1), terms):
            if now is not stage:
                stage, located = now, inside(now)
            coeff.append(at_targets(u, located))
        return TransitionProfile(np.array(coeff), mu_t, float(max(times)),
                                 np.sqrt(mu_t * norm_sq) * dropped)
    scale = math.sqrt(float(kernel.mu.sum()) / float(kernel.mu.min()))
    series = [_series(t, tol, scale) for t in times]
    sums = [[None, None] for _ in series]
    stage = None
    for k, (now, u) in zip(range(1, max(len(c) for c, _ in series)), terms):
        if now is not stage:
            if stage is not None:  # the sums so far follow the terms
                sums = [now.lift(acc) for acc in sums]
            stage = now
        for (c, _), acc in zip(series, sums):
            if k < len(c):
                for h, half in enumerate(u):
                    if half is None:
                        continue
                    if acc[h] is None:
                        acc[h] = c[k] * half
                    else:
                        acc[h] += c[k] * half
    if stage is not None and stage.positions is not None:  # the sums live on its vertices
        classes = tuple(rows[pos] for rows, pos in zip(classes, stage.positions))
    laws = []
    for (c, _), acc in zip(series, sums):
        total = np.zeros_like(start)
        for rows, half in zip(classes, acc):
            if half is not None:
                total[rows] = half
        # the k = 0 term in the start's own coordinates, so t = 0 returns the start
        laws.append(np.maximum(c[0] * start + root * total, 0.0))
    return laws, [scale * dropped for _, dropped in series]


def heat_slices(kernel, requests, tol=1e-10):
    """Slices for (t, x) requests, keyed by (t, wrapped x) in request order;
    sources that request the same set of times and lie in the same colour
    class share one sweep, staged on the union of their balls, so each term
    costs at most one half-size product per source."""
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
    ``t_max`` needs.  ``trunc_error`` holds each target y's bound
    sqrt(mu(y)) |D^-1/2 start|_2 * sum_{k > K} c_k(t_max) on the dropped
    terms' effect on its ``prob`` up to t_max; the degree K is the least one
    keeping the largest of them below the sweep's tolerance.  It certifies
    the targets, not the law in l1."""

    coeff: np.ndarray
    mu_targets: np.ndarray
    t_max: float
    trunc_error: np.ndarray

    def prob(self, t):
        """P_x[X_t = target] for each target; valid for 0 <= t <= t_max."""
        if not (0 <= t <= self.t_max * (1 + 1e-12)):
            raise ValueError("time outside the profiled range")
        return np.maximum(_coefficients(t, len(self.coeff)) @ self.coeff, 0.0)

    def hk(self, t):
        """p(t, x, target) for each target."""
        return self.prob(t) / self.mu_targets
