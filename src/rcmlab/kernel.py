"""The constant speed random walk and its heat kernel.

The walk waits a mean-one exponential time at each vertex, then jumps to a
neighbor y of x with probability w(x, y) / mu(x).  Because the total jump
rate is one everywhere, the time-t law from x is an exact Poisson mixture of
powers of the embedded jump matrix P:

    P_x[X_t = .] = sum_{n >= 0} e^-t t^n / n! * P^n(x, .)

Truncating the series at a Poisson-tail cutoff gives the distribution with a
certified sup-norm error.  The heat kernel (density with respect to the
reversible measure mu) is p(t, x, y) = P_x[X_t = y] / mu(y).  Everything built
from p comes from one sweep, :func:`propagate`: a block of sources, one column
each, advances once to the cutoff of the largest requested time, and every
time sums its own Poisson weights on the way; with targets the sweep keeps
the coefficients P^n(x, target) instead.

A dense spectral route through the symmetrized matrix
S(x, y) = w(x, y) / sqrt(mu(x) mu(y)) serves as an independent oracle for
cross-validation on small tori.

Both computations live on the torus.  A slice additionally reports a wrap
certificate: a walk can only feel the periodic identification after at least
L/2 jumps, so the torus law differs from the full-lattice law by at most
P(Poisson(t) >= L/2) in sup norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy import special

from .poisson import poisson_cutoff, poisson_tail, poisson_weights


@dataclass
class JumpKernel:
    """Row-stochastic jump matrix of the embedded chain, with mu alongside."""

    geometry: object
    matrix: sp.csr_matrix
    mu: np.ndarray

    @cached_property
    def transpose(self):
        return self.matrix.T.tocsr()


def jump_kernel(field):
    """Build P(x, y) = w(x, y) / mu(x) on neighbors; validates stochasticity."""
    geo = field.geometry
    n, d = geo.n_vertices, geo.d
    mu_vec = field.mu_vector()
    if np.any(mu_vec <= 0):
        raise ValueError("mu must be positive at every vertex")
    table = geo.neighbor_table()
    rows = np.repeat(np.arange(n), 2 * d)
    cols = table.reshape(-1)
    weights = np.empty((n, 2 * d))
    for a in range(d):
        weights[:, a] = field.values[:, a]
        weights[:, d + a] = field.values[table[:, d + a], a]
    data = (weights / mu_vec[:, None]).reshape(-1)
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    row_sums = np.asarray(matrix.sum(axis=1)).reshape(-1)
    if np.max(np.abs(row_sums - 1.0)) > 1e-12:
        raise ValueError("jump matrix rows must sum to one")
    return JumpKernel(geo, matrix, mu_vec)


@dataclass
class HeatKernelSlice:
    """Time-t law from one source, as probabilities and as a density.

    ``prob`` is P_x[X_t = .]; ``hk`` is prob / mu.  ``trunc_error`` bounds the
    sup-norm series truncation; ``wrap_error`` bounds the discrepancy to the
    full-lattice law of the periodically extended environment.
    """

    t: float
    source: tuple
    prob: np.ndarray
    hk: np.ndarray
    trunc_error: float
    wrap_error: float
    geometry: object


def _wrap_bound(geometry, t):
    return min(1.0, poisson_tail(t, geometry.L // 2))


def point_mass(geometry, x):
    """Indicator vector of vertex x: the law at time zero of the walk from x."""
    v = np.zeros(geometry.n_vertices)
    v[geometry.index(x)] = 1.0
    return v


def _powers(pt, v):
    """Yields v, P^T v, (P^T)^2 v, ...: one SpMV per item after the first.  Holds only
    the matrix and the last vector, so a finished profile keeps no kernel alive."""
    v = np.asarray(v, dtype=np.float64)
    while True:
        yield v
        v = pt @ v


def propagate(kernel, start, times, tol=1e-10, targets=None):
    """Laws at ``times`` from ``start`` (a distribution, or a block of them as
    columns) and their truncation tails, by one sweep to the Poisson cutoff of
    the largest time.  With ``targets`` (vertex indices) it returns the
    coefficients P^n(start, targets) as a :class:`TransitionProfile` instead.
    """
    if min(times) < 0:
        raise ValueError("time must be nonnegative")
    if not (0 < tol < 1):
        raise ValueError("tolerance must be in (0, 1)")
    if targets is not None:
        terms = (v[targets] for v in _powers(kernel.transpose, start))
        profile = TransitionProfile(np.array([next(terms)]), kernel.mu[targets], 0.0, tol, terms)
        return profile.extend(max(times))
    series = [poisson_weights(t, tol) for t in times]
    laws = [None] * len(series)
    for n, v in zip(range(max(len(w) for w, _ in series)), _powers(kernel.transpose, start)):
        for i, (weights, _) in enumerate(series):
            if n < len(weights):
                laws[i] = weights[n] * v if n == 0 else laws[i] + weights[n] * v
    return laws, [tail for _, tail in series]


def heat_slices(kernel, requests, tol=1e-10):
    """Slices for (t, x) requests, keyed by (t, wrapped x) in request order;
    sources that request the same set of times share one sweep."""
    geo = kernel.geometry
    table = {(float(t), geo.wrap(x)): None for t, x in requests}
    blocks = {}
    for x in dict.fromkeys(x for _, x in table):
        blocks.setdefault(tuple(sorted(t for t, y in table if y == x)), []).append(x)
    for times, sources in blocks.items():
        start = np.column_stack([point_mass(geo, x) for x in sources])
        laws, tails = propagate(kernel, start, times, tol)
        for t, law, tail in zip(times, laws, tails):
            for j, x in enumerate(sources):
                prob = law[:, j].copy()
                table[t, x] = HeatKernelSlice(t, x, prob, prob / kernel.mu, tail,
                                              _wrap_bound(geo, t), geo)
    return table


def heat_kernel(field, t, x, tol=1e-10, wrap_tol=None, kernel=None):
    """Heat kernel slice at time t from source x, by the Poisson jump series.

    ``tol`` bounds the series truncation error.  When ``wrap_tol`` is given,
    the torus wrap certificate must also meet it, otherwise the geometry is
    rejected; by default the certificate is only reported.
    """
    kern = kernel if kernel is not None else jump_kernel(field)
    if wrap_tol is not None and _wrap_bound(field.geometry, t) > wrap_tol:
        raise ValueError("torus too small for t")
    return heat_slices(kern, [(t, x)], tol)[float(t), field.geometry.wrap(x)]


_DENSE_LIMIT = 10_000


def spectral_oracle(field, t, x):
    """Dense eigendecomposition route for cross-validating the series method.

    Works through the symmetric matrix S = D^-1/2 A D^-1/2 (A the weight
    matrix, D = diag(mu)); all eigenvalues must lie in [-1, 1].
    """
    geo = field.geometry
    n = geo.n_vertices
    if n > _DENSE_LIMIT:
        raise ValueError("geometry too large for the dense spectral oracle")
    if t < 0:
        raise ValueError("time must be nonnegative")
    kern = jump_kernel(field)
    mu_vec = kern.mu
    root = np.sqrt(mu_vec)
    a_dense = kern.matrix.toarray() * mu_vec[:, None]
    s_matrix = a_dense / root[:, None] / root[None, :]
    eigvals, eigvecs = np.linalg.eigh(s_matrix)
    if eigvals[0] < -1.0 - 1e-10 or eigvals[-1] > 1.0 + 1e-10:
        raise ValueError("spectrum escapes [-1, 1]")
    xi = geo.index(x)
    decay = np.exp(t * (eigvals - 1.0))
    # prob(y) = sum_k U[x,k] e^{t(lam_k - 1)} U[y,k] sqrt(mu(y)/mu(x))
    prob = (eigvecs @ (decay * eigvecs[xi])) * (root / root[xi])
    prob = np.maximum(prob, 0.0)
    return HeatKernelSlice(float(t), geo.wrap(x), prob, prob / mu_vec, 0.0,
                           _wrap_bound(geo, t), geo)


def simulate_walk(field, x, t, rng, with_jumps=False, kernel=None):
    """One trajectory endpoint of the walk started at x and run until time t."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    geo = field.geometry
    kern = kernel if kernel is not None else jump_kernel(field)
    current = geo.index(x)
    clock = 0.0
    jumps = 0
    matrix = kern.matrix
    while True:
        clock += rng.exponential(1.0)
        if clock > t:
            break
        row = matrix.indices[matrix.indptr[current] : matrix.indptr[current + 1]]
        probs = matrix.data[matrix.indptr[current] : matrix.indptr[current + 1]]
        current = int(rng.choice(row, p=probs / probs.sum()))
        jumps += 1
    endpoint = geo.coords(current)
    if with_jumps:
        return endpoint, jumps
    return endpoint


def torus_size_for(t, tol):
    """Smallest even torus side L with wrap certificate P(Pois(t) >= L/2) <= tol."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    if not (0 < tol < 1):
        raise ValueError("tolerance must be in (0, 1)")
    side = 4
    while poisson_tail(t, side // 2) > tol:
        side += 2
    return side


@dataclass
class TransitionProfile:
    """Jump-chain coefficients coeff[n] = P^n(x, targets) up to the Poisson
    cutoff of ``t_max``; ``terms`` yields the next ones of the same sweep."""

    coeff: np.ndarray
    mu_targets: np.ndarray
    t_max: float
    tol: float
    terms: object = dataclass_field(repr=False)

    def extend(self, t_max):
        """Continue the sweep until the coefficients cover t_max; returns self."""
        n_terms = poisson_cutoff(t_max, self.tol) + 1
        more = [c for _, c in zip(range(n_terms - len(self.coeff)), self.terms)]
        if more:
            self.coeff = np.concatenate([self.coeff, more])
        self.t_max = max(self.t_max, float(t_max))
        return self

    def prob(self, t):
        """P_x[X_t = target] for each target; valid for 0 <= t <= t_max."""
        if not (0 <= t <= self.t_max * (1 + 1e-12)):
            raise ValueError("time outside the profiled range")
        if t == 0:
            return self.coeff[0].copy()
        n = np.arange(self.coeff.shape[0])
        weights = np.exp(n * math.log(t) - t - special.gammaln(n + 1))
        return weights @ self.coeff

    def hk(self, t):
        """p(t, x, target) for each target."""
        return self.prob(t) / self.mu_targets
