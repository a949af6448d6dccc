"""The constant speed random walk and its heat kernel.

The walk waits a mean-one exponential time at each vertex, then jumps to a
neighbor y of x with probability w(x, y) / mu(x).  Because the total jump
rate is one everywhere, the time-t law from x is an exact Poisson mixture of
powers of the embedded jump matrix P:

    P_x[X_t = .] = sum_{n >= 0} e^-t t^n / n! * P^n(x, .)

Truncating the series at a Poisson-tail cutoff gives the distribution with a
certified sup-norm error.  The heat kernel (density with respect to the
reversible measure mu) is p(t, x, y) = P_x[X_t = y] / mu(y).

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
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy import special

from .poisson import poisson_tail, poisson_weights


@dataclass
class JumpKernel:
    """Row-stochastic jump matrix of the embedded chain, with mu alongside."""

    geometry: object
    matrix: sp.csr_matrix
    mu: np.ndarray

    def __post_init__(self):
        self._transpose = None

    @property
    def transpose(self):
        if self._transpose is None:
            self._transpose = self.matrix.T.tocsr()
        return self._transpose


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
    method: str = "uniformization"


def _wrap_bound(geometry, t):
    return min(1.0, poisson_tail(t, geometry.L // 2))


def evolve(kernel, start, t, tol=1e-10):
    """Propagate a distribution vector by time t; returns (vector, tail)."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    if not (0 < tol < 1):
        raise ValueError("tolerance must be in (0, 1)")
    weights, tail = poisson_weights(t, tol)
    v = np.asarray(start, dtype=np.float64)
    acc = weights[0] * v
    pt = kernel.transpose
    for w in weights[1:]:
        v = pt @ v
        acc = acc + w * v
    return acc, tail


def heat_kernel(field, t, x, tol=1e-10, wrap_tol=None, kernel=None):
    """Heat kernel slice at time t from source x, by the Poisson jump series.

    ``tol`` bounds the series truncation error.  When ``wrap_tol`` is given,
    the torus wrap certificate must also meet it, otherwise the geometry is
    rejected; by default the certificate is only reported.
    """
    kern = kernel if kernel is not None else jump_kernel(field)
    geo = field.geometry
    wrap = _wrap_bound(geo, t)
    if wrap_tol is not None and wrap > wrap_tol:
        raise ValueError("torus too small for t")
    start = np.zeros(geo.n_vertices)
    start[geo.index(x)] = 1.0
    prob, tail = evolve(kern, start, t, tol)
    hk = prob / kern.mu
    return HeatKernelSlice(
        t=float(t),
        source=geo.wrap(x),
        prob=prob,
        hk=hk,
        trunc_error=tail,
        wrap_error=wrap,
        geometry=geo,
    )


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
    return HeatKernelSlice(
        t=float(t),
        source=geo.wrap(x),
        prob=prob,
        hk=prob / mu_vec,
        trunc_error=0.0,
        wrap_error=_wrap_bound(geo, t),
        geometry=geo,
        method="spectral",
    )


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


def transition_profile(field, x, targets, t_max, tol=1e-12, kernel=None):
    """Jump-chain hit profile enabling p(t, x, target) for every t <= t_max.

    Stores a_n = P^n(x, target) up to the Poisson cutoff for t_max, so the
    time dependence reduces to reweighting one short series per evaluation.
    """
    if t_max < 0:
        raise ValueError("time must be nonnegative")
    kern = kernel if kernel is not None else jump_kernel(field)
    geo = field.geometry
    target_idx = np.asarray([geo.index(p) for p in targets], dtype=np.int64)
    weights, _ = poisson_weights(max(t_max, 1e-9), tol)
    n_terms = len(weights)
    coeff = np.empty((n_terms, target_idx.size))
    v = np.zeros(geo.n_vertices)
    v[geo.index(x)] = 1.0
    coeff[0] = v[target_idx]
    pt = kern.transpose
    for n in range(1, n_terms):
        v = pt @ v
        coeff[n] = v[target_idx]
    return TransitionProfile(
        geometry=geo,
        source=geo.wrap(x),
        targets=[geo.wrap(p) for p in targets],
        coeff=coeff,
        mu_targets=kern.mu[target_idx],
        t_max=float(t_max),
        tol=tol,
    )


@dataclass
class TransitionProfile:
    geometry: object
    source: tuple
    targets: list
    coeff: np.ndarray
    mu_targets: np.ndarray
    t_max: float
    tol: float

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
