"""Concentration diagnostics for conductance fields.

Annealed power means of mu and nu, rectangle-sum moment ladders, the tail of
the stability radius, and hypothesis checks for the association and mixing
properties a sampler family claims.  There is one estimator of the annealed
means, :func:`annealed_power_mean`.  It is exact where the family admits a
closed form: the constant field at any exponent; at nonnegative integer
exponents the iid families (a multinomial sum over the raw moments of one
weight) and gaussian-fkg (a sum of lognormal means over tuples of incident
edges); and at exponent one, by linearity, finite-range's E mu (2d times the
link's mean over the moving-average window) and na-permutation's E mu and
E nu (2d times the mean of the block's levels or of their reciprocals).
Every other mean comes from replicated-field Monte Carlo, one pass over the
pilot replicas for every power left; that pass is also the closed forms'
test oracle.  The ladders, the tail and the association and mixing
checks are Monte Carlo throughout: a fresh field per sample, so annealed
quantities carry no spatial-averaging bias, and one pass over the main
replicas serves a whole rectangle ladder.  Heavy powers are accumulated in
log magnitude to dodge overflow.

Replicas come as stacked chunks from the environment's one sampler, each
replica on its own unchanged stream, at most a fixed number of bytes per
chunk.  The mu or nu of a whole chunk comes from one stencil call, and power
means, rectangle sums and edge functions are evaluated on a whole chunk at
once; each replica's means and sums are still reduced one row at a time, in
a lone field's order.  Every estimate is the same, bit for bit, at any chunk
size, and errors name the first failing replica, as a field-by-field loop
would.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .envelopes import stability_radius
from .environment import (ConductanceField, _finite_range_window, _gaussian_spectrum,
                          _incident_sum, _permutation_levels, _replica_chunks)
from .fitting import SlopeFit, fit_theta, loglog_slope
from .lattice import HyperRectangle
from .seeding import replica_seeds

# spawn-key streams so pilot estimates never share randomness with main runs
_MAIN, _PILOT, _THRESH = 0, 1, 2


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    stderr: float
    n_samples: int


def annealed_power_mean(spec, geometry, powers, n_fields=128, seed=0):
    """Annealed means E[mu(0)^p] and E[nu(0)^q] for the exponents in
    ``powers``, e.g. {"mu": p, "nu": q}; returns a dict keyed like ``powers``.

    A mean is exact where the family has a closed form
    (:func:`_exact_power_mean`); the rest come from one Monte Carlo pass over
    ``n_fields`` pilot replicas, which serves all of them.  An infinite mean,
    or one beyond float range, raises ValueError naming it.
    """
    if n_fields < 2:
        raise ValueError("need at least two samples")
    if not set(powers) <= {"mu", "nu"}:
        raise ValueError("quantities must be 'mu' or 'nu'")
    means = {quantity: _exact_power_mean(spec, geometry, quantity, p)
             for quantity, p in powers.items()}
    rest = {quantity: powers[quantity] for quantity, mean in means.items() if mean is None}
    if rest:
        estimates = _monte_carlo_power_mean(spec, geometry, rest, n_fields, seed)
        means.update((quantity, est.value) for quantity, est in estimates.items())
    return means


# a closed form that would add more terms than this is left to Monte Carlo
_MAX_TERMS = 100_000


def _exact_power_mean(spec, geometry, quantity, p):
    """E[mu(0)^p] (quantity "mu") or E[nu(0)^p] in closed form, or None where
    the family has none: finite-range except for E mu(0), na-permutation
    except for E mu(0) and E nu(0), exponents that are not nonnegative
    integers outside the constant family, and exponents so large that the sum
    would exceed ``_MAX_TERMS`` terms.

    iid heavy-tail-zero weights have E w^-q infinite for q >= delta, and so
    E nu^q; that raises ValueError, as does a mean beyond float range, and so
    does a geometry the family's sampler refuses.
    """
    params, kind, n = spec.resolved, spec.kind, 2 * geometry.d
    marginal = params["marginal"] if kind == "iid" else None
    if marginal == "heavy-tail-zero" and quantity == "nu" and p >= params["delta"]:
        raise ValueError(f"E nu(0)^{p:g} is infinite: heavy-tail-zero weights have "
                         f"E w^-q = inf for q >= delta = {params['delta']:g}")
    k = int(p) if float(p).is_integer() and p >= 0 else None
    if kind == "constant":
        terms = 1
    elif kind in ("finite-range", "na-permutation"):
        # by linearity E mu(0) = 2d E w and E nu(0) = 2d E 1/w; finite-range's
        # E 1/w has no closed form
        if k != 1 or (kind, quantity) == ("finite-range", "nu"):
            return None
        terms = 1
    elif k is None:
        return None
    elif kind == "gaussian-fkg":
        terms = math.comb(k + n - 1, k)  # multisets of k incident edges
    else:
        terms = (n - 1) * (k + 1) * (k + 2) // 2  # products in the convolutions
    if terms > _MAX_TERMS:
        return None
    try:
        if kind == "constant":
            level = params["level"]
            mean = (n * level if quantity == "mu" else n / level) ** p
        elif kind == "gaussian-fkg":
            mean = _gaussian_sum_moment(params, geometry, k)
        elif kind == "finite-range":
            mean = n * _finite_range_weight_mean(params, geometry)
        elif kind == "na-permutation":
            levels = _permutation_levels(params, geometry)
            mean = n * float(np.mean(levels if quantity == "mu" else 1.0 / levels))
        else:
            sign = 1 if quantity == "mu" else -1
            mean = _iid_sum_moment([_raw_moment(params, marginal, sign * j)
                                    for j in range(k + 1)], n)
    except OverflowError:
        mean = math.inf
    if not math.isfinite(mean):
        raise ValueError(f"E {quantity}(0)^{p:g} is beyond float range")
    return float(mean)


def _finite_range_weight_mean(params, geometry):
    """E w of one finite-range edge: the link's mean at one vertex, whose
    smoothed input averages m iid uniforms over the l1 window.  The affine
    link's is (low + high) / 2.  For the exp link each uniform contributes
    E exp((scale / m)(U - 1/2)) = sinh(h) / h, h = scale / (2m)."""
    m = len(_finite_range_window(params, geometry))
    if params["link"] == "affine":
        return (params["low"] + params["high"]) / 2.0
    h = params["scale"] / (2 * m)
    return (math.sinh(h) / h if h else 1.0) ** m  # h underflows to 0 for scale near 0


def _raw_moment(params, marginal, k):
    """E w^k of one edge weight of an iid family (``marginal`` None for
    uniform-elliptic-iid), for an integer k; heavy-tail-zero needs k > -delta."""
    if marginal == "lognormal":
        return math.exp(k * k * params["sigma"] ** 2 / 2.0)
    if marginal == "heavy-tail-zero":
        delta = params["delta"]
        return delta / (delta + k)
    a, b = params["low"], params["high"]
    if a == b:
        return a**k
    if k == -1:
        return math.log(b / a) / (b - a)
    return (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))


def _iid_sum_moment(raw, n):
    """E (w_1 + ... + w_n)^k, k = len(raw) - 1, for n iid weights with raw
    moments raw[j] = E w^j: n - 1 binomial convolutions."""
    moments = raw
    for _ in range(n - 1):
        moments = [sum(math.comb(j, i) * moments[i] * raw[j - i] for i in range(j + 1))
                   for j in range(len(raw))]
    return moments[-1]


def _gaussian_sum_moment(params, geometry, k):
    """E mu(0)^k for gaussian-fkg, which is also E nu(0)^k.

    mu(0) = sum over the 2d edges e at the origin of exp(scale * S_e), with
    S_e = phi(0) + phi(end of e), so E mu^k sums exp(scale^2 Var(S) / 2) over
    k-tuples of edges, S the tuple's sum of S_e.  A tuple and its sign flip
    (nu) share Var(S), and tuples are counted as multisets with their
    multinomial weight.  phi's covariance at offset r is the inverse FFT of
    the sampler's own spectrum."""
    d, L = geometry.d, geometry.L
    cov = np.fft.ifftn(_gaussian_spectrum(params, geometry)).real
    # the origin, then its neighbours +e_1, -e_1, ..., +e_d, -e_d
    sites = np.zeros((2 * d + 1, d), dtype=np.int64)
    for a in range(d):
        sites[1 + 2 * a, a], sites[2 + 2 * a, a] = 1, -1
    offsets = (sites[:, None, :] - sites[None, :, :]) % L
    site_cov = cov[tuple(np.moveaxis(offsets, -1, 0))]
    multisets = list(itertools.combinations_with_replacement(range(2 * d), k))
    edges = np.array(multisets, dtype=np.int64).reshape(len(multisets), k)
    counts = (edges[:, :, None] == np.arange(2 * d)).sum(axis=1)
    # every factor's S_e holds phi(0) once
    coef = np.column_stack([np.full(len(counts), k), counts]).astype(np.float64)
    var = np.einsum("ij,jl,il->i", coef, site_cov, coef)
    log_factorial = np.array([math.lgamma(c + 1) for c in range(k + 1)])
    log_weight = log_factorial[k] - log_factorial[counts].sum(axis=1)
    scale = params["scale"]
    with np.errstate(over="ignore"):
        return float(np.exp(log_weight + 0.5 * scale * scale * var).sum())


def _monte_carlo_power_mean(spec, geometry, powers, n_fields, seed):
    """The annealed means by Monte Carlo over ``n_fields`` pilot replicas, one
    :class:`MomentEstimate` per quantity in ``powers``: each replica's spatial
    mean of mu^p (or nu^q), unbiased by stationarity, averaged over replicas.

    One pass over the replicas serves every quantity, and a non-finite
    replica mean raises ValueError naming the first such replica.
    """
    replica_means = {quantity: [] for quantity in powers}
    for start, values in _replica_chunks(spec, geometry, seed, _PILOT, n_fields):
        means = {}
        for quantity, p in powers.items():
            # an overflow is reported by the finiteness check below
            with np.errstate(over="ignore"):
                vecs = _incident_sum(geometry, values if quantity == "mu" else 1.0 / values)
                # row by row: a 2-D axis mean adds in another order
                means[quantity] = [float(np.mean(row)) for row in vecs**p]
        # checked replica by replica, quantity by quantity
        for k in range(len(values)):
            for quantity in powers:
                mean = means[quantity][k]
                if not math.isfinite(mean):
                    raise ValueError(f"non-finite {quantity} power mean at replica {start + k}")
                replica_means[quantity].append(mean)
    estimates = {}
    for quantity, means in replica_means.items():
        total = 0.0
        for mean in means:  # in replica order
            total += mean
        with np.errstate(over="ignore"):
            stderr = float(np.std(means, ddof=1)) / math.sqrt(n_fields)
        estimates[quantity] = MomentEstimate(total / n_fields, stderr, n_fields)
    return estimates


def _row_sums(matrix):
    """Each row's ``row.sum()``.  numpy's axis-1 reduction adds rows of fewer
    than 8 entries in the same order as the 1-D pairwise sum, but longer rows
    in another, so those are summed one row at a time."""
    if matrix.shape[1] < 8:
        return matrix.sum(axis=1)
    return np.array([row.sum() for row in matrix])


def _log_mean(logs):
    """Mean of exp(logs), computed stably; logs may contain -inf.  A mean
    beyond float range is inf."""
    logs = np.asarray(logs)
    finite = logs[np.isfinite(logs)]
    if finite.size == 0:
        return 0.0
    m = finite.max()
    try:
        return math.exp(m + math.log(np.exp(finite - m).sum() / logs.size))
    except OverflowError:
        return math.inf


def rectangle_sum_moment(spec, geometry, quantity, p, eta, rects, n_samples, seed,
                         mean_value=None, mean_samples=128):
    """Monte Carlo estimates of E | sum over a rectangle of the centered
    p-th power of mu (or nu) | ^ eta, over independent fields: one
    :class:`MomentEstimate` per rectangle in ``rects``, all from one pass."""
    if n_samples < 2:
        raise ValueError("need at least two samples")
    for rect in rects:
        if rect.length + 1 > geometry.L or 2 * rect.half_width + 1 > geometry.L:
            raise ValueError("geometry too small to contain the rectangle")
    dims = (geometry.L,) * geometry.d
    indices = [np.ravel_multi_index(tuple((rect.vertex_array() % geometry.L).T), dims)
               for rect in rects]
    if mean_value is None:
        mean_value = annealed_power_mean(spec, geometry, {quantity: p},
                                         n_fields=mean_samples, seed=seed)[quantity]
    logs = np.empty((len(rects), n_samples))
    for start, values in _replica_chunks(spec, geometry, seed, _MAIN, n_samples):
        # an overflow is reported by the finiteness check below
        with np.errstate(over="ignore"):
            vecs = _incident_sum(geometry, values if quantity == "mu" else 1.0 / values)
            powered = [vecs[:, idx] ** p for idx in indices]
        finite = np.logical_and.reduce([np.isfinite(block).all(axis=1) for block in powered])
        if not finite.all():
            raise ValueError(f"overflow at sample {start + int(np.argmin(finite))}; "
                             "use a smaller exponent")
        for j, (idx, block) in enumerate(zip(indices, powered)):
            for k, row_sum in enumerate(_row_sums(block).tolist(), start):
                total = row_sum - idx.size * mean_value
                logs[j, k] = eta * math.log(abs(total)) if total != 0.0 else -math.inf
    estimates = []
    for row in logs:
        value = _log_mean(row)
        second = _log_mean(2.0 * row)
        if not (math.isfinite(value) and math.isfinite(second)):
            raise ValueError("overflow in moment accumulation; use a smaller exponent")
        variance = max(0.0, second - value * value)
        estimates.append(MomentEstimate(value, math.sqrt(variance / n_samples), n_samples))
    return estimates


@dataclass
class MomentBoundReport:
    quantity: str
    p: float
    eta: float
    sizes: list
    estimates: list
    stderrs: list
    theta: SlopeFit

    @property
    def implied_zeta(self):
        return self.eta - self.theta.slope


def default_rectangles(sizes_spec, d=2):
    """HyperRectangles for a ladder given (length, half_width) pairs."""
    return [HyperRectangle((0,) * d, 1, int(length), int(half_width))
            for length, half_width in sizes_spec]


def rectangle_ladder(spec, geometry, quantity, p, eta, rects, n_samples, seed,
                     mean_samples=128):
    """Moment estimates across a ladder of rectangle sizes, with a fitted
    growth exponent."""
    ests = rectangle_sum_moment(spec, geometry, quantity, p, eta, rects, n_samples, seed,
                                mean_samples=mean_samples)
    sizes = [rect.n_vertices for rect in rects]
    estimates = [est.value for est in ests]
    stderrs = [est.stderr for est in ests]
    theta = fit_theta(sizes, estimates, stderrs, seed=seed)
    return MomentBoundReport(quantity, p, eta, sizes, estimates, stderrs, theta)


@dataclass
class TailReport:
    grid: list
    survival: list
    stderr: list
    n_samples: int
    values: list


def n1_tail(spec, geometry, p, q, n_samples, n_grid, seed, mean_mu_p=None, mean_nu_q=None):
    """Empirical survival P(stability radius > n) over replica fields.

    Fields that never stabilize inside the window, up to L // 2, count as
    exceeding every grid point (conservative).
    """
    wanted = {}
    if mean_mu_p is None:
        wanted["mu"] = p
    if mean_nu_q is None:
        wanted["nu"] = q
    if wanted:
        means = annealed_power_mean(spec, geometry, wanted, seed=seed)
        mean_mu_p = means.get("mu", mean_mu_p)
        mean_nu_q = means.get("nu", mean_nu_q)
    origin = (0,) * geometry.d
    labels = replica_seeds(seed, _MAIN, n_samples)
    values = []
    for start, chunk in _replica_chunks(spec, geometry, seed, _MAIN, n_samples):
        for i, weights in enumerate(chunk, start):
            fld = ConductanceField(geometry, weights, spec, int(labels[i]))
            n1 = stability_radius(fld, origin, p, q, mean_mu_p, mean_nu_q, geometry.L // 2)
            values.append(math.inf if n1 is None else n1)
    grid = [int(n) for n in n_grid]
    survival, stderr = [], []
    arr = np.asarray(values)
    for n in grid:
        frac = float(np.mean(arr > n))
        survival.append(frac)
        stderr.append(math.sqrt(frac * (1 - frac) / n_samples))
    return TailReport(grid, survival, stderr, n_samples, values)


# ---------------------------------------------------------------------------
# association and mixing checks


@dataclass(frozen=True)
class EdgeFunction:
    """A coordinate-wise nondecreasing function of finitely many edges."""

    name: str
    edge_ids: tuple  # flat ids vertex_index * d + (axis - 1)
    kind: str  # sum | min | max | threshold-count

    def __call__(self, flat_values, threshold):
        """The function on every row of an (m, n_edges) matrix of fields'
        flat edge weights, as a float array of length m."""
        vals = flat_values[:, list(self.edge_ids)]
        if self.kind == "sum":
            return _row_sums(vals)
        if self.kind == "min":
            return vals.min(axis=1)
        if self.kind == "max":
            return vals.max(axis=1)
        if self.kind == "threshold-count":
            return (vals > threshold).sum(axis=1).astype(np.float64)
        raise ValueError(self.kind)


@dataclass(frozen=True)
class PairResult:
    name: str
    cov: float
    stderr: float
    expectation: str  # 'nonnegative' | 'nonpositive'
    passed: bool


def _edges_at(geometry, vertex):
    base = geometry.index(vertex) * geometry.d
    return tuple(base + a for a in range(geometry.d))


def _edge(geometry, vertex, axis):
    return geometry.index(vertex) * geometry.d + (axis - 1)


def builtin_test_pairs(geometry):
    """Nondecreasing function pairs: overlapping sets for association tests,
    disjoint sets for negative-association tests."""
    d = geometry.d
    origin = (0,) * d
    near = (1,) + (0,) * (d - 1)
    far = (geometry.L // 2,) + (0,) * (d - 1)
    fkg = [
        ("variance", EdgeFunction("w(0,e1)", (_edge(geometry, origin, 1),), "sum"),
         EdgeFunction("w(0,e1)", (_edge(geometry, origin, 1),), "sum")),
        ("adjacent-edges", EdgeFunction("w(0,e1)", (_edge(geometry, origin, 1),), "sum"),
         EdgeFunction("w(e1,2e1)", (_edge(geometry, near, 1),), "sum")),
        ("sums-nearby", EdgeFunction("sum at 0", _edges_at(geometry, origin), "sum"),
         EdgeFunction("sum at e1", _edges_at(geometry, near), "sum")),
        ("min-max-overlap", EdgeFunction("min at 0", _edges_at(geometry, origin), "min"),
         EdgeFunction("max at 0", _edges_at(geometry, origin), "max")),
        ("threshold-vs-sum", EdgeFunction("count at 0", _edges_at(geometry, origin), "threshold-count"),
         EdgeFunction("sum at e1", _edges_at(geometry, near), "sum")),
    ]
    na = [
        ("disjoint-axes", EdgeFunction("w(0,e1)", (_edge(geometry, origin, 1),), "sum"),
         EdgeFunction("w(0,e2)", (_edge(geometry, origin, 2),), "sum")),
        ("disjoint-sums-near", EdgeFunction("sum at 0", _edges_at(geometry, origin), "sum"),
         EdgeFunction("sum at e1", _edges_at(geometry, near), "sum")),
        ("disjoint-sums-far", EdgeFunction("sum at 0", _edges_at(geometry, origin), "sum"),
         EdgeFunction("sum far", _edges_at(geometry, far), "sum")),
        ("disjoint-max", EdgeFunction("max at 0", _edges_at(geometry, origin), "max"),
         EdgeFunction("max at e1", _edges_at(geometry, near), "max")),
        ("disjoint-threshold", EdgeFunction("count at 0", _edges_at(geometry, origin), "threshold-count"),
         EdgeFunction("count far", _edges_at(geometry, far), "threshold-count")),
    ]
    return {"fkg": fkg, "na": na}


def association_check(spec, geometry, n_samples=10_000, seed=0):
    """Covariance estimates for nondecreasing function pairs, with a verdict
    against the assumption the sampler family is certified for.

    Positively associated families must show cov >= -3 stderr on every
    (possibly overlapping) pair; negatively associated families must show
    cov <= +3 stderr on every disjoint pair.
    """
    pairs = builtin_test_pairs(geometry)
    certified = spec.certified_assumptions
    jobs = []
    if "positive-association" in certified:
        jobs += [("fkg", name, f, g) for name, f, g in pairs["fkg"]]
    if "negative-association" in certified:
        jobs += [("na", name, f, g) for name, f, g in pairs["na"]]
    if not jobs:
        return []

    threshold = _pilot_median(spec, geometry, seed)
    f_vals = np.empty((len(jobs), n_samples))
    g_vals = np.empty((len(jobs), n_samples))
    for start, values in _replica_chunks(spec, geometry, seed, _MAIN, n_samples):
        flat = values.reshape(len(values), -1)
        rows = slice(start, start + len(values))
        for j, (_, _, f, g) in enumerate(jobs):
            f_vals[j, rows] = f(flat, threshold)
            g_vals[j, rows] = g(flat, threshold)

    results = []
    for j, (side, name, _, _) in enumerate(jobs):
        cov, stderr = _cov_stderr(f_vals[j], g_vals[j])
        if side == "fkg":
            passed = cov >= -3 * stderr
            expectation = "nonnegative"
        else:
            passed = cov <= 3 * stderr
            expectation = "nonpositive"
        results.append(PairResult(f"{side}:{name}", cov, stderr, expectation, passed))
    return results


def _cov_stderr(f_vals, g_vals):
    """Unbiased sample covariance and the standard error of its mean product."""
    n = len(f_vals)
    prods = (f_vals - f_vals.mean()) * (g_vals - g_vals.mean())
    return float(prods.mean()) * n / (n - 1), float(prods.std(ddof=1) / math.sqrt(n))


def _pilot_median(spec, geometry, seed):
    # the weight of the origin's +e_1 edge, flat edge 0, in each of 200 pilot fields
    vals = np.concatenate([values[:, 0, 0] for _, values in
                           _replica_chunks(spec, geometry, seed, _THRESH, 200)])
    return float(np.median(vals))


@dataclass
class MixingReport:
    distances: list
    cov: list
    stderr: list
    slope: object  # SlopeFit on positive covariances, or None


def mixing_decay(spec, geometry, distance_grid, n_samples, seed):
    """Covariance of the sum of the origin's edges with its translate,
    against translation distance, plus a log-log decay slope when measurable.
    """
    d = geometry.d
    origin = (0,) * d
    base = EdgeFunction("origin", _edges_at(geometry, origin), "sum")
    shifted = []
    for dist in distance_grid:
        vertex = (int(dist),) + (0,) * (d - 1)
        shifted.append(EdgeFunction(f"shift {dist}", _edges_at(geometry, vertex), "sum"))

    base_vals = np.empty(n_samples)
    shift_vals = np.empty((len(shifted), n_samples))
    for start, values in _replica_chunks(spec, geometry, seed, _MAIN, n_samples):
        flat = values.reshape(len(values), -1)
        rows = slice(start, start + len(values))
        base_vals[rows] = base(flat, None)  # "sum" functions read no threshold
        for j, fn in enumerate(shifted):
            shift_vals[j, rows] = fn(flat, None)

    stats = [_cov_stderr(base_vals, vals) for vals in shift_vals]
    covs = [cov for cov, _ in stats]
    errs = [err for _, err in stats]

    positive = [(x, c) for x, c in zip(distance_grid, covs) if c > 0]
    slope = None
    if len(positive) >= 2:
        xs, cs = zip(*positive)
        slope = loglog_slope(xs, cs, n_boot=200, seed=seed)
    return MixingReport(list(distance_grid), covs, errs, slope)
