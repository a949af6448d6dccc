"""Concentration diagnostics for conductance fields.

Annealed power means of mu and nu, rectangle-sum moment ladders, the tail of
the stability radius, and hypothesis checks for the association and mixing
properties a sampler family claims.  All estimates use replicated-field Monte
Carlo: a fresh field per sample, so annealed quantities carry no
spatial-averaging bias.  There is one estimator of the annealed means,
:func:`annealed_power_mean`, which reads every power it is asked for from one
pass over the pilot replicas, and one pass over the main replicas serves a
whole rectangle ladder.  Heavy powers are accumulated in log magnitude to
dodge overflow.

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

import math
from dataclasses import dataclass

import numpy as np

from .envelopes import stability_radius
from .environment import ConductanceField, _incident_sum, _replica_chunks
from .fitting import SlopeFit, fit_theta, loglog_slope
from .lattice import HyperRectangle
from .seeding import replica_seeds

# spawn-key streams so pilot estimates never share randomness with main runs
_MAIN, _PILOT, _THRESH = 0, 1, 2


def annealed_power_mean(spec, geometry, powers, n_fields=128, seed=0):
    """Spatial-plus-replica averages E[mu(0)^p] and E[nu(0)^q] (unbiased by
    stationarity), for the exponents in ``powers``, e.g. {"mu": p, "nu": q}.

    One pass over the pilot replicas serves every requested quantity, and only
    those are computed.  Returns a dict keyed like ``powers``.
    """
    if n_fields < 2:
        raise ValueError("need at least two samples")
    if not set(powers) <= {"mu", "nu"}:
        raise ValueError("quantities must be 'mu' or 'nu'")
    totals = dict.fromkeys(powers, 0.0)
    for start, values in _replica_chunks(spec, geometry, seed, _PILOT, n_fields):
        means = {}
        for quantity, p in powers.items():
            vecs = _incident_sum(geometry, values if quantity == "mu" else 1.0 / values)
            with np.errstate(over="ignore"):
                # row by row: a 2-D axis mean adds in another order
                means[quantity] = [float(np.mean(row)) for row in vecs**p]
        # checked and summed replica by replica, quantity by quantity
        for k in range(len(values)):
            for quantity in powers:
                mean = means[quantity][k]
                if not math.isfinite(mean):
                    raise ValueError(f"non-finite {quantity} power mean at replica {start + k}")
                totals[quantity] += mean
    return {quantity: total / n_fields for quantity, total in totals.items()}


def _row_sums(matrix):
    """Each row's ``row.sum()``.  numpy's axis-1 reduction adds rows of fewer
    than 8 entries in the same order as the 1-D pairwise sum, but longer rows
    in another, so those are summed one row at a time."""
    if matrix.shape[1] < 8:
        return matrix.sum(axis=1)
    return np.array([row.sum() for row in matrix])


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    stderr: float
    n_samples: int


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
        vecs = _incident_sum(geometry, values if quantity == "mu" else 1.0 / values)
        with np.errstate(over="ignore"):
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


def n1_tail(spec, geometry, p, q, n_samples, n_grid, seed,
            mean_mu_p=None, mean_nu_q=None, max_window=None):
    """Empirical survival P(stability radius > n) over replica fields.

    Fields that never stabilize inside the window count as exceeding every
    grid point (conservative).
    """
    if max_window is None:
        max_window = geometry.L // 2
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
            n1 = stability_radius(fld, origin, p, q, mean_mu_p, mean_nu_q, max_window)
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


def _pilot_median(spec, geometry, seed, n_pilot=200):
    # the weight of the origin's +e_1 edge, flat edge 0, in every pilot field
    vals = np.concatenate([values[:, 0, 0] for _, values in
                           _replica_chunks(spec, geometry, seed, _THRESH, n_pilot)])
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
