"""Gaussian envelopes for the heat kernel, fitted from data and re-verified.

An envelope is a pair of explicit bounds around the heat kernel p(t, x, y):

    upper, near regime  (|x-y| <= t):
        amp_u * t^(-d/2) * exp(-rate_g * |x-y|^2 / t)
    upper, far regime   (|x-y| >= t):
        amp_u * t^(-d/2) * exp(-rate_l * |x-y| * max(1, log(|x-y|/t)))
    lower:
        amp_l * t^(-d/2) * exp(-rate_v * |x-y|^2 / t)

The regimes split at the constant REGIME_SPLIT = 1, and on the boundary the
upper envelope takes the larger branch.  Both bounds hold only past one
random constant N(x) per source, the source's stability radius: the upper
bound once sqrt(t) >= N(x), the lower bound once t >= N(x) * max(1, |x-y|).

The stability radius of a field at x is the smallest window size beyond
which the ball-averaged p-th power of mu (and q-th power of nu) stays below
twice its annealed mean at every larger radius.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


def stability_radius(field, x, p, q, mean_mu_p, mean_nu_q, max_window):
    """Minimal n so ball averages of mu^p and nu^q stay within twice their
    means for every radius in [n, max_window]; None when never stabilized.
    """
    if mean_mu_p is None or mean_nu_q is None:
        raise ValueError("annealed moment values are required")
    geo = field.geometry
    if max_window > geo.L / 2:
        raise ValueError("window exceeds half the torus side")
    if max_window < 1:
        raise ValueError("window must be at least 1")
    dist = geo.distance_field(x)
    order = np.argsort(dist, kind="stable")
    sorted_dist = dist[order]
    cum_mu = np.cumsum(field.mu_vector()[order] ** p)
    cum_nu = np.cumsum(field.nu_vector()[order] ** q)
    radii = np.arange(1, int(max_window) + 1)
    counts = np.searchsorted(sorted_dist, radii, side="left")
    mu_avgs = cum_mu[counts - 1] / counts
    nu_avgs = cum_nu[counts - 1] / counts
    ok = (mu_avgs <= 2 * mean_mu_p) & (nu_avgs <= 2 * mean_nu_q)
    good_from = None
    for i in range(len(radii) - 1, -1, -1):
        if not ok[i]:
            break
        good_from = int(radii[i])
    return good_from


def composite_threshold(n1, chain_scale, chain_scale_powered):
    """Validity threshold combining the stability radius at the origin with
    the two admissible chain scales; a missing (None) ingredient, meaning the
    quantity never stabilized, makes the threshold infinite."""
    parts = (n1, chain_scale, chain_scale_powered)
    return max(math.inf if p is None else float(p) for p in parts)


def resolve_threshold(table, x):
    """N(x) from a constant or a dict keyed by point; a missing point or a
    None entry (never stabilized) is infinite."""
    if isinstance(table, dict):
        value = table.get(tuple(x), math.inf)
    else:
        value = table
    return math.inf if value is None else float(value)


REGIME_SPLIT = 1.0  # |x-y| / t where the upper envelope changes regime


# The two validity gates, each stated once; N(x) = inf fails both.
def _lower_gate(t, n, dist):
    return t >= n * np.maximum(1.0, dist)


def _upper_gate(t, n):
    return math.sqrt(t) >= n


@dataclass
class GaussianEnvelope:
    """Fitted envelope constants plus the one validity threshold N(x) gating
    both bounds, a constant or a dict keyed by source."""

    d: int
    upper_amp: float
    upper_gauss_rate: float
    upper_linear_rate: float
    lower_amp: float
    lower_gauss_rate: float
    threshold: object

    def __post_init__(self):
        for name in ("upper_amp", "upper_gauss_rate", "upper_linear_rate",
                     "lower_amp", "lower_gauss_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def upper_profile(self, t, dist):
        """Upper formula value; regime chosen by dist vs REGIME_SPLIT * t.
        ``t`` and ``dist`` are numbers, or arrays taken entry by entry."""
        t, dist, scalar = _points(t, dist)
        if np.any(t <= 0):
            raise ValueError("time must be positive")
        pref = self.upper_amp * _powers(t, -self.d / 2.0)
        near = pref * _each(math.exp, -self.upper_gauss_rate * dist * dist / t)
        far = pref * _each(math.exp, -self.upper_linear_rate * dist
                           * np.maximum(1.0, _each(_safe_log, dist / t)))
        boundary = REGIME_SPLIT * t
        value = np.where(dist < boundary, near,
                         np.where(dist > boundary, far, np.maximum(near, far)))
        return float(value[0]) if scalar else value

    def lower_profile(self, t, dist):
        """Lower formula value, ignoring the validity threshold.  ``t`` and
        ``dist`` are numbers, or arrays taken entry by entry."""
        t, dist, scalar = _points(t, dist)
        if np.any(t <= 0):
            raise ValueError("time must be positive")
        value = self.lower_amp * _powers(t, -self.d / 2.0) * _each(
            math.exp, -self.lower_gauss_rate * dist * dist / t)
        return float(value[0]) if scalar else value

    def lower_active(self, t, x, dist):
        """Whether the lower bound is active at distance ``dist`` (a number or
        an array) from source x at time t."""
        return _lower_gate(t, resolve_threshold(self.threshold, x), dist)

    def upper_active(self, t, x):
        return _upper_gate(t, resolve_threshold(self.threshold, x))

    def to_dict(self):
        return {
            "d": self.d,
            "regime_split": REGIME_SPLIT,
            "upper_amp": self.upper_amp,
            "upper_gauss_rate": self.upper_gauss_rate,
            "upper_linear_rate": self.upper_linear_rate,
            "lower_amp": self.lower_amp,
            "lower_gauss_rate": self.lower_gauss_rate,
        }


def _safe_log(v):
    return math.log(v) if v > 0 else -math.inf


# Array passes use numpy only where its result is exactly the scalar code's:
# gathers, masks, comparisons and + - * / in the scalar order.  Powers, exp
# and log go through Python's float power and the math module, whose
# rounding numpy's vectorized versions need not share.


def _points(t, dist):
    """``t`` and ``dist`` as equal-length 1-D float arrays, and whether both
    were numbers."""
    scalar = np.ndim(t) == 0 and np.ndim(dist) == 0
    t, dist = np.broadcast_arrays(np.atleast_1d(np.asarray(t, dtype=float)),
                                  np.atleast_1d(np.asarray(dist, dtype=float)))
    return t, dist, scalar


def _each(fn, values):
    """``fn`` applied to every entry of a 1-D float array.  The results go
    straight into the array: a list of them, converted afterwards, left
    about 5 MB more memory resident over repeated verify runs in one
    process."""
    return np.fromiter(map(fn, values.tolist()), dtype=float, count=values.size)


def _powers(t, exponent):
    """``t ** exponent`` for every entry of a 1-D array of times, computed
    once per distinct time."""
    times, inverse = np.unique(t, return_inverse=True)
    return np.array([time ** exponent for time in times.tolist()], dtype=float)[inverse]


# ---------------------------------------------------------------------------
# fitting


_RATE_FLOOR = 1e-12


def fit_envelopes(slices, lower_threshold, window=2.0):
    """Fit the tightest envelope consistent with the supplied slices.

    Only points with |x-y| <= window * sqrt(t) enter the fit, and only where
    the slice resolves them (heat kernel above ten times the slice's
    ``hk_error``).  ``lower_threshold`` is the envelope's one ``threshold``
    N(x), a constant or a dict keyed by source; it gates both bounds, the
    lower one at t >= N(x) * max(1, |x-y|), the upper one at sqrt(t) >= N(x).
    The lower amplitude takes half the smallest on-diagonal value of p * t^(d/2);
    the lower rate takes the largest rate any off-diagonal point demands.
    The upper amplitude doubles the largest on-diagonal value and the upper
    rates take the smallest rates the data allows, with the regimes split at
    |x-y| = t and every rate floored at 1e-12.  The result is re-verified
    against every point used.
    """
    points = _collect_points(slices, lower_threshold, window)
    if not points["diag_lower"][0].size:
        raise ValueError("no valid on-diagonal points for the lower fit")
    if not points["diag_upper"][0].size:
        raise ValueError("no valid on-diagonal points for the upper fit")

    d = slices[0].geometry.d

    t, _, p = points["diag_lower"]
    lower_amp = 0.5 * min((p * _powers(t, d / 2.0)).tolist())
    t, dist, p = points["off_lower"]
    if np.any(p <= 0):
        raise ValueError("lower bound violated")
    candidates = (t / (dist * dist)) * _each(math.log, lower_amp * _powers(t, -d / 2.0) / p)
    lower_rate = max([_RATE_FLOOR, *candidates.tolist()])

    t, _, p = points["diag_upper"]
    upper_amp = 2.0 * max((p * _powers(t, d / 2.0)).tolist())

    t, dist, p = points["off_upper"]
    near = (dist <= REGIME_SPLIT * t) & (p > 0)
    t, dist, p = t[near], dist[near], p[near]
    candidates = (t / (dist * dist)) * _each(math.log, upper_amp * _powers(t, -d / 2.0) / p)
    if np.any(candidates <= 0):
        raise ValueError("upper fit failed: off-diagonal exceeds the diagonal cap")
    gauss_rate = min([math.inf, *candidates.tolist()])
    if not math.isfinite(gauss_rate):
        gauss_rate = 1.0  # no near-regime off-diagonal data; any rate is consistent

    far_rate = _upper_far_rate(points["off_upper"], upper_amp, d)
    if far_rate is None:
        far_rate = max(_RATE_FLOOR, gauss_rate * REGIME_SPLIT)
    elif far_rate <= 0:
        raise ValueError("upper fit failed: off-diagonal exceeds the diagonal cap")

    env = GaussianEnvelope(
        d=d,
        upper_amp=upper_amp,
        upper_gauss_rate=max(gauss_rate, _RATE_FLOOR),
        upper_linear_rate=max(far_rate, _RATE_FLOOR),
        lower_amp=lower_amp,
        lower_gauss_rate=max(lower_rate, _RATE_FLOOR),
        threshold=lower_threshold,
    )
    _recheck_fit(env, points)
    return env


def _upper_far_rate(off_points, upper_amp, d):
    t, dist, p = off_points
    far = (dist >= REGIME_SPLIT * t) & (p > 0)
    if not far.any():
        return None
    t, dist, p = t[far], dist[far], p[far]
    denom = dist * np.maximum(1.0, _each(_safe_log, dist / t))
    return min((_each(math.log, upper_amp * _powers(t, -d / 2.0) / p) / denom).tolist())


def _collect_points(slices, threshold, window):
    """The fit's four point sets, each a (t, |x-y|, p) triple of float
    arrays, in slice order and then in vertex order."""
    parts = {key: [] for key in ("diag_lower", "off_lower", "diag_upper", "off_upper")}
    for s in slices:
        floor = 10.0 * s.hk_error
        n = resolve_threshold(threshold, s.source)
        dist = s.geometry.distance_field(s.source)
        idx = np.flatnonzero(dist <= window * math.sqrt(s.t))
        u = dist[idx].astype(float)
        p = s.hk[idx]
        diag = u == 0
        resolved = p > floor
        lower = _lower_gate(s.t, n, u)
        upper = _upper_gate(s.t, n)
        for key, mask in (("diag_lower", lower & diag & resolved),
                          ("off_lower", lower & ~diag & (resolved | (p <= 0))),
                          ("diag_upper", upper & diag),
                          ("off_upper", upper & ~diag & resolved)):
            parts[key].append((np.full(np.count_nonzero(mask), s.t), u[mask], p[mask]))
    empty = (np.empty(0),) * 3  # so that no slices give empty sets
    return {key: tuple(map(np.concatenate, zip(empty, *triples)))
            for key, triples in parts.items()}


def _recheck_fit(env, points):
    slack = 1e-9
    for key in ("diag_lower", "off_lower"):
        t, dist, p = points[key]
        if np.any(p < env.lower_profile(t, dist) * (1 - slack)):
            raise ValueError("fit violates its own lower data")
    for key in ("diag_upper", "off_upper"):
        t, dist, p = points[key]
        if np.any(p > env.upper_profile(t, dist) * (1 + slack)):
            raise ValueError("fit violates its own upper data")


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class Violation:
    t: float
    x: tuple
    y: tuple
    dist: float
    value: float
    bound: float
    side: str
    margin: float  # relative margin by which the bound is missed


@dataclass
class BoundReport:
    violations: list
    checked: list  # (t, |x-y|, p) of every checked point, in check order
    n_lower_active: int
    n_upper_active: int

    @property
    def n_checked(self):
        return len(self.checked)

    def worst_margin(self):
        return max((v.margin for v in self.violations), default=0.0)

    def count_beyond(self, margin, side=None):
        return sum(1 for v in self.violations
                   if v.margin > margin and (side is None or v.side == side))


def verify_bounds(env, grid):
    """Check computed heat kernel values against an envelope on a grid of
    (slice, targets) entries, ``targets`` an array of flat vertex indices.

    Entries with the same slice time and source form one group, checked in
    grid order; groups are checked in (t, x) order.  Returns a report listing
    every point falling outside the active bounds by more than the slice's
    ``hk_error``.  An empty violation list means the envelope is verified on
    this grid.
    """
    groups = {}
    for s, targets in grid:
        groups.setdefault((s.t, s.source), (s, []))[1].append(
            np.asarray(targets, dtype=np.int64))
    violations = []
    checked = []
    n_lower = 0
    n_upper = 0
    for (t, x), (s, parts) in sorted(groups.items()):
        geo = s.geometry
        slack = s.hk_error + 1e-15
        ys = np.concatenate(parts)
        dist = geo.distance_field(x)[ys]
        u = dist.astype(float)
        p = s.hk[ys]
        checked.extend(zip(itertools.repeat(t), dist.tolist(), p.tolist()))
        upper = np.full(ys.size, math.nan)
        lower = np.full(ys.size, math.nan)
        upper_bad = np.zeros(ys.size, dtype=bool)
        lower_bad = np.zeros(ys.size, dtype=bool)
        if env.upper_active(t, x):
            n_upper += ys.size
            upper = env.upper_profile(t, u)
            upper_bad = p > upper + slack
        active = np.flatnonzero(env.lower_active(t, x, u))
        n_lower += active.size
        lower[active] = env.lower_profile(t, u[active])
        lower_bad[active] = p[active] < lower[active] - slack
        # at most an upper then a lower violation per point, in grid order
        for k in np.flatnonzero(upper_bad | lower_bad).tolist():
            y, uk, pk = geo.coords(int(ys[k])), int(dist[k]), float(p[k])
            if upper_bad[k]:
                bound = float(upper[k])
                violations.append(Violation(t, x, y, uk, pk, bound, "upper",
                                            (pk - bound) / bound if bound > 0 else math.inf))
            if lower_bad[k]:
                bound = float(lower[k])
                violations.append(Violation(t, x, y, uk, pk, bound, "lower",
                                            (bound - pk) / bound))
    return BoundReport(violations, checked, n_lower, n_upper)
