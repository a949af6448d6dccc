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

import math
from dataclasses import dataclass

import numpy as np

from .kernel import heat_slices, jump_kernel


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
    return t >= n * max(1.0, dist)


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
        """Upper formula value; regime chosen by dist vs REGIME_SPLIT * t."""
        if t <= 0:
            raise ValueError("time must be positive")
        pref = self.upper_amp * t ** (-self.d / 2.0)
        near = pref * math.exp(-self.upper_gauss_rate * dist * dist / t)
        far = pref * math.exp(-self.upper_linear_rate * dist * max(1.0, _safe_log(dist / t)))
        boundary = REGIME_SPLIT * t
        if dist < boundary:
            return near
        if dist > boundary:
            return far
        return max(near, far)

    def lower_profile(self, t, dist):
        """Lower formula value, ignoring the validity threshold."""
        if t <= 0:
            raise ValueError("time must be positive")
        return self.lower_amp * t ** (-self.d / 2.0) * math.exp(
            -self.lower_gauss_rate * dist * dist / t
        )

    def lower_active(self, t, x, dist):
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


# ---------------------------------------------------------------------------
# fitting


_RATE_FLOOR = 1e-12


def fit_envelopes(slices, lower_threshold, window=2.0):
    """Fit the tightest envelope consistent with the supplied slices.

    Only points with |x-y| <= window * sqrt(t) enter the fit, and only where
    the slice resolves them (heat kernel above ten times the truncation
    bound).  ``lower_threshold`` is the envelope's one ``threshold`` N(x), a
    constant or a dict keyed by source; it gates both bounds, the lower one
    at t >= N(x) * max(1, |x-y|), the upper one at sqrt(t) >= N(x).  The
    lower amplitude takes half the smallest on-diagonal value of p * t^(d/2);
    the lower rate takes the largest rate any off-diagonal point demands.
    The upper amplitude doubles the largest on-diagonal value and the upper
    rates take the smallest rates the data allows, with the regimes split at
    |x-y| = t and every rate floored at 1e-12.  The result is re-verified
    against every point used.
    """
    points = _collect_points(slices, lower_threshold, window)
    if not points["diag_lower"]:
        raise ValueError("no valid on-diagonal points for the lower fit")
    if not points["diag_upper"]:
        raise ValueError("no valid on-diagonal points for the upper fit")

    d = slices[0].geometry.d

    lower_amp = 0.5 * min(p * t ** (d / 2.0) for t, p in points["diag_lower"])
    lower_rate = _RATE_FLOOR
    for t, dist, p in points["off_lower"]:
        if p <= 0:
            raise ValueError("lower bound violated")
        candidate = (t / (dist * dist)) * math.log(lower_amp * t ** (-d / 2.0) / p)
        lower_rate = max(lower_rate, candidate)

    upper_amp = 2.0 * max(p * t ** (d / 2.0) for t, p in points["diag_upper"])

    gauss_rate = math.inf
    for t, dist, p in points["off_upper"]:
        if dist > REGIME_SPLIT * t or p <= 0:
            continue
        candidate = (t / (dist * dist)) * math.log(upper_amp * t ** (-d / 2.0) / p)
        if candidate <= 0:
            raise ValueError("upper fit failed: off-diagonal exceeds the diagonal cap")
        gauss_rate = min(gauss_rate, candidate)
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
    rate = None
    for t, dist, p in off_points:
        if dist < REGIME_SPLIT * t or p <= 0:
            continue
        denom = dist * max(1.0, _safe_log(dist / t))
        candidate = math.log(upper_amp * t ** (-d / 2.0) / p) / denom
        rate = candidate if rate is None else min(rate, candidate)
    return rate


def _collect_points(slices, threshold, window):
    diag_lower, off_lower, diag_upper, off_upper = [], [], [], []
    for s in slices:
        geo = s.geometry
        floor = 10.0 * s.trunc_error
        n = resolve_threshold(threshold, s.source)
        dist = geo.distance_field(s.source)
        within = dist <= window * math.sqrt(s.t)
        upper_ok = _upper_gate(s.t, n)
        for idx in np.flatnonzero(within):
            u = float(dist[idx])
            p = float(s.hk[idx])
            if _lower_gate(s.t, n, u):
                if u == 0:
                    if p > floor:
                        diag_lower.append((s.t, p))
                elif p > floor or p <= 0:
                    off_lower.append((s.t, u, p))
            if upper_ok:
                if u == 0:
                    diag_upper.append((s.t, p))
                elif p > floor:
                    off_upper.append((s.t, u, p))
    return {
        "diag_lower": diag_lower,
        "off_lower": off_lower,
        "diag_upper": diag_upper,
        "off_upper": off_upper,
    }


def _recheck_fit(env, points):
    slack = 1e-9
    for t, p in points["diag_lower"]:
        if p < env.lower_profile(t, 0.0) * (1 - slack):
            raise ValueError("fit violates its own lower data")
    for t, u, p in points["off_lower"]:
        if p < env.lower_profile(t, u) * (1 - slack):
            raise ValueError("fit violates its own lower data")
    for t, p in points["diag_upper"]:
        if p > env.upper_profile(t, 0.0) * (1 + slack):
            raise ValueError("fit violates its own upper data")
    for t, u, p in points["off_upper"]:
        if p > env.upper_profile(t, u) * (1 + slack):
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


def verify_bounds(field, env, grid, tol=1e-10, kernel=None):
    """Check computed heat kernel values against an envelope on a (t, x, y) grid.

    Returns a report listing every point falling outside the active bounds by
    more than the slice's certified error.  An empty violation list means the
    envelope is verified on this grid.
    """
    kern = kernel if kernel is not None else jump_kernel(field)
    geo = field.geometry
    groups = {}
    for t, x, y in grid:
        groups.setdefault((float(t), geo.wrap(x)), []).append(geo.wrap(y))
    mu_min = float(kern.mu.min())

    slices = heat_slices(kern, sorted(groups), tol)
    violations = []
    checked = []
    n_lower = 0
    n_upper = 0
    for (t, x), ys in sorted(groups.items()):
        s = slices[t, x]
        slack = s.trunc_error / mu_min + 1e-15
        for y in ys:
            u = geo.torus_distance(x, y)
            p = float(s.hk[geo.index(y)])
            checked.append((t, u, p))
            if env.upper_active(t, x):
                n_upper += 1
                upper = env.upper_profile(t, u)
                if p > upper + slack:
                    violations.append(Violation(t, x, y, u, p, upper, "upper",
                                                (p - upper) / upper if upper > 0 else math.inf))
            if env.lower_active(t, x, u):
                n_lower += 1
                lower = env.lower_profile(t, u)
                if p < lower - slack:
                    violations.append(Violation(t, x, y, u, p, lower, "lower",
                                                (lower - p) / lower))
    return BoundReport(violations, checked, n_lower, n_upper)
