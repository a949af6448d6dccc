"""Power-law slope fits on log-log axes with parametric bootstrap intervals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import rng_for


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    ci_low: float
    ci_high: float
    intercept: float


def loglog_slope(xs, ys, stderrs=None, n_boot=1000, seed=0):
    """Least-squares slope of log y against log x.

    The confidence interval resamples each y from a normal with its reported
    standard error (parametric bootstrap).  The point fit is ``np.polyfit``;
    the bootstrap slopes are the closed form sum (x - mean x) log y /
    sum (x - mean x)^2 over all draws at once, which agrees with a per-draw
    polyfit to rounding.  The interval is widened, where that rounding
    puts it beside the point slope, to contain it; exact inputs give an
    interval of zero width up to that rounding.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("need matching x and y with at least two points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)

    if stderrs is None:
        stderrs = np.zeros_like(ys)
    stderrs = np.asarray(stderrs, dtype=float)
    rng = rng_for(seed, 77)
    # all draws at once, in the order a draw-by-draw loop would take them
    perturbed = ys + stderrs * rng.standard_normal((n_boot, ys.size))
    perturbed = np.maximum(perturbed, 1e-12 * ys)
    # each draw's least-squares slope in closed form, on centred log x
    xc = lx - lx.mean()
    slopes = np.log(perturbed) @ xc / (xc @ xc)
    lo, hi = np.percentile(slopes, [2.5, 97.5])
    # the two slope formulas round differently, by up to a few ulps
    return SlopeFit(float(slope), float(min(lo, slope)), float(max(hi, slope)), float(intercept))


def fit_theta(sizes, estimates, stderrs=None, seed=0):
    """Growth exponent of rectangle-sum moments against rectangle size.

    Requires at least four sizes spanning a decade and positive estimates.
    """
    sizes = np.asarray(sizes, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    if sizes.size < 4:
        raise ValueError("need at least four ladder sizes")
    if sizes.max() / sizes.min() < 10:
        raise ValueError("ladder must span at least one decade")
    if np.any(estimates <= 0):
        raise ValueError("ladder estimates must be positive")
    return loglog_slope(sizes, estimates, stderrs, seed=seed)
