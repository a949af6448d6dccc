"""Poisson tail probabilities.

The jump count of a unit-rate continuous-time walk by time t is Poisson(t),
so its upper tail, ``poisson_tail`` in closed form, bounds how far the walk
can have moved by then.  ``poisson_weights`` sums the Poisson jump series of
the heat kernel; tests keep it as the reference the Chebyshev sweep is
checked against.
"""

from __future__ import annotations

import math


def poisson_tail(lam, r):
    """P(Poisson(lam) >= r), as the regularized incomplete gamma function
    ``pdtrc(ceil(r) - 1, lam)``.

    ``r`` may be any real; the tail counts the integer atoms n >= r.
    """
    if lam < 0:
        raise ValueError("rate must be nonnegative")
    if r <= 0:
        return 1.0
    from scipy import special  # loaded on first use

    return float(special.pdtrc(math.ceil(r) - 1, lam))


def chernoff_check(lam, r):
    """Whether the exact tail P(Poisson(lam) >= r) is at most exp(-r + 7*lam).

    Requires r > 7*lam, the regime where this exponential bound applies.
    """
    if not r > 7 * lam:
        raise ValueError("bound requires r > 7 * rate")
    return poisson_tail(lam, r) <= math.exp(-r + 7 * lam)


def _cutoff(lam, tol):
    """Smallest n with P(Poisson(lam) > n) <= tol."""
    if not (0 < tol < 1):
        raise ValueError("tolerance must be in (0, 1)")
    if lam == 0:
        return 0
    # start near the mean plus a generous Gaussian allowance, then step
    n = int(lam + 10 * math.sqrt(lam) + 20)
    while poisson_tail(lam, n + 1) > tol:
        n = int(1.5 * n) + 10
    low, high = 0, n
    while low < high:
        mid = (low + high) // 2
        if poisson_tail(lam, mid + 1) <= tol:
            high = mid
        else:
            low = mid + 1
    return low


def poisson_weights(lam, tol):
    """Weights e^-lam lam^n / n! for n = 0..cutoff, plus the dropped tail mass.

    Computed in linear space by the multiplicative recurrence; valid while
    e^-lam stays normal, i.e. lam below roughly 700.
    """
    if lam < 0:
        raise ValueError("rate must be nonnegative")
    if lam > 700:
        raise ValueError("rate too large for linear-space weights")
    if lam == 0:
        return [1.0], 0.0
    n_max = _cutoff(lam, tol)
    weights = [math.exp(-lam)]
    for n in range(1, n_max + 1):
        weights.append(weights[-1] * lam / n)
    return weights, poisson_tail(lam, n_max + 1)
