"""Poisson tail probabilities by stable direct summation.

The jump count of a unit-rate continuous-time walk by time t is Poisson(t),
so these tails certify torus wrap errors.  ``poisson_weights`` sums the
Poisson jump series of the heat kernel; tests keep it as the reference the
Chebyshev sweep is checked against.
"""

from __future__ import annotations

import math


def poisson_pmf_log(lam, n):
    return -lam + n * math.log(lam) - math.lgamma(n + 1)


def poisson_tail(lam, r):
    """P(Poisson(lam) >= r), summed stably on the smaller side.

    ``r`` may be any real; the tail counts the integer atoms n >= r.
    """
    if lam < 0:
        raise ValueError("rate must be nonnegative")
    n0 = max(0, math.ceil(r))
    if n0 == 0:
        return 1.0
    if lam == 0.0:
        return 0.0
    if n0 <= lam:
        # complement of a short head sum
        head = math.fsum(math.exp(poisson_pmf_log(lam, n)) for n in range(n0))
        return max(0.0, 1.0 - head)
    terms = []
    n = n0
    log_term = poisson_pmf_log(lam, n0)
    term = math.exp(log_term)
    while term > 0.0 and (not terms or term > 1e-30 * terms[0]):
        terms.append(term)
        n += 1
        term *= lam / n
        if n > n0 + 10_000_000:  # pragma: no cover - safety stop
            break
    return math.fsum(terms)


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
