"""Green kernel of the walk in transient dimensions (d >= 3).

The Green kernel g(x, y) integrates the heat kernel over all time.  Each
value splits the integral at a time T0:

  * head [0, T0]: exact, in closed form.  One sparse sweep stores the
    Chebyshev terms v_k = T_k(P^T) delta_x at y, and p(t, x, y) is
    sum_k c_k(t) v_k / mu(y) with c_0 = ive(0, t), c_k = 2 ive(k, t) (see
    :mod:`rcmlab.kernel`).  Integrating the Bessel recurrence
    d/ds ive(k, s) = (ive(k - 1, s) + ive(k + 1, s)) / 2 - ive(k, s) over
    [0, T] gives int_0^T ive(k, s) ds = 2 sum_{j > k} (j - k) ive(j, T), a
    sum of positive terms, so the head is sum_k B_k(T0) v_k / mu(y) with
    B_k the integrals of c_k, up to the series truncation;
  * tail [T0, infinity): an extrapolated estimate.  log(p * t^{d/2}) is
    fitted as gamma - a/t from the values at T0/2 and T0 and the fit
    integrates in closed form (an additive c + b/t fit stands in when the
    fitted a is negative, the on-diagonal shape).

Quenched and annealed values split by one rule, :func:`_split_plan`'s,
which keeps wrapped mass out of the head and the tail fit.
:func:`green_kernel` instead doubles T0 until the integral of a fitted upper
envelope fits a budget.

The one-dimensional Bessel reduction of the lattice Fourier integral gives
an independent oracle for the constant environment.

scipy loads on first use, as in :mod:`rcmlab.kernel`; only the oracle needs
``scipy.integrate``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .envelopes import REGIME_SPLIT, resolve_threshold
from .environment import sample_environment
from .fitting import loglog_slope
from .kernel import jump_kernel, point_mass, propagate
from .poisson import poisson_tail
from .seeding import child_seed
from .workers import _worker_count

__all__ = [
    "GreenEstimate",
    "green_kernel",
    "green_decomposition",
    "green_cutoff_radius",
    "quenched_bound_check",
    "annealed_green",
    "srw_green",
]


@dataclass
class GreenEstimate:
    """One Green kernel value with its error certificate."""

    x: tuple
    y: tuple
    value: float
    head: float
    tail_estimate: float
    tail_bound: float
    split_time: float
    trunc_error: float
    decomposition: object = None
    # the Chebyshev profile the head integrates; green_decomposition reuses it
    profile: object = dataclass_field(default=None, repr=False)


def _head_weights(n_terms, t):
    """B_k(T) = int_0^T c_k(s) ds for k < n_terms, from ive(j, T) alone:
    int_0^T ive(k, s) ds = 2 sum_{j > k} (j - k) ive(j, T) (module docstring),
    as two cumulative sums from the small end.  Past j_max the terms are
    below e^-50 of the largest."""
    from scipy import special

    j_max = n_terms + int(10.0 * math.sqrt(t)) + 30
    above = np.cumsum(special.ive(np.arange(j_max + 1), t)[::-1])[::-1]
    weights = 2.0 * np.cumsum(above[::-1])[::-1][1 : n_terms + 1]
    weights[1:] *= 2.0
    return weights


def _head_integral(profile, times):
    """Exact integral of p(t, x, target) over [0, T] for each T in ``times``
    and each target of the profile, shape ``times`` + (targets,).

    Sums B_k(T) v_k / mu(target) over the stored Chebyshev terms (see the
    module docstring), with B_k(T) computed once per T for all targets.
    """
    t = np.asarray(times, dtype=np.float64)
    if np.any(t < 0) or np.any(t > profile.t_max * (1 + 1e-12)):
        raise ValueError("time outside the profiled range")
    n_terms = len(profile.coeff)
    weights = np.array([_head_weights(n_terms, s) for s in t.reshape(-1)])
    return (weights @ profile.coeff / profile.mu_targets).reshape(t.shape + (-1,))


def _envelope_tail(envelope, t0, dist):
    """Closed-form integral of the upper envelope over [t0, infinity)."""
    d = envelope.d
    if d < 3:
        raise ValueError("transient dimension required")
    amp = envelope.upper_amp
    rate_sq = envelope.upper_gauss_rate * dist * dist
    nu_exp = d / 2.0
    if rate_sq == 0.0:
        return amp * t0 ** (1.0 - nu_exp) / (nu_exp - 1.0)
    from scipy import special

    # substitute v = rate_sq / t
    shape = nu_exp - 1.0
    return amp * rate_sq ** (1.0 - nu_exp) * special.gamma(shape) * special.gammainc(
        shape, rate_sq / t0
    )


def _power_tail(t0, exponent):
    """Integral of t^-exponent over [t0, infinity)."""
    return t0 ** (1.0 - exponent) / (exponent - 1.0)


def _extrapolated_tail(profile, t0, d, target=0):
    """Extrapolated integral of the heat kernel beyond t0.

    Writes p(t) * t^(d/2) = c * exp(-a/t) + O(t^-2 corrections), reads (c, a)
    off the values at t0/2 and t0, and integrates the fit in closed form.
    When the fitted a is negative (on-diagonal shape, where the profile
    decreases toward its limit) the additive fit c + b/t is used instead.
    """
    f_half = float(profile.hk(t0 / 2.0)[target]) * (t0 / 2.0) ** (d / 2.0)
    f_full = float(profile.hk(t0)[target]) * t0 ** (d / 2.0)
    if f_half <= 0.0 or f_full <= 0.0:
        return 0.0
    rate = (math.log(f_full) - math.log(f_half)) * t0
    if rate > 0.0:
        from scipy import special

        c_inf = f_full * math.exp(rate / t0)
        shape = d / 2.0 - 1.0
        return c_inf * rate ** (-shape) * special.gamma(shape) * special.gammainc(
            shape, rate / t0
        )
    c_inf = 2.0 * f_full - f_half
    b_lin = (f_half - f_full) * t0
    tail = c_inf * _power_tail(t0, d / 2.0) + b_lin * _power_tail(t0, d / 2.0 + 1.0)
    return max(0.0, tail)


# the largest split time either Green estimator uses
_T0_CAP = 512.0


def _pow2_at_least(v):
    out = 4.0
    while out < v:
        out *= 2.0
    return out


def _pow2_at_most(v):
    out = 1.0
    while 2.0 * out <= v:
        out *= 2.0
    return out


def green_kernel(field, x, y, envelope, tol=1.0, t0_min=None, kernel=None):
    """Green kernel value with an exact head and an envelope tail budget.

    The head over [0, T0] is the closed form sum_k B_k(T0) v_k / mu(y) over
    the Chebyshev terms v_k = T_k(P^T) delta_x at y, with B_k(T0) the exact
    integral of the k-th coefficient (module docstring); only the series
    truncation, bounded by ``trunc_error``, separates it from the integral.

    ``envelope`` must be a fitted and verified upper envelope for this field;
    its closed-form tail integral, ``tail_bound``, is required to stay below
    ``tol`` times the value (the split time doubles until it does, and a
    ValueError is raised if it does not by ``_T0_CAP``).  Because
    that integral decays only like the square root of the split time, ``tol``
    is an order-one budget; the reported value instead relies on the
    extrapolated tail, which is far more accurate than ``tail_bound``.
    Request accuracy through ``t0_min``, not through ``tol``.

    ``tail_bound`` is the closed-form integral over [T0, infinity) of the
    upper envelope, which was checked only at the times it was fitted on.
    On the constant field it measured 2.2 to 3.0 times the tail of the
    lattice Z^3.  No check backs it past the fit times, and since p(t) tends
    to 1/sum(mu) on the torus, it bounds no torus quantity.

    No command calls it: ``green`` splits quenched values by
    :func:`_split_plan`.  It stays while the benchmark and the Green oracle
    acceptance check call it.
    """
    geo = field.geometry
    if geo.d < 3:
        raise ValueError("transient dimension required")
    if envelope is None:
        raise ValueError("fitted upper envelope required")

    dist = geo.torus_distance(x, y)
    thresh = resolve_threshold(envelope.threshold, x)
    start = max(16.0, 2.0 * dist * dist, thresh * thresh if math.isfinite(thresh) else 0.0)
    if t0_min is not None:
        start = max(start, t0_min)
    t0 = min(_pow2_at_least(start), _T0_CAP)

    kern = kernel if kernel is not None else jump_kernel(field)
    profile = propagate(kern, point_mass(geo, x), [t0], 1e-13, targets=[geo.index(y)])
    while True:
        head = float(_head_integral(profile, t0)[0])
        tail_est = _extrapolated_tail(profile, t0, geo.d)
        tail_bound = _envelope_tail(envelope, t0, dist)
        value = head + tail_est
        if tail_bound <= tol * value:
            break
        if t0 >= _T0_CAP:
            raise ValueError("cannot certify the tail within the requested budget")
        t0 *= 2.0
        profile.extend(t0)

    return GreenEstimate(
        x=geo.wrap(x),
        y=geo.wrap(y),
        value=value,
        head=head,
        tail_estimate=tail_est,
        tail_bound=tail_bound,
        split_time=t0,
        trunc_error=t0 * profile.trunc_error / float(kern.mu[geo.index(y)]),
        profile=profile,
    )


@dataclass
class GreenDecomposition:
    term_local: float  # [0, n1^2]
    term_mid: float  # [n1^2, max(n1^2, dist/split)]
    term_far: float  # beyond, including the extrapolated tail
    split_low: float
    split_high: float
    total: float


def green_decomposition(field, x, y, n1, envelope, kernel=None):
    """Three-piece split of the Green integral at n1^2 and
    max(n1^2, dist / REGIME_SPLIT)."""
    if n1 is None:
        raise ValueError("stability radius not available")
    lam = float(n1 * n1)
    n_xy = max(lam, field.geometry.torus_distance(x, y) / REGIME_SPLIT)
    estimate = green_kernel(field, x, y, envelope, t0_min=max(4.0, n_xy), kernel=kernel)
    at_lam, at_nxy, at_t0 = _head_integral(estimate.profile,
                                           [lam, n_xy, estimate.split_time])[:, 0]
    term_local = float(at_lam)
    term_mid = float(at_nxy - at_lam)
    term_far = float(at_t0 - at_nxy) + estimate.tail_estimate
    decomp = GreenDecomposition(term_local, term_mid, term_far, lam, n_xy,
                                term_local + term_mid + term_far)
    estimate.decomposition = decomp
    return estimate


def green_cutoff_radius(n1, mu_x, d):
    """Smallest integer radius where the early-time trap term is dominated.

    With lam = n1^2 this is the least r >= 1 such that
    (lam / mu(x)) * P(Pois(lam) >= r) <= r^(2-d).
    """
    if d < 3:
        raise ValueError("transient dimension required")
    lam = float(n1) ** 2
    r = 1
    while (lam / mu_x) * poisson_tail(lam, r) > r ** (2.0 - d):
        r += 1
        if r > 10_000:  # pragma: no cover - tail decays superexponentially
            raise RuntimeError("cutoff radius search ran away")
    return r


@dataclass
class QuenchedRow:
    x: tuple
    y: tuple
    dist: int
    value: float
    scaled: float  # g * dist^(d-2)
    upper_included: bool
    lower_included: bool


@dataclass
class QuenchedReport:
    rows: list
    scaled_min: float
    scaled_max: float
    verdict: object  # bool when a window was supplied, else None


def quenched_bound_check(field, pairs, envelope, window=None, kernel=None):
    """g * |x-y|^(d-2) across pairs, with inclusion flags from the envelope's
    threshold N(x).

    Pairs below their thresholds stay in the table but are excluded from the
    min/max summary and the verdict.  ``window`` is an optional
    (low, high) band the included scaled values must fall into.
    """
    geo = field.geometry
    kern = kernel if kernel is not None else jump_kernel(field)
    rows = []
    included_scaled = []
    for x, y in pairs:
        dist = geo.torus_distance(x, y)
        if dist == 0:
            raise ValueError("pairs must be distinct")
        n1 = resolve_threshold(envelope.threshold, x)
        est = green_kernel(field, x, y, envelope, kernel=kern)
        scaled = est.value * dist ** (geo.d - 2.0)
        if math.isfinite(n1):
            mu_x = float(kern.mu[geo.index(x)])
            upper_inc = dist >= green_cutoff_radius(n1, mu_x, geo.d)
            lower_inc = dist > n1
        else:
            upper_inc = lower_inc = False
        rows.append(QuenchedRow(geo.wrap(x), geo.wrap(y), dist, est.value,
                                scaled, upper_inc, lower_inc))
        if upper_inc or lower_inc:
            included_scaled.append(scaled)
    if included_scaled:
        lo, hi = min(included_scaled), max(included_scaled)
    else:
        lo = hi = math.nan
    verdict = None
    if window is not None and included_scaled:
        verdict = bool(window[0] <= lo and hi <= window[1])
    return QuenchedReport(rows, lo, hi, verdict)


@dataclass
class AnnealedReport:
    pairs: list
    distances: list
    split_times: list
    means: list
    stderrs: list
    slope: object  # SlopeFit of mean against distance


def _split_plan(geometry, pairs):
    """The pair rows (row index, target) per source, the pair distances and
    the split times of both Green modes.

    Each pair splits at t0 = min(pow2 >= max(128, 4 dist^2), 512, cap), where
    cap is the largest power of two <= L^2/8: past that time wrapped mass
    inflates the head and the tail fit (the values at t0/2 and t0).  A pair
    whose t0 falls below dist^2 is refused with a ValueError, since the
    torus is too small for its walk to reach the target before wrapping.
    """
    if geometry.d < 3:
        raise ValueError("transient dimension required")
    cap = _pow2_at_most(geometry.L * geometry.L / 8.0)
    by_source = {}
    dists = []
    split_times = []
    for row, (x, y) in enumerate(pairs):
        dist = geometry.torus_distance(x, y)
        t0 = min(_pow2_at_least(max(128.0, 4.0 * dist * dist)), _T0_CAP, cap)
        if t0 < dist * dist:
            raise ValueError(f"pair {tuple(x)} -> {tuple(y)} is too far for L = {geometry.L}: "
                             f"its split time {t0:g} (capped at L^2/8) is below "
                             f"dist^2 = {dist * dist}")
        by_source.setdefault(tuple(x), []).append((row, tuple(y)))
        dists.append(dist)
        split_times.append(t0)
    return by_source, dists, split_times


def annealed_green(spec, geometry, pairs, n_samples, seed):
    """Monte Carlo annealed Green means per pair and their distance power law.

    Each pair splits by :func:`_split_plan`'s rule, which refuses a pair the
    torus cannot resolve.  Tail integrals use the Richardson extrapolation
    (estimates, not certificates); the fit is a log-log slope over the pair
    distances.

    The replicas are independent, and their sparse products release the GIL,
    so they run on min(2, usable cores) workers: the calling thread and at
    most one helper thread.  Replica i always goes to worker i % workers and
    writes column i of the sample table, so the bits do not depend on the
    schedule.  If replicas raise, the error of the first failing one in index
    order is raised, as the serial loop would.  To keep two replicas in
    flight cheap, each field is dropped as soon as its kernel is built, and
    every kernel shares the geometry's cached neighbor table and block
    pattern (see :mod:`rcmlab.kernel`).
    """
    by_source, dists, split_times = _split_plan(geometry, pairs)
    if n_samples < 2:
        raise ValueError("need at least two samples")

    samples = np.empty((len(pairs), n_samples))

    def replica(i):
        kern = jump_kernel(sample_environment(spec, geometry, child_seed(seed, 0, i)))
        samples[:, i] = _annealed_replica(kern, by_source, split_times)[0]

    # The first kernel build and sweep import scipy.sparse and scipy.special.
    # Import them here, before the helper starts, so that no first import runs
    # on two threads at once and its cost is paid once, on this thread.
    import scipy.sparse  # noqa: F401
    import scipy.special  # noqa: F401

    _run_split(n_samples, replica)
    means = samples.mean(axis=1)
    stderrs = samples.std(axis=1, ddof=1) / math.sqrt(n_samples)
    slope = loglog_slope(dists, means, stderrs, seed=seed)
    return AnnealedReport([(tuple(x), tuple(y)) for x, y in pairs], dists, split_times,
                          means.tolist(), stderrs.tolist(), slope)


def _run_split(n_tasks, task):
    """Calls task(i) for i < n_tasks, task i on worker i % workers, where
    worker 0 is the calling thread and the others are helper threads joined
    before return.  A worker stops at its first failure, and the others skip
    the tasks after it; the error of the first failing task is raised.

    Worker 0 is the caller: two pool threads kept every bit but cost one more
    glibc malloc arena, 114 -> 119 MB peak RSS (annealed-green, 2-vCPU Xeon)."""
    workers = min(_worker_count(), n_tasks)
    failures = {}
    stop = [n_tasks]  # no task past this index needs to run
    lock = threading.Lock()

    def work(first):
        for i in range(first, n_tasks, workers):
            if i > stop[0]:  # a stale read only runs one task more
                return
            try:
                task(i)
            except Exception as exc:
                with lock:
                    failures[i] = exc
                    stop[0] = min(stop[0], i)
                return

    helpers = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for helper in helpers:
        helper.start()
    try:
        work(0)
    except BaseException:
        stop[0] = -1  # interrupted: let the helpers finish their current task only
        raise
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]


def _annealed_replica(kern, by_source, split_times):
    """One field's Green values from its kernel, at the pair rows
    ``by_source`` lists per source, each split at its row's entry of
    ``split_times`` (see :func:`_split_plan`); one sweep per source runs to
    the largest split time.  Also returns each row's head truncation bound,
    t0 * trunc_error / mu(y).  Annealed replicas build the kernel straight
    from a fresh field, so the field is already freed."""
    geo = kern.geometry
    t_max = max(split_times)
    values = np.empty(sum(len(rows) for rows in by_source.values()))
    trunc_errors = np.empty_like(values)
    for x, rows in by_source.items():
        profile = propagate(kern, point_mass(geo, x), [t_max], 1e-12,
                            targets=[geo.index(y) for _, y in rows])
        t0s = [split_times[row] for row, _ in rows]
        heads = {t0: _head_integral(profile, t0) for t0 in t0s}
        for j, ((row, _), t0) in enumerate(zip(rows, t0s)):
            values[row] = heads[t0][j] + _extrapolated_tail(profile, t0, geo.d, target=j)
            trunc_errors[row] = t0 * profile.trunc_error / profile.mu_targets[j]
    return values, trunc_errors


# ---------------------------------------------------------------------------
# independent oracle for the constant environment


def srw_green(z):
    """Expected visits of the simple random walk to z, started at 0 (d >= 3).

    The lattice Fourier integral reduces per axis to scaled Bessel functions:
    the integrand is the product of ive(z_i, t/d).  Quadrature handles
    [0, split]; beyond it the Bessel asymptotic series integrates in closed
    form with relative error O(split^-3).
    """
    split = 400.0
    z = tuple(int(abs(c)) for c in z)
    d = len(z)
    if d < 3:
        raise ValueError("transient dimension required")
    from scipy import integrate, special

    def integrand(t):
        out = 1.0
        for zi in z:
            out *= special.ive(zi, t / d)
        return out

    head, _ = integrate.quad(integrand, 0.0, split, limit=400)

    def a1(n):
        return -(4 * n * n - 1) / 8.0

    def a2(n):
        return (4 * n * n - 1) * (4 * n * n - 9) / 128.0

    a_lin = d * sum(a1(zi) for zi in z)
    a_quad = d * d * (
        sum(a2(zi) for zi in z)
        + sum(a1(z[i]) * a1(z[j]) for i in range(d) for j in range(i + 1, d))
    )
    pref = (2.0 * math.pi / d) ** (-d / 2.0)
    tail = pref * (
        _power_tail(split, d / 2.0)
        + a_lin * _power_tail(split, d / 2.0 + 1.0)
        + a_quad * _power_tail(split, d / 2.0 + 2.0)
    )
    return head + tail
