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

Every value splits by one rule, :func:`_split_plan`'s, which keeps wrapped
mass out of the head and the tail fit, and comes from one routine,
:func:`_green_sweep`, which sweeps each source once, to the largest split
time of its targets.  The sweeps stop at tol ``_HEAD_TOL`` = 1e-9: the head's
truncation bound (``trunc_error``) is then at most about 1e-5 of the value,
while the extrapolated tail it is added to is off by 0.01-3 % on the constant
field, so a tighter tol buys the value nothing.

The one-dimensional Bessel reduction of the lattice Fourier integral gives
an independent oracle for the constant environment.

scipy loads on first use, as in :mod:`rcmlab.kernel`; only the oracle needs
``scipy.integrate``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .envelopes import REGIME_SPLIT, resolve_threshold
from .environment import sample_environment
from .fitting import loglog_slope
from .kernel import _block_pattern, _start_stages, jump_kernel, point_mass, propagate
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
    """One Green kernel value, its split time and its bounds (see
    :func:`green_kernel`)."""

    x: tuple
    y: tuple
    value: float
    tail_bound: float
    split_time: float
    trunc_error: float


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


def _extrapolated_tail(hk_half, hk_full, t0, d):
    """Extrapolated integral of the heat kernel beyond t0, from its values
    ``hk_half`` at t0/2 and ``hk_full`` at t0.

    Writes p(t) * t^(d/2) = c * exp(-a/t) + O(t^-2 corrections), reads (c, a)
    off the two values and integrates the fit in closed form.  A negative
    fitted a (on-diagonal shape) falls back to the additive fit c + b/t."""
    f_half = float(hk_half) * (t0 / 2.0) ** (d / 2.0)
    f_full = float(hk_full) * t0 ** (d / 2.0)
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


# the largest split time
_T0_CAP = 512.0

# the tolerance of every Green sweep (see _green_sweep)
_HEAD_TOL = 1e-9


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
    """One pair's Green value with an envelope tail check: a shim kept for the
    benchmark, which passes ``envelope``, ``tol`` and ``t0_min`` and reads
    ``tail_bound``.

    ``value``, ``split_time`` and ``trunc_error`` are :func:`_green_sweep`'s
    at :func:`_split_plan`'s split time T0.  ``tail_bound`` is the closed-form
    integral over [T0, infinity) of the fitted upper ``envelope``, which was
    checked only at the times it was fitted on: on the constant field it
    measured 2.2 to 3.0 times the tail of the lattice Z^3, and since p(t)
    tends to 1/sum(mu) on the torus, it bounds no torus quantity.  Neither
    ``tol`` nor ``t0_min`` steers T0: a ValueError is raised when T0 is below
    ``t0_min`` or ``tail_bound`` exceeds ``tol`` times the value.
    """
    geo = field.geometry
    by_source, (dist,), split_times = _split_plan(geo, [(x, y)])
    if envelope is None:
        raise ValueError("fitted upper envelope required")
    t0 = split_times[0]
    if t0_min is not None and t0 < t0_min:
        raise ValueError(f"the split time {t0:g} is below t0_min = {t0_min:g}")
    kern = kernel if kernel is not None else jump_kernel(field)
    (value,), (trunc_error,), _ = _green_sweep(kern, by_source, split_times)
    tail_bound = _envelope_tail(envelope, t0, dist)
    if tail_bound > tol * value:
        raise ValueError(f"the envelope tail {tail_bound:.3g} exceeds the budget "
                         f"{tol:g} times the value {value:.3g}")
    return GreenEstimate(geo.wrap(x), geo.wrap(y), float(value), tail_bound, t0,
                         float(trunc_error))


@dataclass
class GreenDecomposition:
    term_local: float  # [0, n1^2]
    term_mid: float  # [n1^2, max(n1^2, dist/split)]
    term_far: float  # beyond, including the extrapolated tail
    split_low: float
    split_high: float
    total: float  # the one estimator's value, which the three terms sum to


def green_decomposition(field, x, y, threshold, kernel=None):
    """Three-piece split of the Green value of (x, y) at n1^2 and
    n_xy = max(n1^2, dist / REGIME_SPLIT), with n1 = N(x) read from
    ``threshold`` (a number or a dict keyed by point).  The pieces split the
    one estimator's profile, which stops at the split time T0, so a split
    point beyond T0 is refused."""
    n1 = resolve_threshold(threshold, x)
    if not math.isfinite(n1):
        raise ValueError("stability radius not available")
    geo = field.geometry
    by_source, (dist,), split_times = _split_plan(geo, [(x, y)])
    lam, t0 = n1 * n1, split_times[0]
    n_xy = max(lam, dist / REGIME_SPLIT)
    if n_xy > t0:
        raise ValueError(f"split point {n_xy:g} lies beyond the split time {t0:g}")
    kern = kernel if kernel is not None else jump_kernel(field)
    (value,), _, profiles = _green_sweep(kern, by_source, split_times)
    at_lam, at_nxy = _head_integral(profiles[tuple(x)], [lam, n_xy])[:, 0]
    return GreenDecomposition(float(at_lam), float(at_nxy - at_lam), float(value - at_nxy),
                              lam, n_xy, float(value))


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


def quenched_bound_check(field, pairs, threshold, window=None, kernel=None):
    """g * |x-y|^(d-2) across pairs, with inclusion flags from the threshold
    N(x), a number or a dict keyed by point.

    The values come from one sweep per source (:func:`_green_sweep`), and a
    pair too far for L is refused with :func:`_split_plan`'s message.  Pairs
    below their thresholds stay in the table but are excluded from the
    min/max summary and the verdict.  ``window`` is an optional (low, high)
    band the included scaled values must fall into.
    """
    geo = field.geometry
    by_source, dists, split_times = _split_plan(geo, pairs)
    if 0 in dists:
        raise ValueError("pairs must be distinct")
    kern = kernel if kernel is not None else jump_kernel(field)
    values = _green_sweep(kern, by_source, split_times)[0].tolist()
    rows = []
    included_scaled = []
    for (x, y), dist, value in zip(pairs, dists, values):
        n1 = resolve_threshold(threshold, x)
        scaled = value * dist ** (geo.d - 2.0)
        if math.isfinite(n1):
            mu_x = float(kern.mu[geo.index(x)])
            upper_inc = dist >= green_cutoff_radius(n1, mu_x, geo.d)
            lower_inc = dist > n1
        else:
            upper_inc = lower_inc = False
        rows.append(QuenchedRow(geo.wrap(x), geo.wrap(y), dist, value,
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
    trunc_errors: list  # per pair, the largest head truncation bound over the replicas


def _split_plan(geometry, pairs):
    """The pair rows (row index, target) per source, the pair distances and
    the split times: the one place a Green value's split time is chosen.

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
    distances.  Each pair's ``trunc_errors`` entry is the largest head
    truncation bound of its replicas (see :func:`_green_sweep`).

    The replicas are independent, and their sparse products release the GIL,
    so they run on min(2, usable cores) workers: the calling thread and at
    most one helper thread.  Replica i always goes to worker i % workers and
    writes column i of the sample and bound tables, so the bits do not depend
    on the schedule.  If replicas raise, the error of the first failing one in
    index order is raised, as the serial loop would.  To keep two replicas in
    flight cheap, each field is dropped as soon as its kernel is built, and
    every kernel shares the geometry's cached neighbor table and block
    pattern, and every sweep its source's cached stage plan (see
    :mod:`rcmlab.kernel`), all built once before the helper starts.

    A replica must not call threaded BLAS (``np.linalg.norm``, ``np.dot``, a
    large ``@``): with the other worker busy, OpenBLAS's pool spins on the
    second core.  One vector norm per replica took the best of ten 48^3 runs
    (three replicas) from 107-113 to 137-155 ms (2-vCPU Xeon); the sweeps
    use ufunc reductions instead.
    """
    by_source, dists, split_times = _split_plan(geometry, pairs)
    if n_samples < 2:
        raise ValueError("need at least two samples")

    samples = np.empty((len(pairs), n_samples))
    trunc_errors = np.empty_like(samples)

    def replica(i):
        kern = jump_kernel(sample_environment(spec, geometry, child_seed(seed, 0, i)))
        samples[:, i], trunc_errors[:, i], _ = _green_sweep(kern, by_source, split_times)

    # The first kernel build and sweep import scipy.sparse and scipy.special
    # and build the geometry's block pattern and each source's stage plan.  Do
    # all four here, before the helper starts, so that no import, pattern or
    # plan is made on two threads at once and its cost is paid once, on this
    # thread.
    import scipy.sparse  # noqa: F401
    import scipy.special  # noqa: F401
    _block_pattern(geometry)
    for x in by_source:
        _start_stages(geometry, point_mass(geometry, x))

    _run_split(n_samples, replica)
    means = samples.mean(axis=1)
    stderrs = samples.std(axis=1, ddof=1) / math.sqrt(n_samples)
    slope = loglog_slope(dists, means, stderrs, seed=seed)
    return AnnealedReport([(tuple(x), tuple(y)) for x, y in pairs], dists, split_times,
                          means.tolist(), stderrs.tolist(), slope,
                          trunc_errors.max(axis=1).tolist())


def _run_split(n_tasks, task):
    """Calls task(i) for i < n_tasks, task i on worker i % workers, where
    worker 0 is the calling thread and the others are helper threads joined
    before return.  A worker stops at its first failure, and the others skip
    the tasks after it; the error of the first failing task is raised.

    Worker 0 is the caller: two pool threads kept every bit but cost one more
    glibc malloc arena, 114 -> 119 MB peak RSS (annealed-green, 2-vCPU Xeon).
    Tasks must not call threaded BLAS: its thread pool spins on the core the
    other worker needs (see :func:`annealed_green`)."""
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


def _green_sweep(kern, by_source, split_times):
    """Green values of one field from its kernel, at the pair rows
    ``by_source`` lists per source, each split at its row's entry of
    ``split_times`` (see :func:`_split_plan`): one sweep per source runs to
    the largest split time of its rows.

    Each sweep runs at tol ``_HEAD_TOL`` = 1e-9, not the 1e-12 of the full
    laws: it certifies a head to at most about 1e-5 of the value (0.9-6.2e-6
    on 48^3 elliptic fields at r = 4-12), well inside the 0.01-3 % error of
    the extrapolated tail, and at t = 256 it needs 98 terms instead of 115.

    Returns each row's value, its head truncation bound
    t0 * trunc_error(y) / mu(y), and each source's profile, whose target j is
    the source's j-th row.  Annealed replicas build the kernel straight from
    a fresh field, so the field is already freed."""
    geo = kern.geometry
    values = np.empty(len(split_times))
    trunc_errors = np.empty_like(values)
    profiles = {}
    for x, rows in by_source.items():
        t0s = [split_times[row] for row, _ in rows]
        profile = propagate(kern, point_mass(geo, x), [max(t0s)], _HEAD_TOL,
                            targets=[geo.index(y) for _, y in rows])
        heads = {t0: (_head_integral(profile, t0), profile.hk(t0 / 2.0), profile.hk(t0))
                 for t0 in set(t0s)}  # once per distinct T0, for every target
        for j, ((row, _), t0) in enumerate(zip(rows, t0s)):
            head, hk_half, hk_full = heads[t0]
            values[row] = head[j] + _extrapolated_tail(hk_half[j], hk_full[j], t0, geo.d)
            trunc_errors[row] = t0 * profile.trunc_error[j] / profile.mu_targets[j]
        profiles[x] = profile
    return values, trunc_errors, profiles


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
