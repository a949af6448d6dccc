import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcmlab.envelopes import (GaussianEnvelope, Violation, fit_envelopes, resolve_threshold,
                              stability_radius, verify_bounds)
from rcmlab.environment import (ConductanceField, EnvironmentSpec,
                                sample_environment)
from rcmlab.kernel import HeatKernelSlice, heat_kernel, heat_slices, jump_kernel
from rcmlab.lattice import TorusGeometry
from rcmlab.seeding import child_seed

CONSTANT = EnvironmentSpec("constant", {"level": 1.0})
ELLIPTIC = EnvironmentSpec("uniform-elliptic-iid", {"low": 0.5, "high": 2.0})


def make_env(**overrides):
    base = dict(d=2, upper_amp=1.0, upper_gauss_rate=1.0, upper_linear_rate=1.0,
                lower_amp=0.1, lower_gauss_rate=2.0, threshold=1.0)
    base.update(overrides)
    return GaussianEnvelope(**base)


def test_stability_radius_constant_is_one():
    geo = TorusGeometry(2, 16)
    field = sample_environment(CONSTANT, geo, 0)
    assert stability_radius(field, (0, 0), 2, 2, 16.0, 16.0, 8) == 1


def test_stability_radius_spike_forces_larger():
    geo = TorusGeometry(2, 16)
    values = np.ones((geo.n_vertices, 2))
    values[geo.index((0, 0)), 0] = 12.0
    field = ConductanceField(geo, values, CONSTANT, 0)
    n1 = stability_radius(field, (0, 0), 2, 2, 16.0, 16.0, 8)
    assert n1 is not None and n1 > 1
    # defining condition re-check: both ball averages within twice the mean
    # for every radius from n1 up
    for n in range(n1, 9):
        ball = geo.ball_indices((0, 0), n)
        assert np.mean(field.mu_vector()[ball] ** 2) <= 2 * 16.0
        assert np.mean(field.nu_vector()[ball] ** 2) <= 2 * 16.0


def test_stability_radius_not_stabilized():
    geo = TorusGeometry(2, 8)
    values = np.full((geo.n_vertices, 2), 50.0)
    field = ConductanceField(geo, values, CONSTANT, 0)
    # means chosen for a unit field: a uniformly huge field never conforms
    assert stability_radius(field, (0, 0), 2, 2, 16.0, 16.0, 4) is None


def test_stability_radius_finite_for_most_elliptic_fields():
    geo = TorusGeometry(2, 64)
    mean_mu2 = 25.0 + 4 * (1.5**2 / 12)
    ey = math.log(4) / 1.5
    mean_nu2 = (4 * ey) ** 2 + 4 * (1.0 - ey * ey)
    finite = 0
    n = 1000
    for i in range(n):
        field = sample_environment(ELLIPTIC, geo, child_seed(31337, 0, i))
        if stability_radius(field, (0, 0), 2, 2, mean_mu2, mean_nu2, 31) is not None:
            finite += 1
    assert finite >= 0.99 * n


def test_upper_envelope_formulas():
    env = make_env(upper_amp=2.0)
    assert env.upper_profile(4.0, 0) == pytest.approx(2.0 / 4.0)
    env_unit = make_env(upper_amp=1.0, upper_gauss_rate=1.0)
    val = env_unit.upper_profile(4.0, 2)
    assert val == pytest.approx(0.25 * math.exp(-1.0))


def test_upper_envelope_boundary_max_of_branches():
    env = make_env(upper_amp=1.0, upper_gauss_rate=0.3, upper_linear_rate=2.0)
    t, dist = 4.0, 4.0  # exactly on the split
    near = env.upper_amp * t ** -1 * math.exp(-env.upper_gauss_rate * dist**2 / t)
    far = env.upper_amp * t ** -1 * math.exp(-env.upper_linear_rate * dist * 1.0)
    assert env.upper_profile(t, dist) == pytest.approx(max(near, far))


def test_lower_envelope_formula_and_threshold():
    # N(x) = 2 at the origin, as a constant and as a dict with a None entry
    for threshold in (2.0, {(0, 0): 2, (1, 1): None}):
        env = make_env(lower_amp=0.1, lower_gauss_rate=2.0, threshold=threshold)
        assert env.lower_active(8.0, (0, 0), 2)
        assert env.lower_profile(8.0, 2) == pytest.approx(0.1 / 8.0 * math.exp(-2.0 * 4.0 / 8.0))
        assert env.lower_active(8.0, (0, 0), 0)
        assert env.lower_profile(8.0, 0) == pytest.approx(0.1 / 8.0)
        # below threshold the bound is vacuous
        assert not env.lower_active(3.0, (0, 0), 2)
        # the same N(x) gates the upper bound at sqrt(t) >= N(x), boundary included
        assert env.upper_active(4.0, (0, 0))
        assert not env.upper_active(3.99, (0, 0))
    # a None entry (never stabilized) and a source missing from the table are
    # infinite: neither bound is ever active there
    for x in [(1, 1), (5, 5)]:
        assert not env.upper_active(1e12, x)
        assert not env.lower_active(1e12, x, 0)


def test_lower_scaling_depends_on_ratio_only():
    env = make_env()
    ratio_pairs = [((4.0, 2.0), (16.0, 4.0)), ((9.0, 3.0), (36.0, 6.0))]
    for (t1, u1), (t2, u2) in ratio_pairs:
        v1 = env.lower_profile(t1, u1) * t1 ** (env.d / 2.0)
        v2 = env.lower_profile(t2, u2) * t2 ** (env.d / 2.0)
        assert v1 == pytest.approx(v2)


def _slice(geo, t, source, hk_values, trunc_error=0.0, hk_error=0.0):
    hk = np.asarray(hk_values, dtype=float)
    return HeatKernelSlice(t=t, source=source, prob=hk.copy(), hk=hk, trunc_error=trunc_error,
                           hk_error=hk_error, geometry=geo)


def test_fit_single_diag_point_amplitude():
    geo = TorusGeometry(2, 4)
    hk = np.zeros(geo.n_vertices)
    hk[geo.index((0, 0))] = 0.05
    s = _slice(geo, 4.0, (0, 0), hk)
    env = fit_envelopes([s], lower_threshold=1.0, window=0.1)
    assert env.lower_amp == pytest.approx(0.05 * 4.0 * 0.5)
    assert env.upper_amp == pytest.approx(0.05 * 4.0 * 2.0)


def test_fit_without_upper_diagonal_points_names_the_side():
    geo = TorusGeometry(2, 16)
    field = sample_environment(CONSTANT, geo, 0)
    s = heat_kernel(field, 4.0, (0, 0), tol=1e-10)
    # t = 4 passes the lower gate (4 >= 3) but not the upper one (sqrt 4 < 3)
    with pytest.raises(ValueError, match="no valid on-diagonal points for the upper fit"):
        fit_envelopes([s], lower_threshold=3.0, window=2.0)


def test_fit_floor_is_ten_density_errors():
    # hk = 0.05 clears ten truncation bounds (0.01) but not ten density
    # errors (0.1): the point is unresolved and leaves the fit
    geo = TorusGeometry(2, 4)
    hk = np.zeros(geo.n_vertices)
    hk[geo.index((0, 0))] = 0.5
    hk[geo.distance_field((0, 0)) == 1] = 0.05
    s = _slice(geo, 4.0, (0, 0), hk, trunc_error=1e-3, hk_error=1e-2)
    env = fit_envelopes([s], lower_threshold=1.0, window=0.5)
    assert env.lower_gauss_rate == 1e-12  # no off-diagonal point demands a rate
    assert env.upper_gauss_rate == 1.0  # no near-regime point: the default rate
    resolved = fit_envelopes([_slice(geo, 4.0, (0, 0), hk, trunc_error=1e-3)],
                             lower_threshold=1.0, window=0.5)
    assert resolved.lower_gauss_rate > 1e-12 and resolved.upper_gauss_rate != 1.0


def test_fit_zero_offdiagonal_point_rejected():
    geo = TorusGeometry(2, 4)
    hk = np.zeros(geo.n_vertices)
    hk[geo.index((0, 0))] = 0.05
    s = _slice(geo, 4.0, (0, 0), hk)  # all off-diagonal values exactly zero
    with pytest.raises(ValueError, match="lower bound violated"):
        fit_envelopes([s], lower_threshold=1.0, window=2.0)


def test_fit_constant_field_and_verify():
    geo = TorusGeometry(2, 32)
    field = sample_environment(CONSTANT, geo, 0)
    kern = jump_kernel(field)
    times = [8.0, 16.0, 32.0]
    slices = [heat_kernel(field, t, (0, 0), tol=1e-10, kernel=kern) for t in times]
    env = fit_envelopes(slices, lower_threshold=1.0, window=2.0)
    assert env.lower_amp > 0
    assert math.isfinite(env.lower_gauss_rate) and env.lower_gauss_rate > 0

    report = verify_bounds(env, slices, window=2.0)
    assert not report.violations
    # the l1 ball of radius r holds 2r^2 + 2r + 1 points: r = 5, 8, 11 = 2 sqrt(t)
    assert report.n_checked == sum(2 * r * r + 2 * r + 1 for r in (5, 8, 11))

    # upper envelope dominates the lower wherever both are active
    for t in times:
        for u in range(0, int(2 * math.sqrt(t))):
            assert env.upper_profile(t, u) >= env.lower_profile(t, u)


def test_halved_upper_amp_reports_diagonal_violations():
    geo = TorusGeometry(2, 32)
    field = sample_environment(CONSTANT, geo, 0)
    kern = jump_kernel(field)
    slices = [heat_kernel(field, t, (0, 0), tol=1e-10, kernel=kern)
              for t in (8.0, 16.0)]
    env = fit_envelopes(slices, lower_threshold=1.0, window=2.0)
    # the fitted amplitude has a factor-two headroom, so cutting it to a
    # quarter must push the bound strictly below the on-diagonal data
    broken = dataclasses.replace(env, upper_amp=env.upper_amp / 4)
    report = verify_bounds(broken, slices, window=2.0)
    diag = [v for v in report.violations if v.dist == 0]
    assert diag and all(v.side == "upper" for v in diag)


def test_envelope_requires_positive_constants():
    with pytest.raises(ValueError):
        make_env(upper_amp=0.0)
    with pytest.raises(ValueError):
        make_env(lower_gauss_rate=-1.0)


def test_composite_and_data_driven_thresholds():
    from rcmlab.envelopes import composite_threshold

    assert composite_threshold(2, 4.0, 3.0) == 4.0
    assert composite_threshold(None, 4.0, 3.0) == math.inf
    assert composite_threshold(2, None, 3.0) == math.inf


def test_cross_field_verification_elliptic():
    geo = TorusGeometry(2, 32)
    fit_field = sample_environment(ELLIPTIC, geo, 101)
    ver_field = sample_environment(ELLIPTIC, geo, 202)
    mean_mu2 = 25.0 + 4 * (1.5**2 / 12)
    ey = math.log(4) / 1.5
    mean_nu2 = (4 * ey) ** 2 + 4 * (1.0 - ey * ey)

    def table(field):
        return {(0, 0): stability_radius(field, (0, 0), 2, 2, mean_mu2, mean_nu2, 15)}

    times = [8.0, 16.0, 32.0]
    kern = jump_kernel(fit_field)
    slices = [heat_kernel(fit_field, t, (0, 0), tol=1e-10, kernel=kern) for t in times]
    env = fit_envelopes(slices, lower_threshold=table(fit_field), window=2.0)
    env_v = dataclasses.replace(env, threshold=table(ver_field))
    ver_kern = jump_kernel(ver_field)
    report = verify_bounds(env_v, [heat_kernel(ver_field, t, (0, 0), tol=1e-10, kernel=ver_kern)
                                   for t in times], window=2.0)
    # cross-field generalization: almost no violations, none beyond 5 percent
    assert len(report.violations) <= 0.01 * report.n_checked + 3
    assert report.count_beyond(0.10) == 0


# ---------------------------------------------------------------------------
# The per-point loops that the fit and the verification ran before their
# array passes, kept as the reference the array passes must match exactly.


def _reference_upper(env, t, dist):
    pref = env.upper_amp * t ** (-env.d / 2.0)
    near = pref * math.exp(-env.upper_gauss_rate * dist * dist / t)
    log = math.log(dist / t) if dist / t > 0 else -math.inf
    far = pref * math.exp(-env.upper_linear_rate * dist * max(1.0, log))
    return near if dist < t else far if dist > t else max(near, far)


def _reference_lower(env, t, dist):
    return env.lower_amp * t ** (-env.d / 2.0) * math.exp(-env.lower_gauss_rate * dist * dist / t)


def _reference_fit(slices, threshold, window, mu_min):
    d = slices[0].geometry.d
    diag_lower, off_lower, diag_upper, off_upper = [], [], [], []
    for s in slices:
        floor = 10.0 * s.trunc_error / mu_min  # ten density errors
        n = resolve_threshold(threshold, s.source)
        dist = s.geometry.distance_field(s.source)
        in_window = (dist <= window * math.sqrt(s.t)) & (dist < s.geometry.L / 2)
        for idx in np.flatnonzero(in_window):
            u, p = float(dist[idx]), float(s.hk[idx])
            if s.t >= n * max(1.0, u):
                if u == 0:
                    if p > floor:
                        diag_lower.append((s.t, p))
                elif p > floor or p <= 0:
                    off_lower.append((s.t, u, p))
            if math.sqrt(s.t) >= n:
                if u == 0:
                    diag_upper.append((s.t, p))
                elif p > floor:
                    off_upper.append((s.t, u, p))
    if not diag_lower:
        raise ValueError("no valid on-diagonal points for the lower fit")
    if not diag_upper:
        raise ValueError("no valid on-diagonal points for the upper fit")
    lower_amp = 0.5 * min(p * t ** (d / 2.0) for t, p in diag_lower)
    lower_rate = 1e-12
    for t, u, p in off_lower:
        if p <= 0:
            raise ValueError("lower bound violated")
        lower_rate = max(lower_rate, (t / (u * u)) * math.log(lower_amp * t ** (-d / 2.0) / p))
    upper_amp = 2.0 * max(p * t ** (d / 2.0) for t, p in diag_upper)
    gauss_rate, far_rate = math.inf, None
    for t, u, p in off_upper:
        log_ratio = math.log(upper_amp * t ** (-d / 2.0) / p)
        if u <= t:
            candidate = (t / (u * u)) * log_ratio
            if candidate <= 0:
                raise ValueError("upper fit failed: off-diagonal exceeds the diagonal cap")
            gauss_rate = min(gauss_rate, candidate)
        if u >= t:
            candidate = log_ratio / (u * max(1.0, math.log(u / t)))
            far_rate = candidate if far_rate is None else min(far_rate, candidate)
    if not math.isfinite(gauss_rate):
        gauss_rate = 1.0
    if far_rate is None:
        far_rate = max(1e-12, gauss_rate)
    elif far_rate <= 0:
        raise ValueError("upper fit failed: off-diagonal exceeds the diagonal cap")
    env = GaussianEnvelope(d, upper_amp, max(gauss_rate, 1e-12), max(far_rate, 1e-12),
                           lower_amp, max(lower_rate, 1e-12), threshold)
    for t, p in diag_lower:
        if p < _reference_lower(env, t, 0.0) * (1 - 1e-9):
            raise ValueError("fit violates its own lower data")
    for t, u, p in off_lower:
        if p < _reference_lower(env, t, u) * (1 - 1e-9):
            raise ValueError("fit violates its own lower data")
    for t, p in diag_upper:
        if p > _reference_upper(env, t, 0.0) * (1 + 1e-9):
            raise ValueError("fit violates its own upper data")
    for t, u, p in off_upper:
        if p > _reference_upper(env, t, u) * (1 + 1e-9):
            raise ValueError("fit violates its own upper data")
    return env


def _reference_verify(field, env, pairs, window, tol, kern):
    geo = field.geometry
    mu_min = float(kern.mu.min())
    slices = heat_slices(kern, pairs, tol)
    violations, checked, n_lower, n_upper = [], [], 0, 0
    for t, x in sorted((float(t), geo.wrap(x)) for t, x in pairs):
        s = slices[t, x]
        slack = s.trunc_error / mu_min + 1e-15
        n = resolve_threshold(env.threshold, x)
        for y in map(geo.coords, range(geo.n_vertices)):
            u = geo.torus_distance(x, y)
            if u > window * math.sqrt(t) or u >= geo.L / 2:
                continue
            p = float(s.hk[geo.index(y)])
            checked.append((t, u, p))
            if math.sqrt(t) >= n:
                n_upper += 1
                upper = _reference_upper(env, t, u)
                if p > upper + slack:
                    violations.append(Violation(t, x, y, u, p, upper, "upper",
                                                (p - upper) / upper if upper > 0 else math.inf))
            if t >= n * max(1.0, u):
                n_lower += 1
                lower = _reference_lower(env, t, u)
                if p < lower - slack:
                    violations.append(Violation(t, x, y, u, p, lower, "lower",
                                                (lower - p) / lower))
    return violations, checked, n_lower, n_upper


def _error_or(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from([CONSTANT, ELLIPTIC, EnvironmentSpec("iid", {"marginal": "lognormal",
                                                                        "sigma": 1.0})]),
       d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32),
       times=st.lists(st.sampled_from([1.0, 2.0, 3.0, 4.0, 8.0, 12.0]), min_size=1, max_size=3,
                      unique=True),
       sources=st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3),
                        min_size=1, max_size=3),
       thresholds=st.lists(st.sampled_from([1, 2, 3, None]), min_size=3, max_size=3),
       constant=st.booleans(), window=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
       scales=st.sampled_from([(1.0, 1.0), (0.5, 1.0), (1.0, 2.0), (0.05, 20.0)]))
def test_fit_and_verify_match_per_point_loops(spec, d, seed, times, sources, thresholds,
                                              constant, window, scales):
    geo = TorusGeometry(d, 12 if d == 2 else 8)
    field = sample_environment(spec, geo, seed)
    kern = jump_kernel(field)
    sources = [geo.wrap(x[:d]) for x in sources]
    if constant:
        threshold = thresholds[0] or 1.0
    else:  # the last source may repeat an earlier one; its entry wins, as in a dict
        threshold = dict(zip(sources, thresholds))
    table = heat_slices(kern, [(t, x) for t in times for x in sources], 1e-10)
    slices = [table[t, x] for t in times for x in sources]

    env = _error_or(fit_envelopes, slices, threshold, window)
    assert repr(env) == repr(_error_or(_reference_fit, slices, threshold, window,
                                       float(kern.mu.min())))
    if isinstance(env, str):
        return

    # (0.05, 20) puts the upper bound below the lower one: a point can miss both
    env = dataclasses.replace(env, upper_amp=env.upper_amp * scales[0],
                              lower_amp=env.lower_amp * scales[1])
    report = verify_bounds(env, slices, window)
    pairs = [(t, x) for t in times for x in sources]
    assert repr((report.violations, report.checked, report.n_lower_active,
                 report.n_upper_active)) == repr(_reference_verify(field, env, pairs, window,
                                                                   1e-10, kern))
