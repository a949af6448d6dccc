import dataclasses
import math

import numpy as np
import pytest

from rcmlab.envelopes import (GaussianEnvelope, fit_envelopes, stability_radius,
                              verify_bounds)
from rcmlab.environment import (ConductanceField, EnvironmentSpec,
                                sample_environment)
from rcmlab.kernel import HeatKernelSlice, heat_kernel, jump_kernel
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


def _slice(geo, t, source, hk_values):
    hk = np.asarray(hk_values, dtype=float)
    return HeatKernelSlice(t=t, source=source, prob=hk.copy(), hk=hk,
                           trunc_error=0.0, wrap_error=0.0, geometry=geo)


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

    grid = [(t, (0, 0), geo.coords(i)) for t in times
            for i in geo.ball_indices((0, 0), 2 * math.sqrt(t) + 1e-9)]
    report = verify_bounds(field, env, grid, kernel=kern)
    assert not report.violations
    assert report.n_checked == len(grid)

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
    grid = [(8.0, (0, 0), (0, 0)), (16.0, (0, 0), (0, 0)), (8.0, (0, 0), (1, 0))]
    report = verify_bounds(field, broken, grid, kernel=kern)
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
    grid = [(t, (0, 0), geo.coords(i)) for t in times
            for i in geo.ball_indices((0, 0), 2 * math.sqrt(t) + 1e-9)]
    report = verify_bounds(ver_field, env_v, grid)
    # cross-field generalization: almost no violations, none beyond 5 percent
    assert len(report.violations) <= 0.01 * report.n_checked + 3
    assert report.count_beyond(0.10) == 0
