import math

import pytest

from rcmlab.chaining import (NearDiagonalRegime, build_chain,
                             chain_scale_threshold, chained_lower_bound,
                             harnack_constant, waypoint_multiplicity)
from rcmlab.environment import EnvironmentSpec, avg_norm, sample_environment
from rcmlab.kernel import heat_kernel
from rcmlab.lattice import TorusGeometry, l1_norm

CONSTANT = EnvironmentSpec("constant", {"level": 1.0})
ELLIPTIC = EnvironmentSpec("uniform-elliptic-iid", {"low": 0.5, "high": 2.0})


def test_build_chain_example_arithmetic():
    plan = build_chain((8, 0), 32.0)
    assert plan.D == 8 and plan.r == pytest.approx(4.0)
    assert 24 <= plan.k <= 32
    assert plan.r**2 / 16 - 1e-12 <= plan.s <= plan.r**2 / 12 + 1e-12
    assert 1.0 <= plan.s <= 4.0 / 3.0 + 1e-12
    assert plan.waypoints[0] == (0, 0) and plan.waypoints[-1] == (8, 0)
    assert plan.max_gap <= max(1.0, plan.r / 12)
    assert not plan.relaxed


def test_build_chain_gaps_and_endpoints():
    for x, t in [((8, 0), 32.0), ((0, 8), 32.0), ((16, 0), 128.0),
                 ((5, -7), 48.0), ((8, 0, 0), 64.0)]:
        plan = build_chain(x, t)
        assert plan.waypoints[0] == (0,) * len(x)
        assert plan.waypoints[-1] == tuple(x)
        gaps = [l1_norm(tuple(a - b for a, b in zip(w1, w2)))
                for w1, w2 in zip(plan.waypoints[1:], plan.waypoints[:-1])]
        assert max(gaps) == plan.max_gap
        assert sum(gaps) == plan.D
        assert plan.k >= 3
        assert 12 * plan.D / plan.r - 1e-9 <= plan.k <= 16 * plan.D / plan.r + 1e-9


def test_build_chain_axis_two_path():
    plan = build_chain((0, 8), 32.0)
    assert plan.corners[1] == (0, 0)  # first segment is empty
    assert all(w[0] == 0 for w in plan.waypoints)


def test_build_chain_near_diagonal_signal():
    with pytest.raises(NearDiagonalRegime, match="near-diagonal"):
        build_chain((2, 0), 64.0)
    with pytest.raises(ValueError, match="degenerate"):
        build_chain((0, 0), 8.0)
    with pytest.raises(ValueError):
        build_chain((8, 0), 4.0)  # t below |x|
    # boundary |x|^2 / t = 1/4 is still chainable, with k in [3, 4]
    plan = build_chain((4, 0), 64.0)
    assert 3 <= plan.k <= 4


def test_build_chain_relaxed_flag_in_granularity_band():
    # scales in (16, 24) cannot meet the fractional spacing with integer
    # gaps; the plan flags the relaxation and guarantees the maximal k
    plan = build_chain((32, 0), 640.0)  # r = 20
    assert plan.relaxed
    assert plan.max_gap == 2
    assert plan.k == math.floor(16 * 32 / 20)
    assert plan.waypoints[-1] == (32, 0)


def test_waypoint_multiplicity_bounded():
    values = []
    for x, t in [((8, 0), 32.0), ((16, 0), 64.0), ((32, 0), 128.0)]:
        values.append(waypoint_multiplicity(build_chain(x, t)))
    assert all(v <= 50 for v in values)


def test_harnack_constant_values():
    assert harnack_constant(0.5, 1.0) == pytest.approx(math.e)
    assert harnack_constant(4.0, 4.0) == pytest.approx(math.exp(16.0))
    base = harnack_constant(2.0, 3.0)
    assert harnack_constant(2.5, 3.0) >= base
    assert harnack_constant(2.0, 3.5) >= base
    with pytest.raises(ValueError):
        harnack_constant(1.0, 1.0, growth=0.0)
    with pytest.raises(ValueError):
        harnack_constant(1.0, 1.0, power=0.5)


def test_chain_scale_threshold_constant():
    geo = TorusGeometry(2, 64)
    field = sample_environment(CONSTANT, geo, 0)
    x_set = [(8, 0), (0, 8)]
    grid = [2, 4, 8]
    result = chain_scale_threshold(field, 2, 2, 1.0, budget=16.0,
                                   x_set=x_set, r_grid=grid)
    assert result.threshold == 2.0
    result_tight = chain_scale_threshold(field, 2, 2, 1.0, budget=15.0,
                                         x_set=x_set, r_grid=grid)
    assert result_tight.threshold is None  # exceeds grid: sum is exactly 16k
    result_elliptic = chain_scale_threshold(
        sample_environment(ELLIPTIC, geo, 3), 2, 2, 1.0, budget=64.0,
        x_set=x_set, r_grid=grid)
    assert result_elliptic.threshold == 2.0


def test_chained_lower_bound_constant_log_affine():
    geo = TorusGeometry(2, 64)
    field = sample_environment(CONSTANT, geo, 0)
    bound = chained_lower_bound(field, 32.0, (8, 0), amp=1.0)
    # identical per-step factors: log bound is affine in the segment count
    step = bound.step_logs[0]
    assert all(abs(s - step) < 1e-12 for s in bound.step_logs)
    mass = bound.mass_logs[0]
    assert all(abs(m - mass) < 1e-12 for m in bound.mass_logs)
    assert bound.log_value == pytest.approx(
        bound.plan.k * step + (bound.plan.k - 1) * mass)
    assert bound.mean_product_diag["holds"]


def test_chained_lower_bound_sound_after_calibration():
    geo = TorusGeometry(2, 64)
    field = sample_environment(CONSTANT, geo, 0)
    t, x = 32.0, (8, 0)
    bound = chained_lower_bound(field, t, x)
    assert bound.steps_valid
    true_slice = heat_kernel(field, t, (0, 0), tol=1e-12)
    true_value = float(true_slice.hk[geo.index(x)])
    assert bound.log_value <= math.log(true_value)
    assert bound.mean_product_diag["holds"]


def test_chained_lower_bound_requires_unit_step():
    geo = TorusGeometry(2, 64)
    field = sample_environment(CONSTANT, geo, 0)
    with pytest.raises(ValueError, match="step below one"):
        chained_lower_bound(field, 12.0, (8, 0), amp=1.0)  # r = 1.5, s < 1


def test_calibration_makes_every_step_hold_over_all_member_pairs():
    # r = 64 gives chain balls B(z_j, 4/3) of five members between the
    # pinned endpoints; every member pair of consecutive balls must satisfy
    # p(s, y, y') >= amp s^(-d/2) / C_j, C_j the largest constant on B_j
    geo = TorusGeometry(2, 32)
    field = sample_environment(ELLIPTIC, geo, 8)
    t, x = 1024.0, (16, 0)
    bound = chained_lower_bound(field, t, x)
    plan, amp = bound.plan, bound.constants["amp"]
    balls = [[(0, 0)]] + [[geo.coords(i) for i in geo.ball_indices(z, plan.r / 48)]
                          for z in plan.waypoints[1:-1]] + [[x]]
    assert [len(b) for b in balls] == [1, 5, 5, 5, 1]
    for j in range(plan.k):
        c = max(harnack_constant(avg_norm(field, "mu", 2.0, ball), avg_norm(field, "nu", 2.0, ball))
                for ball in (geo.ball_indices(y, math.sqrt(plan.s)) for y in balls[j]))
        factor = amp / c * plan.s ** (-geo.d / 2.0)
        for y in balls[j]:
            hk = heat_kernel(field, plan.s, y, tol=1e-12).hk
            for y2 in balls[j + 1]:
                assert hk[geo.index(y2)] >= factor * (1 - 1e-9)
    assert bound.steps_valid
