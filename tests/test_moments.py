import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcmlab.environment import EnvironmentSpec, mu, sample_environment
from rcmlab.fitting import fit_theta, loglog_slope
from rcmlab.lattice import HyperRectangle, TorusGeometry
import rcmlab.environment
from rcmlab.moments import (_log_mean, _monte_carlo_power_mean, annealed_power_mean,
                            association_check, builtin_test_pairs, default_rectangles,
                            mixing_decay, n1_tail, rectangle_ladder, rectangle_sum_moment)
from rcmlab.seeding import child_seed, rng_for
from test_acceptance import MEAN_MU2, MEAN_NU2

CONSTANT = EnvironmentSpec("constant", {"level": 1.0})
ELLIPTIC = EnvironmentSpec("uniform-elliptic-iid", {"low": 0.5, "high": 2.0})
IID_UNIFORM = EnvironmentSpec("iid", {"marginal": "uniform", "low": 0.5, "high": 2.0})
FINITE_RANGE = EnvironmentSpec("finite-range", {"range": 3})


def test_centering_has_zero_mean():
    geo = TorusGeometry(2, 8)
    mean = annealed_power_mean(IID_UNIFORM, geo, {"mu": 2}, n_fields=64, seed=5)["mu"]
    vals = [mu(sample_environment(IID_UNIFORM, geo, child_seed(5, 0, i)), (0, 0)) ** 2 - mean
            for i in range(600)]
    arr = np.asarray(vals)
    stderr = arr.std(ddof=1) / math.sqrt(len(arr))
    assert abs(arr.mean()) <= 3 * stderr


def test_rectangle_sum_moment_constant_is_zero():
    geo = TorusGeometry(2, 16)
    rect = HyperRectangle((0, 0), 1, 3, 1)
    (est,) = rectangle_sum_moment(CONSTANT, geo, "mu", 2, 2.0, [rect], 50, 3)
    assert est.value == 0.0 and est.stderr == 0.0


def test_rectangle_sum_moment_single_vertex_variance_oracle():
    geo = TorusGeometry(2, 8)
    rect = HyperRectangle((0, 0), 1, 0, 0)
    (est,) = rectangle_sum_moment(IID_UNIFORM, geo, "mu", 1, 2.0, [rect], 800, 17)
    # independent oracle: plain Monte Carlo variance of mu(0) over replicas
    vals = np.asarray([mu(sample_environment(IID_UNIFORM, geo, child_seed(555, 0, i)), (0, 0))
                       for i in range(800)])
    oracle = vals.var(ddof=1)
    assert abs(est.value - oracle) <= 3 * math.sqrt(est.stderr**2 + 2 * oracle**2 / 800)


def test_rectangle_sum_moment_doubling_ratio():
    geo = TorusGeometry(2, 32)
    small = HyperRectangle((0, 0), 1, 7, 1)  # 24 vertices
    big = HyperRectangle((0, 0), 1, 15, 1)  # 48 vertices
    mean = annealed_power_mean(IID_UNIFORM, geo, {"mu": 1}, n_fields=256, seed=2)["mu"]
    est_small, est_big = rectangle_sum_moment(IID_UNIFORM, geo, "mu", 1, 2.0, [small, big],
                                              1200, 2, mean_value=mean)
    ratio = est_big.value / est_small.value
    assert 1.5 <= ratio <= 2.6


def test_rectangle_too_large_rejected():
    geo = TorusGeometry(2, 8)
    with pytest.raises(ValueError, match="too small"):
        rectangle_sum_moment(CONSTANT, geo, "mu", 1, 2.0,
                             [HyperRectangle((0, 0), 1, 9, 1)], 10, 0)


def test_heavy_tail_overflow_reports_sample():
    geo = TorusGeometry(2, 8)
    heavy = EnvironmentSpec("iid", {"marginal": "heavy-tail-zero", "delta": 0.01})
    rect = HyperRectangle((0, 0), 1, 3, 1)
    with pytest.raises(ValueError, match="smaller exponent"):
        rectangle_sum_moment(heavy, geo, "nu", 40.0, 8.0, [rect], 50, 0,
                             mean_value=1.0)


def test_log_mean_beyond_float_range_reports_overflow():
    assert _log_mean([800.0, 0.0]) == math.inf
    assert _log_mean([math.log(2.0), -math.inf]) == pytest.approx(1.0)
    geo = TorusGeometry(2, 4)
    heavy = EnvironmentSpec("iid", {"marginal": "heavy-tail-zero", "delta": 4})
    rect = HyperRectangle((0, 0), 1, 1, 0)
    for p in range(150, 251, 10):
        # E nu^p is infinite for p >= delta; centre on the Monte Carlo mean
        # the rectangle moment used before the infinite mean was detected
        mean = _monte_carlo_power_mean(heavy, geo, {"nu": float(p)}, 128, 0)["nu"].value
        with pytest.raises(ValueError, match="overflow in moment accumulation"):
            rectangle_sum_moment(heavy, geo, "nu", float(p), 2.0, [rect], 40, 0,
                                 mean_value=mean)


def test_overflow_at_replica_zero_precedes_a_later_zero_weight(monkeypatch):
    geo = TorusGeometry(2, 8)
    heavy = EnvironmentSpec("iid", {"marginal": "heavy-tail-zero", "delta": 0.01})
    rect = HyperRectangle((0, 0), 1, 3, 1)
    # replica 39 of seed 0's main stream has a zero weight, in replica 0's chunk
    with pytest.raises(ValueError, match="positive and finite"):
        sample_environment(heavy, geo, child_seed(0, 0, 39))
    assert 50 * geo.n_edges * 8 <= rcmlab.environment._CHUNK_BYTES
    with pytest.raises(ValueError, match="overflow at sample 0;"):
        rectangle_sum_moment(heavy, geo, "nu", 40.0, 8.0, [rect], 50, 0, mean_value=1.0)
    # with no overflow before it, the zero weight itself is reported
    with pytest.raises(ValueError, match="positive and finite"):
        rectangle_sum_moment(heavy, geo, "mu", 1.0, 2.0, [rect], 50, 0, mean_value=1.0)

    # an overflow past the first chunk names its global replica index
    milder = EnvironmentSpec("iid", {"marginal": "heavy-tail-zero", "delta": 0.1})
    for chunk_bytes in (1, rcmlab.environment._CHUNK_BYTES):
        monkeypatch.setattr(rcmlab.environment, "_CHUNK_BYTES", chunk_bytes)
        with pytest.raises(ValueError, match="overflow at sample 2;"):
            rectangle_sum_moment(milder, geo, "nu", 20.0, 2.0, [rect], 50, 1, mean_value=1.0)


def _start_state(rng):
    """A generator's PCG64 state before its first draw: one per stream."""
    return rng.bit_generator.state["state"]["state"]


def _recorded_ladder_states(monkeypatch, spec, quantity, p):
    """The start state of every generator one ladder's sampling draws from."""
    states = []
    real = rcmlab.environment._sample_values

    def recording(spec, geometry, rngs):
        states.extend(_start_state(rng) for rng in rngs)
        return real(spec, geometry, rngs)

    with monkeypatch.context() as patch:
        patch.setattr(rcmlab.environment, "_sample_values", recording)
        rectangle_ladder(spec, TorusGeometry(2, 16), quantity, p, 2.0,
                         default_rectangles([(1, 0), (3, 1), (5, 2), (7, 3)]), 30, 5,
                         mean_samples=8)
    return states


def test_ladder_samples_each_field_once(monkeypatch):
    # a Monte Carlo mean: finite-range at p = 2 takes the 8 pilot replicas
    states = _recorded_ladder_states(monkeypatch, FINITE_RANGE, "mu", 2)
    assert len(states) == len(set(states)) == 30 + 8

    geo = TorusGeometry(2, 16)
    rects = default_rectangles([(1, 0), (3, 1), (5, 2), (7, 3)])
    joint = rectangle_sum_moment(FINITE_RANGE, geo, "mu", 2, 2.0, rects, 30, 5,
                                 mean_samples=8)
    for rect, est in zip(rects, joint):
        (alone,) = rectangle_sum_moment(FINITE_RANGE, geo, "mu", 2, 2.0, [rect], 30, 5,
                                        mean_samples=8)
        assert est == alone


@pytest.mark.parametrize("spec, quantity", [
    (FINITE_RANGE, "mu"),
    (EnvironmentSpec("finite-range", {"range": 3, "link": "exp"}), "mu"),
    (EnvironmentSpec("na-permutation", {"block": 4}), "mu"),
    (EnvironmentSpec("na-permutation", {"block": 4}), "nu"),
], ids=["finite-range-affine", "finite-range-exp", "na-permutation-mu", "na-permutation-nu"])
def test_exact_p1_ladder_draws_only_its_main_fields(monkeypatch, spec, quantity):
    states = _recorded_ladder_states(monkeypatch, spec, quantity, 1)
    assert len(states) == len(set(states)) == 30
    assert set(states) == {_start_state(rng_for(child_seed(5, 0, i))) for i in range(30)}


def test_fit_theta_exact_ladder():
    sizes = [10, 30, 100, 300, 1000]
    fit = fit_theta(sizes, [float(s) for s in sizes], [0.0] * 5)
    assert fit.slope == pytest.approx(1.0)
    assert fit.ci_high - fit.ci_low == pytest.approx(0.0, abs=1e-12)
    quad = fit_theta(sizes, [float(s) ** 2 for s in sizes])
    assert quad.slope == pytest.approx(2.0)


def test_fit_theta_validation():
    with pytest.raises(ValueError, match="four"):
        fit_theta([10, 100, 1000], [1, 2, 3])
    with pytest.raises(ValueError, match="decade"):
        fit_theta([10, 20, 30, 40], [1, 2, 3, 4])
    with pytest.raises(ValueError, match="positive"):
        fit_theta([10, 30, 100, 1000], [1.0, -2.0, 3.0, 4.0])


def test_iid_ladder_theta_near_one():
    geo = TorusGeometry(2, 64)
    rects = default_rectangles([(4, 1), (6, 2), (10, 3), (16, 4), (24, 6), (32, 8)])
    report = rectangle_ladder(IID_UNIFORM, geo, "mu", 1, 2.0, rects, 600, 9,
                              mean_samples=256)
    assert abs(report.theta.slope - 1.0) <= 0.15
    assert report.implied_zeta == pytest.approx(2.0 - report.theta.slope)


def test_finite_range_eta_four_theta_near_two():
    geo = TorusGeometry(2, 64)
    spec = EnvironmentSpec("finite-range", {"range": 3})
    rects = default_rectangles([(4, 1), (6, 2), (10, 3), (16, 4), (24, 6), (32, 8)])
    report = rectangle_ladder(spec, geo, "mu", 1, 4.0, rects, 1200, 4,
                              mean_samples=256)
    assert abs(report.theta.slope - 2.0) <= 0.2
    # literal boundedness of the scaled estimates across the ladder
    scaled = [e / s**2 for e, s in zip(report.estimates, report.sizes)]
    assert max(scaled) / min(scaled) <= 4.0


def test_n1_tail_constant_field():
    geo = TorusGeometry(2, 16)
    report = n1_tail(CONSTANT, geo, 2, 2, 20, [1, 2, 4], 0,
                     mean_mu_p=16.0, mean_nu_q=16.0)
    assert report.survival == [0.0, 0.0, 0.0]


def test_n1_tail_elliptic_decay():
    geo = TorusGeometry(2, 64)
    report = n1_tail(ELLIPTIC, geo, 8, 8, 1000, [1, 2, 4, 8, 16], 12345)
    surv = report.survival
    assert all(a >= b for a, b in zip(surv, surv[1:]))  # monotone event
    # decay: survival at 16 at least a factor five below survival at 2
    assert surv[1] >= 5 * max(surv[4], 1.0 / report.n_samples)
    # and an order of magnitude across the window
    assert surv[0] >= 10 * max(surv[4], 1.0 / (2 * report.n_samples))


def test_association_gaussian_fkg_passes():
    geo = TorusGeometry(2, 8)
    spec = EnvironmentSpec("gaussian-fkg", {"mass": 1.0})
    results = association_check(spec, geo, n_samples=3000, seed=7)
    assert results and all(r.passed for r in results)
    assert all(r.expectation == "nonnegative" for r in results)
    var_pair = [r for r in results if "variance" in r.name]
    assert var_pair and var_pair[0].cov > 0


def test_association_na_permutation_passes():
    geo = TorusGeometry(2, 8)
    spec = EnvironmentSpec("na-permutation", {"block": 4})
    results = association_check(spec, geo, n_samples=3000, seed=8)
    assert results and all(r.passed for r in results)
    assert all(r.expectation == "nonpositive" for r in results)


def test_association_iid_checks_both_sides():
    geo = TorusGeometry(2, 8)
    results = association_check(IID_UNIFORM, geo, n_samples=2000, seed=9)
    sides = {r.name.split(":")[0] for r in results}
    assert sides == {"fkg", "na"}
    assert all(r.passed for r in results)


def test_builtin_pairs_disjoint_for_na():
    geo = TorusGeometry(2, 8)
    pairs = builtin_test_pairs(geo)
    for _, f, g in pairs["na"]:
        assert not set(f.edge_ids) & set(g.edge_ids)


def test_mixing_iid_zero_beyond_one():
    geo = TorusGeometry(2, 16)
    report = mixing_decay(IID_UNIFORM, geo, [2, 3, 5], 2500, 3)
    for cov, err in zip(report.cov, report.stderr):
        assert abs(cov) <= 4 * err


def test_mixing_finite_range_zero_beyond_range():
    geo = TorusGeometry(2, 16)
    spec = EnvironmentSpec("finite-range", {"range": 3})
    report = mixing_decay(spec, geo, [5, 7], 2500, 5)
    for cov, err in zip(report.cov, report.stderr):
        assert abs(cov) <= 4 * err


def test_mixing_gaussian_decays():
    geo = TorusGeometry(2, 16)
    spec = EnvironmentSpec("gaussian-fkg", {"mass": 1.0})
    report = mixing_decay(spec, geo, [1, 2, 4], 6000, 11)
    assert report.cov[0] > 0
    assert report.cov[0] > report.cov[1] > report.cov[2] - 4 * report.stderr[2]
    assert report.slope is None or report.slope.slope < 0


def test_loglog_slope_positive_inputs_required():
    with pytest.raises(ValueError):
        loglog_slope([1.0, 2.0], [1.0, -1.0])


def test_loglog_slope_interval_contains_the_point_with_zero_stderrs():
    # the mixing fit's three covariances, where polyfit and the closed form
    # both give -2.4608061908153225; on every random fit below the two differ
    # in the last bits, and the interval must still hold the point
    report = mixing_decay(EnvironmentSpec("gaussian-fkg", {"mass": 1.0}), TorusGeometry(2, 16),
                          [1, 2, 4], 2000, 11)
    fits = [report.slope]
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 5) * 10:
        xs = np.sort(rng.uniform(1.0, 100.0, n))
        fits.append(loglog_slope(xs, rng.uniform(0.1, 10.0, n), [0.0] * n, n_boot=50))
    for fit in fits:
        assert fit.ci_low <= fit.slope <= fit.ci_high
        assert fit.ci_high - fit.ci_low <= 1e-12 * (1.0 + abs(fit.slope))


def _loop_bootstrap_interval(xs, ys, stderrs, n_boot, seed):
    """The per-draw polyfit loop the vectorized bootstrap replaced."""
    lx = np.log(xs)
    rng = rng_for(seed, 77)
    slopes = np.empty(n_boot)
    for b in range(n_boot):
        perturbed = np.maximum(ys + stderrs * rng.standard_normal(ys.size), 1e-12 * ys)
        slopes[b] = np.polyfit(lx, np.log(perturbed), 1)[0]
    return np.percentile(slopes, [2.5, 97.5])


@pytest.mark.parametrize("seed", range(6))
def test_loglog_slope_bootstrap_matches_per_draw_polyfit(seed):
    # same draws in the same order; the closed-form slope differs from
    # polyfit's least squares only by float64 rounding
    rng = np.random.default_rng(seed)
    n = 3 + seed
    xs = np.sort(rng.uniform(1.0, 10.0, n)) * 2.0 ** np.arange(n)
    ys = xs ** rng.uniform(-2.0, 2.0) * np.exp(rng.normal(0.0, 0.1, n))
    stderrs = ys * rng.uniform(0.0, 0.5, n)  # large enough to hit the floor
    fit = loglog_slope(xs, ys, stderrs, n_boot=300, seed=seed)
    expected = _loop_bootstrap_interval(xs, ys, stderrs, 300, seed)
    assert np.allclose([fit.ci_low, fit.ci_high], expected, rtol=1e-10, atol=1e-12)
    assert (fit.slope, fit.intercept) == tuple(np.polyfit(np.log(xs), np.log(ys), 1))


STACKED_SPECS = [
    CONSTANT,
    ELLIPTIC,
    IID_UNIFORM,
    EnvironmentSpec("iid", {"marginal": "lognormal", "sigma": 1.0}),
    EnvironmentSpec("iid", {"marginal": "heavy-tail-zero", "delta": 0.5}),
    EnvironmentSpec("finite-range", {"range": 3}),
    EnvironmentSpec("finite-range", {"range": 3, "link": "exp", "scale": 2.0}),
    EnvironmentSpec("gaussian-fkg", {"mass": 0.5, "scale": 0.7}),
    EnvironmentSpec("na-permutation", {"block": 2}),
]


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(STACKED_SPECS), d=st.sampled_from([2, 3]),
       seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
       seed=st.integers(0, 2**32))
def test_stacked_draws_match_single_fields_at_any_chunk_size(spec, d, seeds, seed):
    geo = TorusGeometry(d, 8 if d == 2 else 6)
    stacked = rcmlab.environment._sample_values(spec, geo, [rng_for(s) for s in seeds])
    assert stacked.shape == (len(seeds), geo.n_vertices, d)
    for row, field_seed in zip(stacked, seeds):
        assert row.tobytes() == sample_environment(spec, geo, field_seed).values.tobytes()

    rects = [HyperRectangle((0,) * d, 1, 2, 1), HyperRectangle((1,) * d, d, 4, 2)]
    results = []
    # one replica per chunk, then every replica in one chunk
    for chunk_bytes in (1, 1 << 40):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rcmlab.environment, "_CHUNK_BYTES", chunk_bytes)
            results.append(repr((
                _monte_carlo_power_mean(spec, geo, {"mu": 2.0, "nu": 1.5}, 5, seed),
                rectangle_sum_moment(spec, geo, "nu", 1.0, 2.0, rects, 5, seed, mean_value=1.0),
                association_check(spec, geo, n_samples=6, seed=seed),
                mixing_decay(spec, geo, [1, 2], 6, seed),
            )))
    assert results[0] == results[1]


def _gather_sum(geo, weights):
    """Per-field mu or nu through the neighbor table: the forward columns,
    then one gather per backward neighbor."""
    table = geo.neighbor_table()
    total = weights[:, 0]
    for a in range(1, geo.d):
        total = total + weights[:, a]
    for a in range(geo.d):
        total = total + weights[table[:, geo.d + a], a]
    return total


def _reference_power_mean(spec, geo, powers, n_fields, seed):
    """The annealed means from a field-by-field loop over the pilot stream."""
    totals = dict.fromkeys(powers, 0.0)
    for i in range(n_fields):
        weights = sample_environment(spec, geo, child_seed(seed, 1, i)).values
        for quantity, p in powers.items():
            vec = _gather_sum(geo, weights if quantity == "mu" else 1.0 / weights)
            totals[quantity] += float(np.mean(vec**p))
    return {quantity: total / n_fields for quantity, total in totals.items()}


def _reference_rectangle_moment(spec, geo, quantity, p, eta, rects, n_samples, seed,
                                mean_value):
    """(value, stderr) per rectangle from a field-by-field loop over the main stream."""
    logs = np.empty((len(rects), n_samples))
    for i in range(n_samples):
        weights = sample_environment(spec, geo, child_seed(seed, 0, i)).values
        vec = _gather_sum(geo, weights if quantity == "mu" else 1.0 / weights)
        for j, rect in enumerate(rects):
            idx = [geo.index(v) for v in rect.vertex_array()]
            total = float((vec[idx] ** p).sum()) - len(idx) * mean_value
            logs[j, i] = eta * math.log(abs(total)) if total != 0.0 else -math.inf
    out = []
    for row in logs:
        value, second = _log_mean(row), _log_mean(2.0 * row)
        out.append((value, math.sqrt(max(0.0, second - value * value) / n_samples)))
    return out


@pytest.mark.parametrize("chunk_bytes", [1, 1 << 40], ids=["one-replica", "whole"])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("spec", STACKED_SPECS, ids=lambda spec: spec.canonical_json())
def test_pilot_and_ladder_passes_match_per_field_gather_loop(monkeypatch, spec, d,
                                                             chunk_bytes):
    monkeypatch.setattr(rcmlab.environment, "_CHUNK_BYTES", chunk_bytes)
    geo = TorusGeometry(d, 8 if d == 2 else 6)
    powers = {"nu": 1.5, "mu": 2.0}
    estimates = _monte_carlo_power_mean(spec, geo, powers, 6, 3)
    assert ({quantity: est.value for quantity, est in estimates.items()}
            == _reference_power_mean(spec, geo, powers, 6, 3))
    rects = [HyperRectangle((0,) * d, 1, 1, 0), HyperRectangle((1,) * d, d, 4, 2)]
    for quantity in ("mu", "nu"):
        mean = _reference_power_mean(spec, geo, {quantity: 1.5}, 4, 5)[quantity]
        ests = rectangle_sum_moment(spec, geo, quantity, 1.5, 2.0, rects, 5, 5,
                                    mean_value=mean)
        assert ([(est.value, est.stderr) for est in ests]
                == _reference_rectangle_moment(spec, geo, quantity, 1.5, 2.0, rects, 5, 5,
                                               mean))


@pytest.mark.parametrize("chunk_bytes", [1, 1 << 40], ids=["one-replica", "whole"])
def test_pilot_overflow_names_replica_then_quantity(monkeypatch, chunk_bytes):
    geo = TorusGeometry(2, 8)

    def planted(tiny_at, huge_at):
        # nu^2 overflows where one weight is 1e-200, mu^2 where one is 1e200
        replica_of = {_start_state(rng_for(child_seed(0, 1, i))): i for i in range(8)}

        def sample(spec, geometry, rngs):
            values = np.ones((len(rngs), geometry.n_vertices, geometry.d))
            for k, rng in enumerate(rngs):
                i = replica_of[_start_state(rng)]
                values[k, 5, 1] = {tiny_at: 1e-200, huge_at: 1e200}.get(i, 1.0)
            return values
        return sample

    monkeypatch.setattr(rcmlab.environment, "_CHUNK_BYTES", chunk_bytes)
    powers = {"mu": 2.0, "nu": 2.0}
    # finite-range has no closed form at p = 2, so its means come from the pilot pass
    for tiny_at, huge_at, message in ((2, 5, "nu power mean at replica 2"),
                                      (5, 2, "mu power mean at replica 2")):
        monkeypatch.setattr(rcmlab.environment, "_sample_values", planted(tiny_at, huge_at))
        with np.errstate(over="ignore", divide="ignore"):
            with pytest.raises(ValueError, match=f"^non-finite {message}$"):
                annealed_power_mean(FINITE_RANGE, geo, powers, n_fields=8, seed=0)


# ---------------------------------------------------------------------------
# exact annealed means against the Monte Carlo oracle

_bounds = st.floats(0.2, 3.0)
CLOSED_FORM_SPECS = st.one_of(
    st.builds(lambda level: EnvironmentSpec("constant", {"level": level}), _bounds),
    st.builds(lambda a, b: EnvironmentSpec("uniform-elliptic-iid",
                                           {"low": min(a, b), "high": max(a, b)}),
              _bounds, _bounds),
    st.builds(lambda a, b: EnvironmentSpec("iid", {"marginal": "uniform",
                                                   "low": min(a, b), "high": max(a, b)}),
              _bounds, _bounds),
    st.builds(lambda sigma: EnvironmentSpec("iid", {"marginal": "lognormal", "sigma": sigma}),
              st.floats(0.1, 0.5)),
    # delta > 2 q keeps nu^q's variance, and so the oracle's stderr, finite
    st.builds(lambda delta: EnvironmentSpec("iid", {"marginal": "heavy-tail-zero",
                                                    "delta": delta}),
              st.floats(6.5, 12.0)),
    st.builds(lambda mass, scale: EnvironmentSpec("gaussian-fkg",
                                                  {"mass": mass, "scale": scale}),
              st.floats(0.7, 2.0), st.floats(0.2, 0.6)),
    # exact at exponent one only (EXACT_AT_ONE); ranges and blocks fit both tori
    st.builds(lambda range_, a, b: EnvironmentSpec("finite-range", {
        "range": range_, "low": min(a, b), "high": max(a, b)}),
        st.integers(1, 3), _bounds, _bounds),
    st.builds(lambda range_, scale: EnvironmentSpec("finite-range", {
        "range": range_, "link": "exp", "scale": scale}),
        st.integers(1, 3), st.floats(0.2, 3.0)),
    st.builds(lambda block, low, gap: EnvironmentSpec("na-permutation", {
        "block": block, "low": low, "high": low + gap}),
        st.sampled_from([1, 2]), _bounds, _bounds),
)
# the quantities these families have in closed form, each at exponent one
EXACT_AT_ONE = {"finite-range": ("mu",), "na-permutation": ("mu", "nu")}


@settings(max_examples=70, deadline=None, derandomize=True)
@given(spec=CLOSED_FORM_SPECS, d=st.sampled_from([2, 3]), p=st.sampled_from([1, 2, 3]),
       q=st.sampled_from([1, 2, 3]))
def test_exact_means_agree_with_the_monte_carlo_oracle(spec, d, p, q):
    geo = TorusGeometry(d, 8 if d == 2 else 6)
    powers = {"mu": p, "nu": q}
    if spec.kind in EXACT_AT_ONE:
        powers = dict.fromkeys(EXACT_AT_ONE[spec.kind], 1)
    exact = annealed_power_mean(spec, geo, powers, n_fields=2, seed=0)
    oracle = _monte_carlo_power_mean(spec, geo, powers, 300, 17)
    for quantity, est in oracle.items():
        # the constant field's oracle has zero stderr and rounds differently
        assert abs(exact[quantity] - est.value) <= (4 * est.stderr
                                                    + 1e-12 * est.value), (quantity, est)


@pytest.mark.parametrize("scale", [5e-324, 1.0, 2.0], ids=["scale-min", "scale-1", "scale-2"])
@pytest.mark.parametrize("range_", [1, 3, 5])
@pytest.mark.parametrize("link", ["affine", "exp"])
def test_finite_range_mean_agrees_with_the_monte_carlo_oracle(link, range_, scale):
    # the spec refuses scale 0; at the least positive scale h underflows to 0
    spec = EnvironmentSpec("finite-range", {"range": range_, "link": link, "scale": scale})
    geo = TorusGeometry(2, 10)
    exact = annealed_power_mean(spec, geo, {"mu": 1.0}, n_fields=2)["mu"]
    oracle = _monte_carlo_power_mean(spec, geo, {"mu": 1}, 200, 23)["mu"]
    assert abs(exact - oracle.value) <= 4 * oracle.stderr + 1e-12 * oracle.value
    m = {1: 1, 3: 5, 5: 13}[range_]  # sites in the l1 window of radius (range - 1) // 2
    h = scale / (2 * m)
    expected = 5.0 if link == "affine" else 4.0 if h == 0 else 4 * (math.sinh(h) / h) ** m
    assert exact == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("d, L, block", [(2, 8, 1), (2, 8, 4), (3, 6, 3)])
@pytest.mark.parametrize("low, high", [(0.5, 2.0), (0.1, 7.0)])
def test_permutation_means_agree_with_every_replica(d, L, block, low, high):
    # every replica holds each level equally often, so its spatial mean is exact
    spec = EnvironmentSpec("na-permutation", {"block": block, "low": low, "high": high})
    geo = TorusGeometry(d, L)
    exact = annealed_power_mean(spec, geo, {"mu": 1, "nu": 1.0}, n_fields=2)
    oracle = _monte_carlo_power_mean(spec, geo, {"mu": 1, "nu": 1}, 16, 29)
    for quantity, est in oracle.items():
        assert exact[quantity] == pytest.approx(est.value, rel=1e-12, abs=0)
        assert est.stderr <= 1e-12 * est.value


def test_permutation_mean_equals_the_pilot_mean_bit_for_bit():
    # the sampler-ensemble ladder's family: its centring mean, and so its
    # ladder, is the one the pilot pass gave
    spec = EnvironmentSpec("na-permutation", {"block": 4})
    geo = TorusGeometry(2, 64)
    pilot = _monte_carlo_power_mean(spec, geo, {"mu": 1}, 32, 3)["mu"].value
    assert annealed_power_mean(spec, geo, {"mu": 1})["mu"] == pilot == 5.0


def test_exact_p1_means_refuse_what_the_sampler_refuses():
    for spec, geo, message in [
            (EnvironmentSpec("finite-range", {"range": 5}), TorusGeometry(2, 8), "too small"),
            (EnvironmentSpec("finite-range", {"range": 3, "link": "exp"}), TorusGeometry(3, 4),
             "too small"),
            (EnvironmentSpec("na-permutation", {"block": 3}), TorusGeometry(2, 8), "divide")]:
        with pytest.raises(ValueError, match=message):
            sample_environment(spec, geo, 0)
        with pytest.raises(ValueError, match=message):
            annealed_power_mean(spec, geo, {"mu": 1})


def test_exact_means_pin_known_values():
    elliptic = annealed_power_mean(ELLIPTIC, TorusGeometry(2, 128), {"mu": 2.0, "nu": 2.0})
    assert elliptic["mu"] == pytest.approx(MEAN_MU2, rel=1e-12, abs=0)
    assert elliptic["nu"] == pytest.approx(MEAN_NU2, rel=1e-12, abs=0)
    gaussian = annealed_power_mean(EnvironmentSpec("gaussian-fkg", {"mass": 1.0, "scale": 1.0}),
                                   TorusGeometry(2, 32), {"mu": 2, "nu": 2})
    assert round(gaussian["mu"], 3) == round(gaussian["nu"], 3) == 49.128


def test_exact_means_draw_no_field_and_keep_the_sample_check(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("a closed-form mean sampled a field")

    monkeypatch.setattr(rcmlab.environment, "_sample_values", no_sampling)
    geo = TorusGeometry(2, 8)
    for spec in (CONSTANT, ELLIPTIC, EnvironmentSpec("gaussian-fkg", {"mass": 1.0})):
        annealed_power_mean(spec, geo, {"mu": 2.0, "nu": 3}, n_fields=2)
        with pytest.raises(ValueError, match="two samples"):
            annealed_power_mean(spec, geo, {"mu": 2.0}, n_fields=1)
    for spec in (FINITE_RANGE, EnvironmentSpec("na-permutation", {"block": 2})):
        annealed_power_mean(spec, geo, dict.fromkeys(EXACT_AT_ONE[spec.kind], 1), n_fields=2)
        with pytest.raises(ValueError, match="two samples"):
            annealed_power_mean(spec, geo, {"mu": 2.0}, n_fields=1)


def test_infinite_and_unrepresentable_means_raise():
    geo = TorusGeometry(2, 8)
    for delta, q in ((0.5, 2.0), (2.0, 2), (0.5, 1.5)):
        heavy = EnvironmentSpec("iid", {"marginal": "heavy-tail-zero", "delta": delta})
        with pytest.raises(ValueError, match=rf"^E nu\(0\)\^{q:g} is infinite"):
            annealed_power_mean(heavy, geo, {"mu": 1, "nu": q})
    # every E mu^p of these weights, at most 1, is finite
    heavy = EnvironmentSpec("iid", {"marginal": "heavy-tail-zero", "delta": 0.5})
    assert annealed_power_mean(heavy, geo, {"mu": 2})["mu"] == pytest.approx(
        4 * 0.5 / 2.5 + 12 * (0.5 / 1.5) ** 2)
    with pytest.raises(ValueError, match=r"^E mu\(0\)\^600 is beyond float range$"):
        annealed_power_mean(CONSTANT, geo, {"mu": 600})
