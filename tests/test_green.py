import dataclasses
import functools
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rcmlab.green
import rcmlab.kernel
from rcmlab.envelopes import fit_envelopes
from rcmlab.environment import ConductanceField, EnvironmentSpec, sample_environment
from rcmlab.green import (_head_integral, _head_weights, annealed_green, green_cutoff_radius,
                          green_decomposition, green_kernel,
                          quenched_bound_check, srw_green)
from rcmlab.kernel import heat_kernel, jump_kernel, point_mass, propagate
from rcmlab.lattice import TorusGeometry
from rcmlab.poisson import chernoff_check, poisson_tail
from rcmlab.seeding import child_seed

CONSTANT = EnvironmentSpec("constant", {"level": 1.0})
ELLIPTIC = EnvironmentSpec("uniform-elliptic-iid", {"low": 0.5, "high": 2.0})


def constant_setup(L=32):
    geo = TorusGeometry(3, L)
    field = sample_environment(CONSTANT, geo, 0)
    kern = jump_kernel(field)
    slices = [heat_kernel(field, t, (0, 0, 0), tol=1e-12, kernel=kern)
              for t in (8.0, 16.0, 32.0)]
    env = fit_envelopes(slices, lower_threshold=1.0, window=2.0)
    return geo, field, kern, env


def one_estimate(kern, pairs):
    """The one Green estimator's values, split times and per-source profiles."""
    by_source, _, split_times = rcmlab.green._split_plan(kern.geometry, pairs)
    values, _, profiles = rcmlab.green._green_sweep(kern, by_source, split_times)
    return values, split_times, profiles


# ---------------------------------------------------------------------------
# Poisson utilities


def test_poisson_tail_basics():
    assert poisson_tail(0.0, 1) == 0.0
    assert poisson_tail(0.0, 0) == 1.0
    assert poisson_tail(3.0, 0) == 1.0
    tails = [poisson_tail(2.0, r) for r in range(0, 12)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))


def test_poisson_tail_matches_scipy():
    for lam in (0.5, 2.0, 7.0, 40.0, 300.0):
        for r in (0, 1, 3, int(lam), int(2 * lam) + 5, int(3 * lam) + 20):
            mine = poisson_tail(lam, r)
            ref = float(scipy.stats.poisson.sf(r - 1, lam))
            assert mine == pytest.approx(ref, rel=1e-10, abs=1e-300)


@settings(max_examples=300, deadline=None)
@example(lam=2.0, r=0.3)
@example(lam=0.0, r=0.5)
@example(lam=50.0, r=199.5)
@given(lam=st.floats(0.0, 50.0), r=st.floats(-2.0, 200.0))
def test_poisson_tail_matches_direct_summation(lam, r):
    def pmf(n):
        if lam == 0.0:
            return float(n == 0)
        return math.exp(n * math.log(lam) - lam - math.lgamma(n + 1))

    # atoms past 600 hold below exp(-900) of the mass for lam <= 50
    direct = math.fsum(pmf(n) for n in range(max(0, math.ceil(r)), 600))
    tail = poisson_tail(lam, r)
    if direct > 1e-290:
        assert tail == pytest.approx(direct, rel=1e-10)
    else:
        assert tail <= 1e-289


def test_chernoff_bound():
    assert poisson_tail(2.0, 15) <= math.exp(-1.0)
    assert chernoff_check(2.0, 15)
    with pytest.raises(ValueError):
        chernoff_check(2.0, 14.0)  # needs r > 7 lam
    rng = np.random.default_rng(0)
    for _ in range(50):
        lam = float(rng.uniform(0.01, 5.0))
        r = float(7 * lam + rng.uniform(0.5, 30.0))
        assert chernoff_check(lam, r)


# ---------------------------------------------------------------------------
# oracle


def test_srw_green_matches_watson_constant():
    assert srw_green((0, 0, 0)) == pytest.approx(1.5163860591519780, abs=1e-8)


def test_srw_green_asymptotics():
    # g(z) approaches d / (2 pi |z|) in three dimensions
    for r in (6, 10, 14):
        val = srw_green((r, 0, 0))
        assert val == pytest.approx(3.0 / (2 * math.pi * r), rel=0.02)


def test_srw_green_rejects_recurrent_dimension():
    with pytest.raises(ValueError, match="transient"):
        srw_green((1, 0))


@pytest.mark.parametrize("z, bits", [
    ((0, 0, 0), "0x1.8431e071cdce3p+0"),
    ((3, 0, 0), "0x1.52797d488d682p-3"),
    ((3, 1, 0), "0x1.39a0e45ec4581p-3"),
    ((2, 2, 2), "0x1.16570d44da3ccp-3"),
    ((12, 0, 0), "0x1.4762bdffb6266p-5"),
    ((1, 0, 0, 0), "0x1.ea6dbd062c531p-3"),
])
def test_srw_green_bits_are_pinned(z, bits):
    assert srw_green(z).hex() == bits


_IMPORT_PROBE = """
import importlib, pkgutil, sys
import rcmlab

def loaded():
    print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))

for info in pkgutil.iter_modules(rcmlab.__path__):
    importlib.import_module("rcmlab." + info.name)
loaded()

from rcmlab.environment import EnvironmentSpec, sample_environment
from rcmlab.lattice import TorusGeometry
from rcmlab.moments import (annealed_power_mean, association_check, default_rectangles,
                            rectangle_ladder)
geo = TorusGeometry(2, 8)
fkg = EnvironmentSpec("gaussian-fkg", {{}})
sample_environment(fkg, geo, 0)
rectangle_ladder(fkg, TorusGeometry(2, 16), "mu", 1, 2.0,
                 default_rectangles([[1, 0], [3, 1], [5, 2], [7, 3]]), 4, 0, mean_samples=4)
association_check(EnvironmentSpec("na-permutation", {{}}), geo, n_samples=20, seed=0)
annealed_power_mean(EnvironmentSpec("na-permutation", {{}}), geo, {{"mu": 2, "nu": 2}},
                    n_fields=4, seed=0)
loaded()

from rcmlab.kernel import jump_kernel
jump_kernel(sample_environment(EnvironmentSpec("constant", {{}}), TorusGeometry(3, 4), 0))
print(sorted(m for m in {heavy!r} | {{"scipy.sparse", "scipy.special"}} if m in sys.modules))
from rcmlab.green import srw_green
srw_green((1, 1, 1))
print("scipy.integrate" in sys.modules)
"""


def test_fresh_import_leaves_quadrature_unloaded_until_the_oracle_runs():
    # no module of rcmlab, nor sampling and the moment checks, loads scipy; the
    # kernel loads scipy.sparse and scipy.special, and only srw_green needs
    # scipy.integrate, which drags in the heavy subpackages
    heavy = {"scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse.linalg",
             "scipy.fft", "scipy.spatial"}
    src = os.path.dirname(os.path.dirname(rcmlab.green.__file__))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(heavy=heavy)],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == ["[]", "[]", "['scipy.sparse', 'scipy.special']", "True"]


# ---------------------------------------------------------------------------
# quenched Green kernel


def test_green_diagonal_matches_oracle():
    geo, field, kern, env = constant_setup()
    est = green_kernel(field, (0, 0, 0), (0, 0, 0), env, tol=0.5,
                       t0_min=128, kernel=kern)
    oracle = srw_green((0, 0, 0)) / 6.0
    assert abs(est.value - oracle) / oracle <= 1e-3
    assert est.tail_bound <= 0.5 * est.value
    # the shim returns the one estimator's value at the split rule's time
    (value,), (split_time,), profiles = one_estimate(kern, [((0, 0, 0), (0, 0, 0))])
    assert (est.value, est.split_time) == (value, split_time) == (value, 128.0)
    profile = profiles[(0, 0, 0)]
    head = float(_head_integral(profile, split_time)[0])
    assert value >= head
    ref, _ = scipy.integrate.quad(lambda t: profile.hk(t)[0], 0.0, split_time,
                                  epsabs=0.0, epsrel=1e-12, limit=200)
    assert head == pytest.approx(ref, rel=1e-9)


def test_green_offdiagonal_close_to_oracle():
    geo, field, kern, env = constant_setup()
    (value,), _, _ = one_estimate(kern, [((0, 0, 0), (4, 0, 0))])
    oracle = srw_green((4, 0, 0)) / 6.0
    assert abs(value - oracle) / oracle <= 0.05


def test_green_requires_transience_and_envelope():
    geo2 = TorusGeometry(2, 8)
    field2 = sample_environment(CONSTANT, geo2, 0)
    with pytest.raises(ValueError, match="transient dimension required"):
        green_kernel(field2, (0, 0), (1, 0), envelope=None)
    geo, field, kern, env = constant_setup()
    with pytest.raises(ValueError, match="envelope"):
        green_kernel(field, (0, 0, 0), (0, 0, 0), None, kernel=kern)


def test_green_budget_unattainable_raises():
    geo, field, kern, env = constant_setup()
    with pytest.raises(ValueError, match="budget"):
        green_kernel(field, (0, 0, 0), (0, 0, 0), env, tol=1e-6, kernel=kern)


def test_green_kernel_refuses_a_split_time_below_t0_min():
    # t0_min no longer raises the split time: 32^2/8 caps it at 128
    geo, field, kern, env = constant_setup()
    with pytest.raises(ValueError, match="split time 128 is below t0_min = 256"):
        green_kernel(field, (0, 0, 0), (0, 0, 0), env, tol=0.5, t0_min=256, kernel=kern)


def test_green_sweep_computes_each_jump_power_once():
    geo = TorusGeometry(3, 48)
    kern = jump_kernel(sample_environment(CONSTANT, geo, 0))
    products = []

    class CountingBlock:
        """Counts the columns of every product by the block and by its
        transpose, each half-size."""

        def __init__(self, block):
            self.block = block

        @property
        def T(self):
            return CountingBlock(self.block.T)

        def __matmul__(self, v):
            assert v.shape[0] == geo.n_vertices // 2
            products.append(1 if v.ndim == 1 else v.shape[1])
            return self.block @ v

    counted = dataclasses.replace(kern, block=CountingBlock(kern.block))
    # the first source's pairs split at 128 and 256, the second's at 128
    pairs = [((0, 0, 0), (4, 0, 0)), ((0, 0, 0), (6, 0, 0)), ((9, 9, 9), (13, 9, 9))]
    _, split_times, profiles = one_estimate(counted, pairs)
    assert split_times == [128.0, 256.0, 128.0]

    def degree(t):
        # the least K whose dropped coefficients, times the largest target's
        # sqrt(mu(y) / mu(x)) (one on the constant field), stay below the tol
        c = 2.0 * scipy.special.ive(np.arange(1, 1000), t)
        dropped = np.cumsum(c[::-1])[::-1]  # dropped[k] = sum_{j > k} c_j
        return int(np.flatnonzero(dropped <= rcmlab.green._HEAD_TOL)[0])

    # each source sweeps once, to its own largest split time: T_1(S) u ..
    # T_K(S) u, each once
    assert len(profiles[(0, 0, 0)].coeff) - 1 == degree(256.0)
    assert len(profiles[(9, 9, 9)].coeff) - 1 == degree(128.0)
    assert sum(products) == degree(256.0) + degree(128.0)


@pytest.mark.parametrize("spec", [
    CONSTANT,
    ELLIPTIC,
    EnvironmentSpec("iid", {"marginal": "lognormal", "sigma": 1.0}),
], ids=["constant", "elliptic", "lognormal"])
def test_trunc_error_bounds_the_head_against_a_tighter_sweep(spec):
    # each row's trunc_error bounds its head's distance from the head of a
    # sweep at tol 1e-14, up to that sweep's own bound; two sources, so the
    # degree is set by the largest target of each
    geo = TorusGeometry(3, 16)
    kern = jump_kernel(sample_environment(spec, geo, 3))
    pairs = [((0, 0, 0), (2, 0, 0)), ((0, 0, 0), (0, 3, 0)), ((0, 0, 0), (1, 1, 2)),
             ((3, 5, 7), (3, 5, 3)), ((3, 5, 7), (4, 6, 7))]
    by_source, dists, split_times = rcmlab.green._split_plan(geo, pairs)
    assert sorted(set(dists)) == [2, 3, 4]
    _, trunc_errors, profiles = rcmlab.green._green_sweep(kern, by_source, split_times)
    for x, rows in by_source.items():
        t0s = [split_times[row] for row, _ in rows]
        ref = propagate(kern, point_mass(geo, x), [max(t0s)], 1e-14,
                        targets=[geo.index(y) for _, y in rows])
        for j, ((row, _), t0) in enumerate(zip(rows, t0s)):
            head = _head_integral(profiles[x], t0)[j]
            ref_head = _head_integral(ref, t0)[j]
            ref_bound = t0 * ref.trunc_error[j] / ref.mu_targets[j]
            assert 0.0 < trunc_errors[row]
            assert abs(head - ref_head) <= trunc_errors[row] + ref_bound


def test_green_symmetry_on_random_field():
    geo = TorusGeometry(3, 16)
    field = sample_environment(ELLIPTIC, geo, 4)
    kern = jump_kernel(field)
    (a, b), _, _ = one_estimate(kern, [((0, 0, 0), (3, 1, 0)), ((3, 1, 0), (0, 0, 0))])
    # the density is symmetric; occupation times differ by the mu weights
    assert a == pytest.approx(b, rel=1e-3)
    mu_vec = kern.mu
    occ_ab = a * mu_vec[geo.index((3, 1, 0))]
    occ_ba = b * mu_vec[geo.index((0, 0, 0))]
    assert occ_ab * mu_vec[geo.index((0, 0, 0))] == pytest.approx(
        occ_ba * mu_vec[geo.index((3, 1, 0))], rel=1e-3)


def test_green_scaling_identity():
    geo, field, kern, env = constant_setup()
    scaled = ConductanceField(geo, field.values * 2.0, field.spec, field.seed)
    env_scaled = dataclasses.replace(env, upper_amp=env.upper_amp / 2,
                                     lower_amp=env.lower_amp / 2)
    a = green_kernel(field, (0, 0, 0), (0, 0, 0), env, tol=0.5, t0_min=128,
                     kernel=kern)
    b = green_kernel(scaled, (0, 0, 0), (0, 0, 0), env_scaled, tol=0.5, t0_min=128)
    assert b.value == pytest.approx(a.value / 2.0, rel=1e-12)


def test_green_decomposition_consistency():
    geo, field, kern, env = constant_setup()
    rng = np.random.default_rng(12)
    for _ in range(5):
        y = tuple(int(v) for v in rng.integers(0, 5, size=3))
        if y == (0, 0, 0):
            y = (1, 2, 0)
        dec = green_decomposition(field, (0, 0, 0), y, 1, kernel=kern)
        (value,), _, _ = one_estimate(kern, [((0, 0, 0), y)])
        assert dec.total == value
        assert dec.term_local + dec.term_mid + dec.term_far == pytest.approx(value, abs=1e-8)
        assert dec.term_local >= 0 and dec.term_mid >= 0 and dec.term_far >= 0


def test_green_decomposition_poisson_bound_and_no_jump():
    geo, field, kern, env = constant_setup()
    # early-time term for a distant target is dominated by the jump-count tail
    dec = green_decomposition(field, (0, 0, 0), (4, 0, 0), 1, kernel=kern)
    assert dec.term_local <= (1.0 / 6.0) * poisson_tail(1.0, 4)
    # on-diagonal the stay-put event keeps the early-time term above 1/(e mu)
    dec0 = green_decomposition(field, (0, 0, 0), (0, 0, 0), {(0, 0, 0): 1}, kernel=kern)
    assert dec0.term_local >= math.exp(-1.0) / 6.0
    with pytest.raises(ValueError, match="stability radius"):
        green_decomposition(field, (0, 0, 0), (4, 0, 0), None, kernel=kern)
    # a source the table lacks never stabilized
    with pytest.raises(ValueError, match="stability radius"):
        green_decomposition(field, (0, 0, 0), (4, 0, 0), {(1, 0, 0): 1}, kernel=kern)


def test_green_decomposition_refuses_a_split_point_beyond_the_split_time():
    geo, field, kern, env = constant_setup()
    # n1^2 = 144 > 128, the split time on L = 32; the profile is not swept past it
    with pytest.raises(ValueError, match="split point 144 lies beyond the split time 128"):
        green_decomposition(field, (0, 0, 0), (4, 0, 0), 12, kernel=kern)
    with pytest.raises(ValueError, match="too far for L = 32"):
        green_decomposition(field, (0, 0, 0), (12, 0, 0), 1, kernel=kern)


SMALL_T_MAX = 64.0
SMALL_TARGETS = [(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 3, 3)]


@functools.cache
def elliptic_profile(L, t_max, targets):
    """A field, its kernel and a 1e-13 profile from the origin to ``targets``."""
    field = sample_environment(ELLIPTIC, TorusGeometry(3, L), 9)
    kern = jump_kernel(field)
    profile = propagate(kern, point_mass(field.geometry, (0, 0, 0)), [t_max], 1e-13,
                        targets=[field.geometry.index(y) for y in targets])
    return field, kern, profile


@pytest.mark.parametrize("k, T", [(0, 16.0), (3, 100.0), (40, 512.0), (5, 0.5), (100, 2048.0)])
def test_head_weights_match_skellam_form_and_quadrature(k, T):
    weight = _head_weights(k + 1, T)[k]
    # Skellam: e^-s I_k(s) = sum_m e^-s s^n / n! * C(n, m) / 2^n with n = 2m + k,
    # and int_0^T e^-s s^n / n! ds = gammainc(n + 1, T)
    n = np.arange(k, int(T + 20 * math.sqrt(T)) + 200, 2)
    m = (n - k) // 2
    binom = np.exp(scipy.special.gammaln(n + 1) - scipy.special.gammaln(m + 1)
                   - scipy.special.gammaln(m + k + 1) - n * math.log(2.0))
    factor = 1.0 if k == 0 else 2.0
    skellam = factor * np.sum(binom * scipy.special.gammainc(n + 1, T))
    quad, _ = scipy.integrate.quad(lambda s: factor * scipy.special.ive(k, s), 0.0, T,
                                   epsabs=0.0, epsrel=1e-13, limit=500)
    assert weight == pytest.approx(skellam, rel=1e-13)
    assert weight == pytest.approx(quad, rel=1e-13)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(times=st.lists(st.floats(0.0, SMALL_T_MAX, exclude_min=True),
                      min_size=2, max_size=4),
       target=st.integers(0, len(SMALL_TARGETS) - 1))
def test_green_head_closed_form_properties(times, target):
    field, kern, profile = elliptic_profile(6, SMALL_T_MAX, tuple(SMALL_TARGETS))
    times = sorted(times)
    heads = _head_integral(profile, times)[:, target]
    for t, head in zip(times, heads):
        ref, _ = scipy.integrate.quad(lambda s: profile.hk(s)[target], 0.0, t,
                                      epsabs=0.0, epsrel=1e-12, limit=200)
        assert head == pytest.approx(ref, rel=1e-9, abs=1e-300)
    # nondecreasing in T up to rounding: the integrand is a law, and the
    # truncated series stays within its 1e-13 certificate of it
    assert np.all(np.diff(heads) >= -1e-15 * heads[1:])


# every pair on L = 16 splits at 16^2/8 = 32, and each dist^2 stays below it
SPLIT_TARGETS = ((0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 1, 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n1=st.floats(0.0, 5.5, exclude_min=True),
       target=st.integers(0, len(SPLIT_TARGETS) - 1))
def test_green_decomposition_splits_the_one_estimators_profile(n1, target):
    field, kern, profile = elliptic_profile(16, 32.0, SPLIT_TARGETS)
    y = SPLIT_TARGETS[target]
    dec = green_decomposition(field, (0, 0, 0), y, n1, kernel=kern)
    (value,), (split_time,), _ = one_estimate(kern, [((0, 0, 0), y)])
    assert split_time == 32.0
    assert dec.total == value
    assert dec.term_local + dec.term_mid + dec.term_far == pytest.approx(value, rel=1e-12)
    assert dec.term_local >= 0 and dec.term_mid >= 0 and dec.term_far >= 0
    assert dec.split_low == n1 * n1
    assert dec.split_high == max(dec.split_low, field.geometry.torus_distance((0, 0, 0), y))
    # the local term is the head up to n1^2 of an independent, tighter sweep
    head = _head_integral(profile, dec.split_low)[target]
    assert dec.term_local == pytest.approx(head, rel=1e-9, abs=1e-300)


def test_green_cutoff_radius():
    assert green_cutoff_radius(1, 6.0, 3) >= 1
    assert green_cutoff_radius(3, 6.0, 3) > green_cutoff_radius(1, 6.0, 3)
    lam, d = 4.0, 3
    r = green_cutoff_radius(2, 6.0, d)
    assert (lam / 6.0) * poisson_tail(lam, r) <= r ** (2.0 - d)


def test_quenched_bound_check_constant(monkeypatch):
    geo, field, kern, env = constant_setup()
    sweeps = []
    real = rcmlab.green.propagate

    def counting(*args, **kwargs):
        sweeps.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(rcmlab.green, "propagate", counting)
    pairs = [((0, 0, 0), (r, 0, 0)) for r in (4, 6, 8, 10, 12)]
    # 12^2 > 128, the split time on L = 32: refused before any sweep
    with pytest.raises(ValueError, match="too far for L = 32"):
        quenched_bound_check(field, pairs, 1.0, kernel=kern)
    assert sweeps == []
    report = quenched_bound_check(field, pairs[:4], 1.0, kernel=kern)
    assert sweeps == [1]  # one sweep per source, not one per pair
    assert [r.dist for r in report.rows] == [4, 6, 8, 10]
    assert all(r.upper_included and r.lower_included for r in report.rows)
    assert report.scaled_max / report.scaled_min < 2.0
    banded = quenched_bound_check(field, pairs[:2], {(0, 0, 0): 1}, window=(0.05, 0.3),
                                  kernel=kern)
    assert banded.verdict is True


def test_quenched_excludes_below_threshold():
    # the cutoff pair needs cutoff^2 <= the split time, 256 on L = 48
    geo = TorusGeometry(3, 48)
    field = sample_environment(CONSTANT, geo, 0)
    cutoff = green_cutoff_radius(3.0, 6.0, 3)
    assert 2 < cutoff <= 16
    pairs = [((0, 0, 0), (2, 0, 0)), ((0, 0, 0), (cutoff, 0, 0))]
    # a stability radius of three pushes both cutoffs beyond the close pair
    report = quenched_bound_check(field, pairs, 3.0)
    assert not report.rows[0].upper_included
    assert not report.rows[0].lower_included
    assert report.rows[1].upper_included
    # the summary window only sees included pairs
    assert report.scaled_min == report.rows[1].scaled


def test_annealed_green_constant_matches_oracle_fit():
    # the torus must stay well ahead of the diffusive range of the longest
    # split time, else wrapped mass inflates the far pairs
    geo = TorusGeometry(3, 40)
    distances = (4, 6, 8)
    pairs = [((0, 0, 0), (r, 0, 0)) for r in distances]
    report = annealed_green(CONSTANT, geo, pairs, 2, 3)
    oracle_vals = [srw_green((r, 0, 0)) / 6.0 for r in distances]
    for mean, oracle in zip(report.means, oracle_vals):
        assert mean == pytest.approx(oracle, rel=0.02)
    from rcmlab.fitting import loglog_slope

    oracle_fit = loglog_slope(distances, oracle_vals)
    assert report.slope.slope == pytest.approx(oracle_fit.slope, abs=0.08)


@pytest.mark.parametrize("L, distances, split_times, rel", [
    (48, (4, 6, 8, 10, 12), [128.0, 256.0, 256.0, 256.0, 256.0], 2e-3),
    (32, (4, 6, 8, 10), [128.0] * 4, 1.5e-2),
])
def test_annealed_green_split_time_keeps_wrapped_mass_out(L, distances, split_times, rel):
    # the split time is capped at the largest power of two <= L^2/8, so even
    # the far pairs stay close to the lattice value
    geo = TorusGeometry(3, L)
    pairs = [((0, 0, 0), (r, 0, 0)) for r in distances]
    report = annealed_green(CONSTANT, geo, pairs, 2, 0)
    assert report.split_times == split_times
    for r, mean in zip(distances, report.means):
        assert mean == pytest.approx(srw_green((r, 0, 0)) / 6.0, rel=rel)


def test_annealed_green_refuses_pairs_the_torus_cannot_resolve():
    geo = TorusGeometry(3, 32)
    # t0 = 128 on L = 32, below 12^2
    with pytest.raises(ValueError, match=r"\(0, 0, 0\) -> \(12, 0, 0\).*L = 32.*128"):
        annealed_green(CONSTANT, geo, [((0, 0, 0), (4, 0, 0)), ((0, 0, 0), (12, 0, 0))], 2, 0)
    # 10^2 <= 128
    report = annealed_green(CONSTANT, geo, [((0, 0, 0), (10, 0, 0)), ((0, 0, 0), (4, 0, 0))],
                            2, 0)
    assert report.split_times == [128.0, 128.0]


def test_annealed_green_keeps_pair_order():
    # pairs from two sources, interleaved: each mean belongs to its own pair
    geo = TorusGeometry(3, 12)
    pairs = [((0, 0, 0), (2, 0, 0)), ((1, 1, 1), (1, 1, 2)), ((0, 0, 0), (3, 1, 0))]
    grouped = [pairs[0], pairs[2], pairs[1]]
    report = annealed_green(ELLIPTIC, geo, pairs, 2, 5)
    assert report.split_times == [16.0, 16.0, 16.0]  # the L = 12 cap
    interleaved = report.means
    by_source = annealed_green(ELLIPTIC, geo, grouped, 2, 5).means
    assert interleaved == [by_source[0], by_source[2], by_source[1]]
    assert len(set(interleaved)) == 3


def _serial_annealed_samples(spec, geo, pairs, n_samples, seed, split_times):
    """The replica loop annealed_green ran before it split over workers: the
    sample table and the table of head bounds."""
    by_source = {}
    for row, (x, y) in enumerate(pairs):
        by_source.setdefault(x, []).append((row, y))
    sweeps = [rcmlab.green._green_sweep(
        jump_kernel(sample_environment(spec, geo, child_seed(seed, 0, i))),
        by_source, split_times) for i in range(n_samples)]
    return (np.column_stack([values for values, _, _ in sweeps]),
            np.column_stack([bounds for _, bounds, _ in sweeps]))


@pytest.mark.parametrize("seed", [0, 7])
def test_annealed_green_same_bits_on_one_and_two_workers(monkeypatch, seed):
    geo = TorusGeometry(3, 12)
    pairs = [((0, 0, 0), (2, 0, 0)), ((1, 1, 1), (1, 1, 2)), ((0, 0, 0), (3, 1, 0))]
    reports = []
    for workers in (1, 2):
        monkeypatch.setattr(rcmlab.green, "_worker_count", lambda: workers)
        reports.append(annealed_green(ELLIPTIC, geo, pairs, 5, seed))
    one, two = reports
    assert one.means == two.means
    assert one.stderrs == two.stderrs
    assert one.slope == two.slope
    assert one.trunc_errors == two.trunc_errors
    samples, bounds = _serial_annealed_samples(ELLIPTIC, geo, pairs, 5, seed, two.split_times)
    assert two.means == samples.mean(axis=1).tolist()
    assert two.stderrs == (samples.std(axis=1, ddof=1) / math.sqrt(5)).tolist()
    assert two.trunc_errors == bounds.max(axis=1).tolist()


_FIRST_USER_PROBE = """
import sys, threading

class Recorder:
    threads = set()

    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            self.threads.add(threading.current_thread().name)
        return None  # leaves the import to the next finder

sys.meta_path.insert(0, Recorder())
from rcmlab.environment import EnvironmentSpec
from rcmlab.green import annealed_green
from rcmlab.lattice import TorusGeometry
print(any(m == "scipy" or m.startswith("scipy.") for m in sys.modules))
report = annealed_green(EnvironmentSpec("uniform-elliptic-iid", {"low": 0.5, "high": 2.0}),
                        TorusGeometry(3, 16), [((0, 0, 0), (2, 0, 0)), ((0, 0, 0), (3, 0, 0))],
                        2, 7)
print(sorted(Recorder.threads))
print([m.hex() for m in report.means])
"""


def test_annealed_green_as_first_scipy_user_imports_on_the_calling_thread():
    # scipy loads on first use; annealed_green must load it before its helper
    # thread starts, and the bits must not depend on when it loaded
    src = os.path.dirname(os.path.dirname(rcmlab.green.__file__))
    out = subprocess.run([sys.executable, "-c", _FIRST_USER_PROBE],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    warm = annealed_green(ELLIPTIC, TorusGeometry(3, 16),
                          [((0, 0, 0), (2, 0, 0)), ((0, 0, 0), (3, 0, 0))], 2, 7)
    assert out == ["False", "['MainThread']", str([m.hex() for m in warm.means])]


def test_annealed_green_builds_the_block_pattern_once(monkeypatch):
    # both workers would miss an empty cache and each build the pattern
    monkeypatch.setattr(rcmlab.green, "_worker_count", lambda: 2)
    rcmlab.kernel._block_pattern.cache_clear()
    annealed_green(ELLIPTIC, TorusGeometry(3, 48),
                   [((0, 0, 0), (4, 0, 0)), ((0, 0, 0), (6, 0, 0))], 4, 3)
    info = rcmlab.kernel._block_pattern.cache_info()
    assert (info.misses, info.hits) == (1, 4)


@pytest.mark.parametrize("failing", [{1, 2}, {2, 3}, {3}])
def test_annealed_green_raises_first_failing_replica(monkeypatch, failing):
    geo = TorusGeometry(3, 12)
    pairs = [((0, 0, 0), (2, 0, 0)), ((0, 0, 0), (3, 0, 0))]
    replica_of = {child_seed(4, 0, i): i for i in range(6)}
    original = rcmlab.green.sample_environment

    def sample(spec, geometry, seed):
        if replica_of[seed] in failing:
            raise RuntimeError(f"replica {replica_of[seed]}")
        return original(spec, geometry, seed)

    monkeypatch.setattr(rcmlab.green, "sample_environment", sample)
    threads = threading.active_count()
    for workers in (1, 2):
        monkeypatch.setattr(rcmlab.green, "_worker_count", lambda: workers)
        with pytest.raises(RuntimeError, match=f"^replica {min(failing)}$"):
            annealed_green(ELLIPTIC, geo, pairs, 6, 4)
        assert threading.active_count() == threads
    monkeypatch.setattr(rcmlab.green, "sample_environment", original)
    annealed_green(ELLIPTIC, geo, pairs, 6, 4)
    assert threading.active_count() == threads


def test_run_split_under_fast_thread_switches(monkeypatch):
    # more workers than cores and a short switch interval: every slot below
    # the first failure is written once, and the first failure in index order
    # wins even when a later one fails first
    monkeypatch.setattr(rcmlab.green, "_worker_count", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for failing in (set(), {57, 90, 133}):
            written = np.zeros(200, dtype=int)
            later_failed = threading.Event()

            def task(i):
                if i == 57 and failing:  # worker 1 waits while worker 2 reaches 90
                    assert later_failed.wait(timeout=10)
                if i in failing:
                    later_failed.set()
                    raise KeyError(i)
                written[i] += 1
                np.linalg.norm(np.ones(2000) * i)  # give the other threads a turn

            threads = threading.active_count()
            if failing:
                with pytest.raises(KeyError, match="57"):
                    rcmlab.green._run_split(200, task)
            else:
                rcmlab.green._run_split(200, task)
            assert threading.active_count() == threads
            first = min(failing, default=200)
            assert np.all(written[:first] == 1)
            assert np.all(written <= 1)
    finally:
        sys.setswitchinterval(interval)


def test_annealed_green_validation():
    geo = TorusGeometry(2, 8)
    with pytest.raises(ValueError, match="transient"):
        annealed_green(CONSTANT, geo, [((0, 0), (1, 0))], 2, 0)
    geo3 = TorusGeometry(3, 8)
    with pytest.raises(ValueError, match="two samples"):
        annealed_green(CONSTANT, geo3, [((0, 0, 0), (1, 0, 0))], 1, 0)
