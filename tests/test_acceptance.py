"""Acceptance suite: one test per criterion, one printed pass line each.

Every criterion pins its stated tolerance; the runtime limits are asserted
with the wall clock.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the per-criterion lines.
"""

import dataclasses
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from rcmlab.chaining import build_chain, chained_lower_bound
from rcmlab.cli import main
from rcmlab.envelopes import fit_envelopes, stability_radius, verify_bounds
from rcmlab.environment import (ConductanceField, EnvironmentSpec,
                                sample_environment)
from rcmlab.green import annealed_green, green_kernel, srw_green
from rcmlab.kernel import heat_kernel, heat_slices, jump_kernel, propagate, spectral_oracle
from rcmlab.lattice import TorusGeometry, l1_norm
from rcmlab.moments import association_check, rectangle_ladder
from rcmlab.poisson import chernoff_check, poisson_tail
from rcmlab.seeding import child_seed
from test_kernel import reference_p

CONSTANT = EnvironmentSpec("constant", {"level": 1.0})
ELLIPTIC = EnvironmentSpec("uniform-elliptic-iid", {"low": 0.5, "high": 2.0})

# exact annealed moments of the elliptic family at p = q = 2:
# mu(0) is a sum of four Uniform[1/2, 2] weights
MEAN_MU2 = 25.0 + 4 * (1.5**2 / 12.0)
_EY = math.log(4.0) / 1.5
MEAN_NU2 = (4 * _EY) ** 2 + 4 * (1.0 - _EY * _EY)


def report(number, title, elapsed, limit):
    assert elapsed < limit, f"criterion {number} runtime {elapsed:.1f}s over {limit}s"
    print(f"PASS criterion {number}: {title} ({elapsed:.1f}s)")


def test_criterion_01_oracle_equivalence():
    start = time.time()
    geo = TorusGeometry(2, 8)
    for spec, seed in ((CONSTANT, 0), (ELLIPTIC, 5)):
        field = sample_environment(spec, geo, seed)
        kern = jump_kernel(field)
        for t in (0.5, 2.0, 8.0):
            series = heat_kernel(field, t, (1, 2), tol=1e-12, kernel=kern)
            dense = spectral_oracle(field, t, (1, 2))
            assert np.max(np.abs(series.prob - dense.prob)) <= 1e-10
            assert np.max(np.abs(series.hk - dense.hk)) <= 1e-10
    report(1, "uniformization matches the dense spectral oracle to 1e-10",
           time.time() - start, 10.0)


def test_criterion_02_stochasticity_and_reversibility():
    start = time.time()
    geo = TorusGeometry(2, 16)
    t = 4.0
    rng = np.random.default_rng(202)
    pairs_checked = 0
    for rep in range(20):
        field = sample_environment(ELLIPTIC, geo, child_seed(40, 0, rep))
        kern = jump_kernel(field)
        rows = np.asarray(reference_p(field).sum(axis=1)).reshape(-1)
        assert np.max(np.abs(rows - 1.0)) <= 1e-12
        for _ in range(5):
            x = tuple(int(v) for v in rng.integers(0, 16, size=2))
            y = tuple(int(v) for v in rng.integers(0, 16, size=2))
            sx = heat_kernel(field, t, x, tol=1e-12, kernel=kern)
            sy = heat_kernel(field, t, y, tol=1e-12, kernel=kern)
            lhs = kern.mu[geo.index(x)] * sx.prob[geo.index(y)]
            rhs = kern.mu[geo.index(y)] * sy.prob[geo.index(x)]
            assert abs(lhs - rhs) <= 1e-9
            pairs_checked += 1
    assert pairs_checked == 100
    report(2, "row sums within 1e-12 and reversibility within 1e-9 on 100 pairs",
           time.time() - start, 30.0)


def test_criterion_03_semigroup():
    start = time.time()
    geo = TorusGeometry(2, 16)
    tol = 1e-10
    field = sample_environment(ELLIPTIC, geo, 77)
    kern = jump_kernel(field)
    half = heat_kernel(field, 4.0, (3, 3), tol=tol, kernel=kern)
    (composed,), _ = propagate(kern, half.prob, [4.0], tol)
    direct = heat_kernel(field, 8.0, (3, 3), tol=tol, kernel=kern)
    assert np.max(np.abs(composed - direct.prob)) <= 3 * tol
    report(3, "half-time composition matches the direct slice within 3 tol",
           time.time() - start, 10.0)


def test_criterion_04_lower_bound_cross_verification():
    start = time.time()
    geo = TorusGeometry(2, 64)
    sources = [(0, 0), (13, 7), (40, 40)]
    times = [16.0, 32.0, 64.0, 128.0]

    def thresholds(field):
        return {geo.wrap(s): stability_radius(field, s, 2, 2, MEAN_MU2, MEAN_NU2, 31)
                for s in sources}

    fit_field = sample_environment(ELLIPTIC, geo, 1001)
    ver_field = sample_environment(ELLIPTIC, geo, 2002)
    kern = jump_kernel(fit_field)
    slices = [heat_kernel(fit_field, t, s, tol=1e-10, kernel=kern)
              for t in times for s in sources]
    env = fit_envelopes(slices, lower_threshold=thresholds(fit_field), window=2.0)
    env_ver = dataclasses.replace(env, threshold=thresholds(ver_field))
    ver_slices = heat_slices(jump_kernel(ver_field), [(t, s) for t in times for s in sources],
                             1e-10)
    grid = [(ver_slices[t, s], geo.ball_indices(s, 2 * math.sqrt(t) + 1e-9))
            for t in times for s in sources]
    result = verify_bounds(env_ver, grid)
    beyond = result.count_beyond(0.05, side="lower")
    assert beyond <= 0.01 * max(1, result.n_lower_active), (
        f"{beyond} of {result.n_lower_active} lower checks violated by over 5%")
    report(4, "independent-field lower envelope verification on "
              f"{result.n_checked} grid points", time.time() - start, 300.0)


def chain_scales(D):
    # the r/12 spacing cannot be met by integer gaps for r in (16, 24) or
    # (32, 36); every other scale up to 4 D is admissible
    grid = [1.5, 2, 3, 4, 6, 8, 12, 14, 16, 24, 32, 36, 48, 64, 96, 128]
    return [r for r in grid if r <= 4 * D]


def test_criterion_05_chaining_geometry():
    start = time.time()
    targets = {
        2: [(8, 0), (0, 8), (4, 4), (-5, 3), (16, 0), (10, 6), (-8, -8),
            (32, 0), (20, 12), (-16, 16)],
        3: [(8, 0, 0), (4, 2, 2), (0, -8, 0), (16, 0, 0), (6, 6, 4),
            (0, 12, -4), (32, 0, 0), (12, 12, 8), (-10, 14, -8)],
    }
    checked = 0
    for d, xs in targets.items():
        for x in xs:
            D = l1_norm(x)
            assert D in (8, 16, 32)
            for r in chain_scales(D):
                t = D * float(r)
                plan = build_chain(x, t)
                assert plan.D == D
                assert abs(plan.r - r) < 1e-9
                assert 12 * D / plan.r - 1e-9 <= plan.k <= 16 * D / plan.r + 1e-9
                assert plan.r**2 / 16 - 1e-12 <= plan.s <= plan.r**2 / 12 + 1e-12
                assert plan.max_gap <= max(1.0, plan.r / 12.0) + 1e-12
                assert not plan.relaxed
                assert plan.waypoints[0] == (0,) * d
                assert plan.waypoints[-1] == tuple(x)
                checked += 1
    report(5, f"chain geometry invariants on {checked} exhaustive plans",
           time.time() - start, 5.0)


def test_criterion_06_chained_bound_soundness():
    start = time.time()
    geo = TorusGeometry(2, 64)
    field = sample_environment(CONSTANT, geo, 0)
    t, x = 32.0, (8, 0)
    bound = chained_lower_bound(field, t, x)
    assert bound.steps_valid
    true_slice = heat_kernel(field, t, (0, 0), tol=1e-12)
    true_value = float(true_slice.hk[geo.index(x)])
    assert bound.log_value <= math.log(true_value)
    report(6, "calibrated chained bound stays below the computed kernel",
           time.time() - start, 60.0)


def test_criterion_07_moment_scaling():
    start = time.time()
    geo = TorusGeometry(2, 64)
    from rcmlab.lattice import HyperRectangle

    # near-square shapes keep the short-range correlation neighborhood of
    # the smallest rectangles mostly interior
    ladder = [HyperRectangle((0, 0), 1, 4, 1),    # 15 vertices
              HyperRectangle((0, 0), 1, 4, 2),    # 25
              HyperRectangle((0, 0), 1, 15, 3),   # 112
              HyperRectangle((0, 0), 1, 31, 3),   # 224
              HyperRectangle((0, 0), 1, 31, 7),   # 480
              HyperRectangle((0, 0), 1, 32, 15)]  # 1023
    iid = EnvironmentSpec("iid", {"marginal": "uniform", "low": 0.5, "high": 2.0})
    iid_report = rectangle_ladder(iid, geo, "mu", 1, 2.0, ladder, 1000, 71,
                                  mean_samples=256)
    assert 0.85 <= iid_report.theta.slope <= 1.15, iid_report.theta

    fr = EnvironmentSpec("finite-range", {"range": 3})
    fr_report = rectangle_ladder(fr, geo, "mu", 1, 4.0, ladder, 1000, 72,
                                 mean_samples=256)
    scaled = [e / s**2 for e, s in zip(fr_report.estimates, fr_report.sizes)]
    assert max(scaled) / min(scaled) <= 4.0, scaled
    report(7, f"iid eta=2 growth exponent {iid_report.theta.slope:.3f} in "
              "[0.85, 1.15]; finite-range eta=4 ratio bounded by 4",
           time.time() - start, 600.0)


def test_criterion_08_association_verdicts():
    start = time.time()
    geo = TorusGeometry(2, 8)
    fkg = association_check(EnvironmentSpec("gaussian-fkg", {"mass": 1.0}),
                            geo, n_samples=10_000, seed=81)
    assert fkg and all(r.passed for r in fkg), [r for r in fkg if not r.passed]
    na = association_check(EnvironmentSpec("na-permutation", {"block": 4}),
                           geo, n_samples=10_000, seed=82)
    assert na and all(r.passed for r in na), [r for r in na if not r.passed]
    report(8, f"{len(fkg)} association pairs and {len(na)} "
              "negative-association pairs within three sigma",
           time.time() - start, 300.0)


def test_criterion_09_green_oracle_and_scaling():
    start = time.time()
    geo = TorusGeometry(3, 32)
    field = sample_environment(CONSTANT, geo, 0)
    kern = jump_kernel(field)
    slices = [heat_kernel(field, t, (0, 0, 0), tol=1e-12, kernel=kern)
              for t in (8.0, 16.0, 32.0)]
    env = fit_envelopes(slices, lower_threshold=1.0, window=2.0)
    est = green_kernel(field, (0, 0, 0), (0, 0, 0), env, tol=0.5, t0_min=128,
                       kernel=kern)
    oracle = srw_green((0, 0, 0)) / 6.0
    rel = abs(est.value - oracle) / oracle
    assert rel <= 1e-3, rel

    doubled = ConductanceField(geo, field.values * 2.0, field.spec, field.seed)
    env2 = dataclasses.replace(env, upper_amp=env.upper_amp / 2,
                               lower_amp=env.lower_amp / 2)
    est2 = green_kernel(doubled, (0, 0, 0), (0, 0, 0), env2, tol=0.5, t0_min=128)
    combined_tol = (est.tail_bound + est.trunc_error) / 2 + 1e-12
    assert abs(est2.value - est.value / 2.0) <= combined_tol
    report(9, f"Green value matches the lattice oracle to {rel:.2e} and halves "
              "under doubled weights", time.time() - start, 300.0)


def test_criterion_10_annealed_green_power_law():
    start = time.time()
    geo = TorusGeometry(3, 48)
    pairs = [((0, 0, 0), (r, 0, 0)) for r in (4, 6, 8, 10, 12)]
    result = annealed_green(ELLIPTIC, geo, pairs, 50, 2024)
    assert -1.3 <= result.slope.slope <= -0.7, result.slope
    report(10, f"annealed Green distance exponent {result.slope.slope:.3f} "
               "within [-1.3, -0.7]", time.time() - start, 900.0)


def test_criterion_11_chernoff():
    start = time.time()
    rng = np.random.default_rng(11)
    for _ in range(100):
        lam = float(rng.uniform(0.01, 8.0))
        r = float(7 * lam + rng.uniform(0.1, 40.0))
        assert poisson_tail(lam, r) <= math.exp(-r + 7 * lam)
        assert chernoff_check(lam, r)
    report(11, "exact Poisson tails below the exponential bound on 100 draws",
           time.time() - start, 1.0)


# criterion 12: one small config per command
CLI_CONFIGS = {
    "env": {
        "geometry": {"d": 2, "L": 8},
        "environment": {"kind": "uniform-elliptic-iid", "low": 0.5, "high": 2.0},
        "seed": 7,
    },
    "heat": {
        "geometry": {"d": 2, "L": 8},
        "environment": {"kind": "uniform-elliptic-iid", "low": 0.5, "high": 2.0},
        "seed": 7,
        "heat": {"times": [0.5, 2.0], "sources": [[0, 0]]},
    },
    "verify": {
        "geometry": {"d": 2, "L": 16},
        "environment": {"kind": "constant", "level": 1.0},
        "seed": 1,
        "verify": {"times": [4.0, 8.0], "sources": [[0, 0]],
                   "moment_samples": 16, "mode": "self"},
    },
    "chain": {
        "geometry": {"d": 2, "L": 32},
        "environment": {"kind": "constant", "level": 1.0},
        "seed": 0,
        "chain": {"target": [6, 0], "time": 24.0},
    },
    "moments": {
        "geometry": {"d": 2, "L": 16},
        "environment": {"kind": "uniform-elliptic-iid", "low": 0.5, "high": 2.0},
        "seed": 4,
        "moments": {"quantity": "mu", "p": 1, "eta": 2.0,
                    "sizes": [[1, 0], [3, 1], [5, 2], [7, 3]],
                    "samples": 40, "mean_samples": 16},
    },
    "green": {
        "geometry": {"d": 3, "L": 16},
        "environment": {"kind": "constant", "level": 1.0},
        "seed": 2,
        "green": {"pairs": [[[0, 0, 0], [3, 0, 0]]]},
    },
}


def _run_all_commands(tmp_path, tag):
    convert = lambda name: str(tmp_path / f"{tag}-{name}")
    outputs = {}
    for name, cfg in CLI_CONFIGS.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = convert(name)
        rc = main([name, "--config", str(cfg_path), "--out", out])
        assert rc == 0, (name, rc)
        outputs[name] = {f: Path(out, f).read_bytes() for f in sorted(os.listdir(out))}
    return outputs


def test_criterion_12_cli_determinism(tmp_path):
    start = time.time()
    first = _run_all_commands(tmp_path, "a")
    second = _run_all_commands(tmp_path, "b")
    assert first == second
    report(12, "all six commands byte-identical across reruns",
           time.time() - start, 300.0)
