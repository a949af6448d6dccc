"""Command-line orchestration of the laboratory pipelines.

Commands (all take --config <path> plus optional --seed and --out):

  env      sample a conductance field, write it in binary and CSV form
  heat     heat kernel slices on a (time, source) grid, as CSV
  verify   fit an envelope on one field, verify on an independent one;
           emits JSON constants, a violations CSV, and an SVG scatter
  chain    ball-chain lower bound versus the computed kernel, as JSON + CSV;
           the amplitude is calibrated on every member pair of consecutive
           chain balls unless the config fixes `amp`, and `steps_valid` and
           `sound` report the step checks and the bound against p(t, 0, x)
  moments  rectangle-sum moment ladder with a fitted growth exponent
  green    Green kernel values (quenched) or annealed means with a power fit

Exit codes: 0 success, 2 verification found violations, 3 precondition or
configuration error, 4 I/O error.  Outputs embed the configuration hash and
artifact version, and identical configurations reproduce byte-identical
files.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .chaining import chained_lower_bound, waypoint_multiplicity
from .envelopes import fit_envelopes, stability_radius, verify_bounds
from .environment import (EnvironmentSpec, avg_norm, field_to_csv, sample_environment,
                          write_field)
from .green import _green_sweep, _split_plan, annealed_green
from .kernel import heat_slices, jump_kernel
from .lattice import TorusGeometry
from .moments import annealed_power_mean, default_rectangles, rectangle_ladder
from .reports import scatter_svg, write_csv, write_json
from .seeding import child_seed

EXIT_OK = 0
EXIT_VIOLATIONS = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4

_REQUIRED = object()  # the default of a key that must be given


def _tuple_of(convert):
    return lambda values: tuple(convert(v) for v in values)


def _one_of(*allowed):
    def check(value):
        if value not in allowed:
            raise ValueError(f"must be one of {allowed}, not {value!r}")
        return value
    return check


def _integer(value):
    """``int(value)``, refusing a float it would truncate."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _below(high, wanted):
    """``float(value)``, refusing one outside the open interval (0, high)."""
    def check(value):
        value = float(value)
        if not 0 < value < high:
            raise ValueError(f"must be {wanted}, not {value!r}")
        return value
    return check


_FLOATS, _INTS, _POINTS = _tuple_of(float), _tuple_of(_integer), _tuple_of(_tuple_of(_integer))
_POSITIVE, _TOLERANCE = _below(math.inf, "finite and positive"), _below(1.0, "in (0, 1)")


def _pair(value):
    if len(value) != 2:
        raise ValueError(f"a pair needs two points, not {len(value)}")
    return _POINTS(value)


# section -> key -> (conversion, default): every configuration key and its
# default, stated once.  Only a key whose default is None accepts null
_SECTIONS = {
    "geometry": {"d": (_integer, _REQUIRED), "L": (_integer, _REQUIRED)},
    "heat": {"times": (_FLOATS, _REQUIRED), "sources": (_POINTS, _REQUIRED),
             "targets": (_POINTS, None), "tol": (_TOLERANCE, 1e-10)},
    "verify": {"times": (_tuple_of(_POSITIVE), _REQUIRED), "sources": (_POINTS, None),
               "window": (float, 2.0), "p": (_POSITIVE, 2.0), "q": (_POSITIVE, 2.0),
               "moment_samples": (_integer, 512),
               "mode": (_one_of("cross", "self"), "cross"), "margin": (float, 0.05),
               "max_fraction": (float, 0.01), "tol": (_TOLERANCE, 1e-10),
               "inject_upper_scale": (float, 1.0), "inject_lower_scale": (float, 1.0)},
    "chain": {"target": (_INTS, _REQUIRED), "time": (_POSITIVE, _REQUIRED),
              "p": (_POSITIVE, 2.0), "q": (_POSITIVE, 2.0), "power": (float, 1.0),
              "growth": (float, 1.0), "amp": (float, None), "tol": (_TOLERANCE, 1e-10)},
    "moments": {"quantity": (_one_of("mu", "nu"), "mu"), "p": (_POSITIVE, 1.0),
                "eta": (_POSITIVE, 2.0), "sizes": (_POINTS, _REQUIRED),
                "samples": (_integer, 200), "mean_samples": (_integer, 128)},
    "green": {"mode": (_one_of("quenched", "annealed"), "quenched"),
              "pairs": (_tuple_of(_pair), None), "distances": (_INTS, (4, 6, 8)),
              "samples": (_integer, 50), "p": (_POSITIVE, 2.0), "q": (_POSITIVE, 2.0),
              "moment_samples": (_integer, 128)},
}

# (section, key) -> how many list levels sit above each lattice point in the
# key's value; every point must have d coordinates
_POINT_KEYS = {("heat", "sources"): 1, ("heat", "targets"): 1, ("verify", "sources"): 1,
               ("chain", "target"): 0, ("green", "pairs"): 2}


def _points_in(value, depth):
    return [value] if depth == 0 else [x for item in value for x in _points_in(item, depth - 1)]


def _convert(where, convert, value):
    """``convert(value)``, raising its TypeError or ValueError as a ValueError."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad {where}: {exc}") from None


def _converted(name, raw):
    """Section ``name``'s keys converted, with the defaults of those not given."""
    if not isinstance(raw, dict):
        raise ValueError(f"section {name!r} must be a JSON object")
    unknown = set(raw) - set(_SECTIONS[name])
    if unknown:
        raise ValueError(f"unknown keys in {name!r}: {sorted(unknown)}")
    values = {}
    for key, (convert, default) in _SECTIONS[name].items():
        if raw.get(key) is not None:
            values[key] = _convert(f"{key!r} in {name!r}", convert, raw[key])
        elif default is _REQUIRED or (key in raw and default is not None):
            raise ValueError(f"configuration needs a value for {key!r} in {name!r}")
        else:
            values[key] = default
    return values


class ExperimentConfig:
    """Validated experiment configuration, each section given converted once,
    here; the raw object's canonical JSON round-trips losslessly."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ValueError("configuration must be a JSON object")
        unknown = set(raw) - set(_SECTIONS) - {"environment", "seed"}
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        for key in ("geometry", "environment", "seed"):
            if key not in raw:
                raise ValueError(f"configuration needs {key!r}")
        self.raw = raw
        self._sections = {name: _converted(name, raw[name]) for name in _SECTIONS if name in raw}
        self.geometry = _convert("geometry", lambda g: TorusGeometry(**g),
                                 self._sections["geometry"])
        for (name, key), depth in _POINT_KEYS.items():
            value = self._sections.get(name, {}).get(key)
            if value is not None and any(len(x) != self.geometry.d
                                         for x in _points_in(value, depth)):
                raise ValueError(f"every point in {key!r} in {name!r} needs "
                                 f"{self.geometry.d} coordinates")
        self.environment = EnvironmentSpec.from_dict(raw["environment"])
        self.seed = _convert("seed", _integer, raw["seed"])
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def section(self, name):
        """Section ``name``'s converted values, defaults filled in."""
        if name not in self._sections:
            raise ValueError(f"configuration needs a {name!r} section")
        return self._sections[name]

    def canonical_json(self):
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    @property
    def config_hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def meta(self):
        return {"config_hash": self.config_hash, "version": __version__}


def load_config(path, seed_override=None):
    with open(path) as fh:
        raw = json.load(fh)
    if seed_override is not None and isinstance(raw, dict):
        raw["seed"] = int(seed_override)
    return ExperimentConfig(raw)


def _label(point):
    return " ".join(map(str, point))


# ---------------------------------------------------------------------------
# commands


def cmd_env(config, out_dir):
    field = sample_environment(config.environment, config.geometry, config.seed)
    write_field(field, os.path.join(out_dir, "field.rcm"),
                extra_header={"config_hash": config.config_hash})
    field_to_csv(field, os.path.join(out_dir, "field.csv"))
    return EXIT_OK


def cmd_heat(config, out_dir):
    section = config.section("heat")
    geo = config.geometry
    field = sample_environment(config.environment, config.geometry, config.seed)
    kern = jump_kernel(field)
    points = section["targets"]
    # one tuple of labels: write_csv formats it once
    if points:
        target_idx = np.array([geo.index(y) for y in points], dtype=np.int64)
        target_labels = tuple(_label(y) for y in points)
    else:  # every vertex in index order, the first coordinate slowest
        target_idx = np.arange(geo.n_vertices)
        target_labels = tuple(map(" ".join, itertools.product(
            [str(c) for c in range(geo.L)], repeat=geo.d)))
    requests = [(t, src) for t in section["times"] for src in section["sources"]]
    slices = heat_slices(kern, requests, section["tol"])

    def blocks():
        # one block per (t, x) request, so the table is never held whole
        for t, src in requests:
            s = slices[t, geo.wrap(src)]
            yield [t, _label(src), target_labels, s.prob[target_idx], s.hk[target_idx]]

    write_csv(os.path.join(out_dir, "heat.csv"),
              ["t", "x", "y", "prob", "hk"], blocks(), config.meta())
    return EXIT_OK


def _radius_table(config, section, sources):
    """The stability radius N(x) of each source as a function of the field,
    on the annealed means of mu^p and nu^q, estimated once here so that every
    field's table uses the same means."""
    geo = config.geometry
    p, q = section["p"], section["q"]
    means = annealed_power_mean(config.environment, geo, {"mu": p, "nu": q},
                                n_fields=section["moment_samples"], seed=config.seed)

    def radius_table(f):
        return {geo.wrap(x): stability_radius(f, x, p, q, means["mu"], means["nu"],
                                              geo.L // 2)
                for x in sources}

    return radius_table


def _verify_pipeline(config):
    section = config.section("verify")
    geo = config.geometry
    spec = config.environment
    window, tol, times = section["window"], section["tol"], section["times"]
    sources = section["sources"]
    if sources is None:
        sources = [(0,) * geo.d]

    fit_field = sample_environment(spec, geo, child_seed(config.seed, 10))
    fit_kern = jump_kernel(fit_field)
    radius_table = _radius_table(config, section, sources)
    # a source listed twice (equal mod L) is fitted and checked once
    pairs = list(dict.fromkeys((t, geo.wrap(x)) for t in times for x in sources))
    slices = heat_slices(fit_kern, pairs, tol)
    env = fit_envelopes([slices[k] for k in pairs],
                        lower_threshold=radius_table(fit_field), window=window)
    env_verify = env
    if section["mode"] == "cross":
        # same constants; slices and validity thresholds from the field under
        # verification, swept once the fit's table is released
        del slices, fit_kern, fit_field
        ver_field = sample_environment(spec, geo, child_seed(config.seed, 11))
        env_verify = dataclasses.replace(env, threshold=radius_table(ver_field))
        slices = heat_slices(jump_kernel(ver_field), pairs, tol)
    # optional deliberate weakening, for exercising the failure path
    upper_scale, lower_scale = section["inject_upper_scale"], section["inject_lower_scale"]
    if upper_scale != 1.0 or lower_scale != 1.0:
        env_verify = dataclasses.replace(
            env_verify, upper_amp=env_verify.upper_amp * upper_scale,
            lower_amp=env_verify.lower_amp * lower_scale)

    report = verify_bounds(env_verify, [slices[k] for k in pairs], window)
    return env, report


def cmd_verify(config, out_dir):
    section = config.section("verify")
    margin, max_fraction = section["margin"], section["max_fraction"]
    env, report = _verify_pipeline(config)

    meta = config.meta()
    payload = {
        "envelope": env.to_dict(),
        "threshold": {_label(x): n for x, n in sorted(env.threshold.items())},
        "n_checked": report.n_checked,
        "n_lower_active": report.n_lower_active,
        "n_upper_active": report.n_upper_active,
        "n_violations": len(report.violations),
        "worst_margin": report.worst_margin(),
        "violations": [
            {"t": v.t, "x": list(v.x), "y": list(v.y), "side": v.side,
             "value": v.value, "bound": v.bound, "margin": v.margin}
            for v in report.violations
        ],
    }
    write_json(os.path.join(out_dir, "envelope.json"), payload, meta)
    vs = report.violations
    write_csv(
        os.path.join(out_dir, "violations.csv"),
        ["t", "x", "y", "dist", "side", "value", "bound", "margin"],
        [[[v.t for v in vs], [_label(v.x) for v in vs], [_label(v.y) for v in vs],
          [v.dist for v in vs], [v.side for v in vs], [v.value for v in vs],
          [v.bound for v in vs], [v.margin for v in vs]]],
        meta,
    )

    d = config.geometry.d
    t, u, val = np.array(report.checked, dtype=float).reshape(-1, 3).T
    # Python's pow and math.log, not numpy's, whose SIMD loops may round
    # differently in the last bit: envelope.svg is compared byte for byte
    times, at = np.unique(t, return_inverse=True)
    scaled = val * np.array([s ** (d / 2.0) for s in times.tolist()])[at]
    positive = val > 0
    log_scaled = np.full(t.size, math.nan)
    log_scaled[positive] = list(map(math.log, scaled[positive].tolist()))
    ratio = u * u / t
    points = np.column_stack([ratio, log_scaled])
    ratios = np.unique(ratio[np.isfinite(ratio)]).tolist()
    if ratios:
        lines = {
            "lower": [(r, math.log(env.lower_amp) - env.lower_gauss_rate * r) for r in ratios],
            "upper-near": [(r, math.log(env.upper_amp) - env.upper_gauss_rate * r) for r in ratios],
        }
    else:
        lines = {}
    scatter_svg(os.path.join(out_dir, "envelope.svg"), points, lines, meta,
                "distance^2 / t", "log(p t^(d/2))", "heat kernel envelope")

    lower_frac = report.count_beyond(margin, side="lower") / max(1, report.n_lower_active)
    upper_frac = report.count_beyond(margin, side="upper") / max(1, report.n_upper_active)
    if lower_frac > max_fraction or upper_frac > max_fraction:
        return EXIT_VIOLATIONS
    return EXIT_OK


def cmd_chain(config, out_dir):
    section = config.section("chain")
    geo = config.geometry
    field = sample_environment(config.environment, config.geometry, config.seed)
    target, t, p, q = section["target"], section["time"], section["p"], section["q"]
    bound = chained_lower_bound(field, t, target, amp=section["amp"], growth=section["growth"],
                                power=section["power"], p=p, q=q, tol=section["tol"])

    meta = config.meta()
    payload = {
        "target": list(target),
        "time": t,
        "plan": {
            "D": bound.plan.D, "r": bound.plan.r, "k": bound.plan.k, "s": bound.plan.s,
            "relaxed": bound.plan.relaxed, "max_gap": bound.plan.max_gap,
            "waypoint_multiplicity": waypoint_multiplicity(bound.plan),
        },
        "constants": bound.constants,
        "log_bound": bound.log_value,
        "bound": bound.value,
        "true_value": bound.true_value,
        "sound": bound.sound,
        "steps_valid": bound.steps_valid,
        "mean_product_diag": bound.mean_product_diag,
    }
    write_json(os.path.join(out_dir, "chain.json"), payload, meta)

    root_s = math.sqrt(bound.plan.s)
    waypoints = bound.plan.waypoints[:bound.plan.k]
    balls = [geo.ball_indices(z, root_s) for z in waypoints]
    write_csv(
        os.path.join(out_dir, "chain_balls.csv"),
        ["j", "z", "mu_norm", "nu_norm", "step_log_factor"],
        [[list(range(bound.plan.k)), [_label(z) for z in waypoints],
          [avg_norm(field, "mu", p, ball) for ball in balls],
          [avg_norm(field, "nu", q, ball) for ball in balls],
          bound.step_logs]],
        meta,
    )
    return EXIT_OK


def cmd_moments(config, out_dir):
    section = config.section("moments")
    geo = config.geometry
    rects = default_rectangles(section["sizes"], d=geo.d)
    report = rectangle_ladder(
        config.environment, geo, section["quantity"], section["p"], section["eta"], rects,
        section["samples"], config.seed, mean_samples=section["mean_samples"],
    )
    meta = config.meta()
    write_json(os.path.join(out_dir, "moments.json"), {
        "quantity": report.quantity, "p": report.p, "eta": report.eta,
        "sizes": report.sizes, "estimates": report.estimates, "stderrs": report.stderrs,
        "theta": report.theta.slope,
        "theta_ci": [report.theta.ci_low, report.theta.ci_high],
        "implied_zeta": report.implied_zeta,
    }, meta)
    write_csv(os.path.join(out_dir, "ladder.csv"), ["size", "estimate", "stderr"],
              [[report.sizes, report.estimates, report.stderrs]], meta)
    pts = [(math.log(s), math.log(e)) for s, e in zip(report.sizes, report.estimates) if e > 0]
    line = [(math.log(s), report.theta.intercept + report.theta.slope * math.log(s))
            for s in report.sizes]
    scatter_svg(os.path.join(out_dir, "ladder.svg"), pts, {"fit": line}, meta,
                "log size", "log estimate", "rectangle moment ladder")
    return EXIT_OK


def cmd_green(config, out_dir):
    section = config.section("green")
    geo = config.geometry
    spec = config.environment
    meta = config.meta()

    pairs = section["pairs"]
    if pairs is None:
        origin = (0,) * geo.d
        pairs = [(origin, (r,) + (0,) * (geo.d - 1)) for r in section["distances"]]

    if section["mode"] == "annealed":
        report = annealed_green(spec, geo, pairs, section["samples"], config.seed)
        write_csv(os.path.join(out_dir, "green.csv"),
                  ["x", "y", "dist", "mean", "stderr", "split_time", "trunc_error"],
                  [[[_label(x) for x, _ in report.pairs], [_label(y) for _, y in report.pairs],
                    report.distances, report.means, report.stderrs, report.split_times,
                    report.trunc_errors]],
                  meta)
        expected = 2.0 - geo.d  # g(x, y) ~ |x - y|^(2 - d)
        write_json(os.path.join(out_dir, "green.json"), {
            "mode": "annealed",
            "slope": report.slope.slope,
            "slope_ci": [report.slope.ci_low, report.slope.ci_high],
            "expected_slope": expected,
            "slope_ci_contains_expected": bool(report.slope.ci_low <= expected
                                               <= report.slope.ci_high),
            "distances": report.distances,
            "means": report.means,
        }, meta)
        return EXIT_OK

    # the annealed split rule on the one field: a pair too far for L is
    # refused before any work
    by_source, dists, split_times = _split_plan(geo, pairs)
    radius_table = _radius_table(config, section, by_source)
    field = sample_environment(spec, geo, config.seed)
    threshold = radius_table(field)
    values, trunc_errors, _ = _green_sweep(jump_kernel(field), by_source, split_times)
    values = values.tolist()
    write_csv(os.path.join(out_dir, "green.csv"),
              ["x", "y", "dist", "g", "g_scaled", "split_time", "trunc_error"],
              [[[_label(geo.wrap(x)) for x, _ in pairs], [_label(geo.wrap(y)) for _, y in pairs],
                dists, values,
                [g * u ** (geo.d - 2.0) if u else math.nan for g, u in zip(values, dists)],
                split_times, trunc_errors.tolist()]],
              meta)
    write_json(os.path.join(out_dir, "green.json"), {
        "mode": "quenched",
        "pairs": [[list(x), list(y)] for x, y in pairs],
        "values": values,
        "threshold": {_label(x): n for x, n in sorted(threshold.items())},
    }, meta)
    return EXIT_OK


_COMMANDS = {
    "env": cmd_env,
    "heat": cmd_heat,
    "verify": cmd_verify,
    "chain": cmd_chain,
    "moments": cmd_moments,
    "green": cmd_green,
}


def build_parser():
    parser = argparse.ArgumentParser(prog="rcmlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--out", default="out")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, seed_override=args.seed)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](config, args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
