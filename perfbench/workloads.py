"""The benchmark's three workloads: inputs from a seed, one pass, and its gates.

Each workload exposes ``inputs(seed, size, work_dir)``, ``run_pass(inputs,
out_dir, tracer)``, ``digest(result)`` and ``gate(inputs, result, full)``.
A pass calls rcmlab
only through module attributes looked up at call time, so that a traced pass
goes through the tracer's wrappers.  Gate tolerances are copied from the
acceptance criteria they come from and are never loosened.

annealed-green
    Criterion 10's shape: ``annealed_green`` on a 3-D uniform-elliptic torus,
    L = 48, pairs from the origin to (r, 0, 0) for r in 4..12, three replicas;
    plus criterion 9's quenched ``green_kernel`` on the constant 32^3 field.
    Long single-source sweeps (t up to 512, about 680 terms) and profile
    evaluation: the SpMV and Poisson-weight floor.
cli-pipeline
    ``rcmlab.cli.main`` in-process for env, heat, verify and chain on one 2-D
    elliptic L = 128 config with 4 sources and 4 times; heat writes every
    target (about 12 MB of CSV).  Many short full-torus slices, recomputed
    slices, per-row Python loops and report writers; no Green work.
sampler-ensemble
    Criterion 7's rectangle ladder on a 64^2 torus for four sampler families
    and criterion 8's association checks on an 8^2 torus, with fewer
    samples.  Thousands of fields and no kernel work.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import math
import os

import rcmlab.cli
import rcmlab.envelopes
import rcmlab.environment
import rcmlab.green
import rcmlab.kernel
import rcmlab.moments
from rcmlab.environment import EnvironmentSpec
from rcmlab.lattice import HyperRectangle, TorusGeometry

ELLIPTIC = {"kind": "uniform-elliptic-iid", "low": 0.5, "high": 2.0}


def _span(tracer, layer):
    return tracer.span(layer) if tracer is not None else contextlib.nullcontext()


def digest(result):
    """Fingerprint of a library pass's results, for the cross-pass identity gate."""
    return hashlib.sha256(repr(result).encode()).hexdigest()


# ---------------------------------------------------------------------------
# annealed-green


class AnnealedGreen:
    name = "annealed-green"
    digest = staticmethod(digest)
    sizes = {
        "full": {"L": 48, "radii": (4, 6, 8, 10, 12), "replicas": 3},
        "tiny": {"L": 24, "radii": (2, 3, 4), "replicas": 2},
    }
    origin = (0, 0, 0)

    def inputs(self, seed, size, work_dir):
        p = self.sizes[size]
        return {
            "spec": EnvironmentSpec.from_dict(ELLIPTIC),
            "geometry": TorusGeometry(3, p["L"]),
            "pairs": [(self.origin, (r, 0, 0)) for r in p["radii"]],
            "replicas": p["replicas"],
            "seed": seed,
            # criterion 9: the oracle needs a torus large enough for t0 = 128
            "quenched_spec": EnvironmentSpec("constant", {"level": 1.0}),
            "quenched_geometry": TorusGeometry(3, 32),
        }

    def run_pass(self, inp, out_dir, tracer):
        report = rcmlab.green.annealed_green(inp["spec"], inp["geometry"], inp["pairs"],
                                             inp["replicas"], inp["seed"])
        field = rcmlab.environment.sample_environment(inp["quenched_spec"],
                                                      inp["quenched_geometry"], inp["seed"])
        kern = rcmlab.kernel.jump_kernel(field)
        slices = [rcmlab.kernel.heat_kernel(field, t, self.origin, tol=1e-12, kernel=kern)
                  for t in (8.0, 16.0, 32.0)]
        env = rcmlab.envelopes.fit_envelopes(slices, lower_threshold=1.0, window=2.0)
        est = rcmlab.green.green_kernel(field, self.origin, self.origin, env, tol=0.5,
                                        t0_min=128, kernel=kern)
        return {
            "means": report.means,
            "stderrs": report.stderrs,
            "slope": report.slope.slope,
            "slope_ci": [report.slope.ci_low, report.slope.ci_high],
            "quenched": est.value,
            "quenched_tail_bound": est.tail_bound,
        }

    def gate(self, inp, result, full):
        oracle = rcmlab.green.srw_green(self.origin) / 6.0
        rel = abs(result["quenched"] - oracle) / oracle
        checks = [
            ("annealed slope in [-1.3, -0.7]", -1.3 <= result["slope"] <= -0.7),
            ("quenched constant-field value within 1e-3 of srw_green/6", rel <= 1e-3),
        ]
        return checks, {"green.oracle_rel_err": rel}


# ---------------------------------------------------------------------------
# cli-pipeline


class CliPipeline:
    name = "cli-pipeline"
    commands = ("env", "heat", "verify", "chain")
    sizes = {
        "full": {"L": 128, "sources": [[0, 0], [32, 0], [0, 32], [64, 64]],
                 "heat_times": [4.0, 16.0, 64.0, 256.0],
                 "verify_times": [16.0, 32.0, 64.0, 128.0], "moment_samples": 512,
                 "target": [8, 0], "time": 32.0},
        "tiny": {"L": 16, "sources": [[0, 0], [8, 8]], "heat_times": [1.0, 4.0],
                 "verify_times": [4.0, 8.0], "moment_samples": 32,
                 "target": [6, 0], "time": 24.0},
    }
    heat_tol = 1e-10

    def inputs(self, seed, size, work_dir):
        p = self.sizes[size]
        config = {
            "geometry": {"d": 2, "L": p["L"]},
            "environment": ELLIPTIC,
            "seed": seed,
            "heat": {"times": p["heat_times"], "sources": p["sources"], "tol": self.heat_tol},
            "verify": {"times": p["verify_times"], "sources": p["sources"], "window": 2.0,
                       "moment_samples": p["moment_samples"]},
            "chain": {"target": p["target"], "time": p["time"]},
        }
        path = os.path.join(work_dir, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        return {"config": config, "config_path": path}

    def run_pass(self, inp, out_dir, tracer):
        codes = {}
        for command in self.commands:
            with _span(tracer, f"cli.{command}"):
                codes[command] = rcmlab.cli.main([command, "--config", inp["config_path"],
                                                  "--out", str(out_dir)])
        return {"exit_codes": codes, "out_dir": str(out_dir)}

    @staticmethod
    def digest(result):
        """Fingerprint of the exit codes and every byte of the output directory."""
        h = hashlib.sha256(repr(result["exit_codes"]).encode())
        out_dir = result["out_dir"]
        for name in sorted(os.listdir(out_dir)):
            h.update(name.encode() + b"\0")
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def gate(self, inp, result, full):
        checks = [(f"rcmlab {c} exit code 0", result["exit_codes"].get(c) == 0)
                  for c in self.commands]
        if not full:
            return checks, {}
        out_dir = result["out_dir"]
        checks += self._heat_checks(inp["config"], os.path.join(out_dir, "heat.csv"))
        try:
            with open(os.path.join(out_dir, "chain.json")) as fh:
                chain = json.load(fh)
        except (OSError, ValueError):
            chain = {}
        checks.append(("chain.json sound", chain.get("sound") is True))
        checks.append(("chain.json steps_valid", chain.get("steps_valid") is True))
        return checks, {}

    def _heat_checks(self, config, path):
        """Each (t, x) block covers every target and its prob sums to one
        within the truncation tolerance; read one block at a time."""
        n_targets = config["geometry"]["L"] ** config["geometry"]["d"]
        expected = len(config["heat"]["times"]) * len(config["heat"]["sources"])
        checks = []
        try:
            with open(path, newline="") as fh:
                fh.readline()  # metadata line
                reader = csv.reader(fh)
                if next(reader) != ["t", "x", "y", "prob", "hk"]:
                    return [("heat.csv header", False)]
                for (t, x), rows in itertools.groupby(reader, key=lambda row: row[:2]):
                    probs = [float(row[3]) for row in rows]
                    ok = len(probs) == n_targets and abs(math.fsum(probs) - 1.0) <= self.heat_tol
                    checks.append((f"heat.csv block t={t} x={x} sums to 1 within tol", ok))
        except (OSError, ValueError, IndexError, StopIteration):
            return [("heat.csv readable", False)]
        return [(f"heat.csv has {expected} (t, x) blocks", len(checks) == expected)] + checks


# ---------------------------------------------------------------------------
# sampler-ensemble


def _ladder(shapes):
    return [HyperRectangle((0, 0), 1, length, half) for length, half in shapes]


class SamplerEnsemble:
    name = "sampler-ensemble"
    digest = staticmethod(digest)
    # (spec, eta, samples, mean_samples): criterion 7's moment orders.  The
    # iid count leaves the theta gate a wide margin (0.98-1.08 over seeds
    # 0-29); the others keep a whole pass near four seconds
    families = [
        ({"kind": "iid", "marginal": "uniform", "low": 0.5, "high": 2.0}, 2.0, 300, 128),
        ({"kind": "finite-range", "range": 3}, 4.0, 100, 64),
        ({"kind": "gaussian-fkg", "mass": 1.0}, 4.0, 100, 64),
        ({"kind": "na-permutation", "block": 4}, 4.0, 24, 32),
    ]
    association = [{"kind": "gaussian-fkg", "mass": 1.0}, {"kind": "na-permutation", "block": 4}]
    sizes = {
        "full": {"L": 64, "ladder": [(4, 1), (4, 2), (15, 3), (31, 3), (31, 7), (32, 15)],
                 "scale": 1.0, "assoc_samples": 2000},
        "tiny": {"L": 16, "ladder": [(1, 0), (3, 1), (5, 2), (7, 3)],
                 "scale": 0.25, "assoc_samples": 200},
    }

    def inputs(self, seed, size, work_dir):
        p = self.sizes[size]
        families = [(EnvironmentSpec.from_dict(spec), eta, max(2, round(n * p["scale"])),
                     max(2, round(m * p["scale"])))
                    for spec, eta, n, m in self.families]
        return {
            "geometry": TorusGeometry(2, p["L"]),
            "ladder": _ladder(p["ladder"]),
            "families": families,
            "assoc_geometry": TorusGeometry(2, 8),
            "assoc_specs": [EnvironmentSpec.from_dict(s) for s in self.association],
            "assoc_samples": p["assoc_samples"],
            "seed": seed,
        }

    def run_pass(self, inp, out_dir, tracer):
        ladders = {}
        for spec, eta, n, m in inp["families"]:
            report = rcmlab.moments.rectangle_ladder(spec, inp["geometry"], "mu", 1, eta,
                                                     inp["ladder"], n, inp["seed"],
                                                     mean_samples=m)
            ladders[spec.kind] = {"estimates": report.estimates, "stderrs": report.stderrs,
                                  "theta": report.theta.slope}
        verdicts = {}
        for spec in inp["assoc_specs"]:
            results = rcmlab.moments.association_check(spec, inp["assoc_geometry"],
                                                       n_samples=inp["assoc_samples"],
                                                       seed=inp["seed"])
            verdicts[spec.kind] = [(r.name, r.cov, r.stderr, r.passed) for r in results]
        return {"ladders": ladders, "verdicts": verdicts}

    def gate(self, inp, result, full):
        theta = result["ladders"]["iid"]["theta"]
        checks = [("iid theta in [0.85, 1.15]", 0.85 <= theta <= 1.15)]
        for kind, rows in result["verdicts"].items():
            checks.append((f"{kind} association verdicts present", bool(rows)))
            checks += [(f"{kind} {name} passes", passed) for name, _, _, passed in rows]
        return checks, {}


WORKLOADS = {w.name: w for w in (AnnealedGreen(), CliPipeline(), SamplerEnsemble())}
