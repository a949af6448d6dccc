"""Layer tracing from outside the package.

While a traced pass runs, timing wrappers replace public rcmlab functions in
every namespace a caller looks them up in (``rcmlab.green.transition_profile``,
``rcmlab.envelopes.heat_kernel``, ``rcmlab.cli.write_csv``, ...).  Each wrapper
records a span (layer, start, end, parent) in memory; hooks key selected
calls to count wasted work.  Nothing under ``src/`` changes, and the
originals are put back when the pass ends.

A layer's self time is the duration of its spans minus the time their child
spans cover.  Every wrapped call belongs to exactly one layer, so the self
times of all layers plus the benchmark's own share (``trace.unattributed_frac``)
add up to the traced pass.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import os
import statistics
import time
import weakref
from collections import Counter, defaultdict

import rcmlab
import rcmlab.chaining
import rcmlab.cli
import rcmlab.envelopes
import rcmlab.environment
import rcmlab.fitting
import rcmlab.green
import rcmlab.kernel
import rcmlab.lattice
import rcmlab.moments
import rcmlab.poisson
import rcmlab.reports

# series lengths for the SpMV count come from the unwrapped function
_ORIGINAL_POISSON_WEIGHTS = rcmlab.poisson.poisson_weights

_M = {m.__name__: m for m in (rcmlab, rcmlab.chaining, rcmlab.cli, rcmlab.envelopes,
                               rcmlab.environment, rcmlab.fitting, rcmlab.green,
                               rcmlab.kernel, rcmlab.lattice, rcmlab.moments,
                               rcmlab.poisson, rcmlab.reports)}

# (layer, function name, namespaces holding a reference to it).  A namespace
# that lacks the name is skipped, so the tracer survives refactors; a call it
# misses shows up as unattributed time.
_FUNCTIONS = [
    ("kernel.slice", "heat_kernel", ("rcmlab", "rcmlab.kernel", "rcmlab.envelopes",
                                     "rcmlab.chaining", "rcmlab.cli")),
    ("kernel.sweep", "evolve", ("rcmlab.kernel",)),
    ("kernel.sweep", "transition_profile", ("rcmlab.kernel", "rcmlab.green")),
    ("kernel.jump_kernel", "jump_kernel", ("rcmlab", "rcmlab.kernel", "rcmlab.envelopes",
                                           "rcmlab.chaining", "rcmlab.green", "rcmlab.cli")),
    ("poisson.weights", "poisson_weights", ("rcmlab.poisson", "rcmlab.kernel")),
    ("poisson.tail", "poisson_tail", ("rcmlab.poisson", "rcmlab.kernel", "rcmlab.green")),
    ("green.annealed", "annealed_green", ("rcmlab.green", "rcmlab.cli")),
    ("green.kernel", "green_kernel", ("rcmlab.green", "rcmlab.cli")),
    ("reports.write", "write_csv", ("rcmlab.reports", "rcmlab.cli")),
    ("reports.write", "write_json", ("rcmlab.reports", "rcmlab.cli")),
    ("reports.write", "scatter_svg", ("rcmlab.reports", "rcmlab.cli")),
    ("envelopes.stability_radius", "stability_radius", ("rcmlab.envelopes", "rcmlab.cli",
                                                        "rcmlab.moments")),
    ("envelopes.fit", "fit_envelopes", ("rcmlab.envelopes", "rcmlab.cli")),
    ("envelopes.verify", "verify_bounds", ("rcmlab.envelopes", "rcmlab.cli")),
    ("chaining.bound", "chained_lower_bound", ("rcmlab.chaining", "rcmlab.cli")),
    ("chaining.calibrate", "calibrate_harnack_amp", ("rcmlab.chaining", "rcmlab.cli")),
    ("environment.sample", "sample_environment", ("rcmlab", "rcmlab.environment",
                                                  "rcmlab.moments", "rcmlab.green",
                                                  "rcmlab.cli")),
    ("environment.moments", "estimate_moments", ("rcmlab.environment", "rcmlab.cli")),
    ("environment.io", "write_field", ("rcmlab.environment", "rcmlab.cli")),
    ("environment.io", "field_to_csv", ("rcmlab.environment", "rcmlab.cli")),
    ("environment.io", "read_field", ("rcmlab.environment",)),
    ("moments.ladder", "rectangle_ladder", ("rcmlab.moments", "rcmlab.cli")),
    ("moments.ladder", "rectangle_sum_moment", ("rcmlab.moments",)),
    ("moments.association", "association_check", ("rcmlab.moments",)),
    ("moments.annealed_mean", "annealed_power_mean", ("rcmlab.moments", "rcmlab.cli")),
    ("fitting.bootstrap", "loglog_slope", ("rcmlab.fitting", "rcmlab.moments",
                                           "rcmlab.green")),
    ("fitting.bootstrap", "fit_theta", ("rcmlab.fitting", "rcmlab.moments")),
]

# (layer, class, method): spans; (counter, class, method): call counts only,
# for methods too cheap and too frequent to time one by one
_METHODS = [
    ("kernel.profile_eval", "rcmlab.kernel", "TransitionProfile", "prob"),
    ("kernel.profile_eval", "rcmlab.kernel", "TransitionProfile", "hk"),
    ("lattice.ball_indices", "rcmlab.lattice", "TorusGeometry", "ball_indices"),
    ("lattice.distance_field", "rcmlab.lattice", "TorusGeometry", "distance_field"),
]
_COUNTED = [
    ("lattice.index.calls", "rcmlab.lattice", "TorusGeometry", "index"),
    ("lattice.coords.calls", "rcmlab.lattice", "TorusGeometry", "coords"),
]

SAMPLER_KINDS = ("constant", "uniform-elliptic-iid", "iid", "finite-range",
                 "gaussian-fkg", "na-permutation")
CLI_COMMANDS = ("env", "heat", "verify", "chain")

# every per-layer metric a traced run reports, with its unit and direction
PER_LAYER = (
    [("kernel.spmv", "count", "lower"),
     ("kernel.spmv_ms", "ms", "lower"),
     ("kernel.spmv_gbps_computed", "GB/s", "higher"),
     ("kernel.sweeps", "count", "lower"),
     ("kernel.sweep.self_s", "s", "lower"),
     ("kernel.slices", "count", "lower"),
     ("kernel.slice.self_s", "s", "lower"),
     ("kernel.profile_eval.calls", "count", "lower"),
     ("kernel.profile_eval.s", "s", "lower"),
     ("kernel.jump_kernel.builds", "count", "lower"),
     ("kernel.jump_kernel.s", "s", "lower"),
     ("kernel.rebuild_frac", "ratio", "lower"),
     ("kernel.duplicate_slice_frac", "ratio", "lower"),
     ("poisson.weights.calls", "count", "lower"),
     ("poisson.weights.s", "s", "lower"),
     ("poisson.tail.calls", "count", "lower"),
     ("poisson.tail.s", "s", "lower"),
     ("green.annealed.self_s", "s", "lower"),
     ("green.kernel.self_s", "s", "lower"),
     ("green.profiles_per_value", "ratio", "lower"),
     ("green.oracle_rel_err", "ratio", "lower"),
     ("reports.write.s", "s", "lower"),
     ("reports.bytes", "B", "lower"),
     ("reports.rows", "count", "lower"),
     ("lattice.index.calls", "count", "lower"),
     ("lattice.coords.calls", "count", "lower"),
     ("lattice.ball_indices.calls", "count", "lower"),
     ("lattice.ball_indices.s", "s", "lower"),
     ("lattice.distance_field.calls", "count", "lower"),
     ("lattice.distance_field.s", "s", "lower")]
    + [(f"cli.{c}.s", "s", "lower") for c in CLI_COMMANDS]
    + [("cli.self_s", "s", "lower"),
       ("envelopes.stability_radius.calls", "count", "lower"),
       ("envelopes.stability_radius.s", "s", "lower"),
       ("envelopes.fit.s", "s", "lower"),
       ("envelopes.verify.self_s", "s", "lower"),
       ("envelopes.points_checked", "count", "lower"),
       ("chaining.bound.self_s", "s", "lower"),
       ("chaining.calibrate.self_s", "s", "lower"),
       ("chaining.step_slices", "count", "lower"),
       ("environment.sample.s", "s", "lower"),
       ("environment.sample.fields", "count", "lower")]
    + [(f"environment.sample_ms.{k}", "ms", "lower") for k in SAMPLER_KINDS]
    + [("environment.duplicate_field_frac", "ratio", "lower"),
       ("environment.moments.self_s", "s", "lower"),
       ("environment.io.s", "s", "lower"),
       ("environment.io.bytes", "B", "lower"),
       ("moments.ladder.self_s", "s", "lower"),
       ("moments.association.self_s", "s", "lower"),
       ("moments.annealed_mean.self_s", "s", "lower"),
       ("fitting.bootstrap.s", "s", "lower"),
       ("fitting.calls", "count", "lower"),
       ("trace.run_s", "s", "lower"),
       ("trace.unattributed_frac", "ratio", "lower"),
       ("trace.overhead_frac", "ratio", "lower")]
)


class Tracer:
    """Spans and keyed counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.kind_time = defaultdict(float)
        self.kind_fields = Counter()
        self._field_serial = weakref.WeakKeyDictionary()
        self._serials = itertools.count()
        self._seen = defaultdict(set)
        self._n_terms = {}
        self._saved = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Put wrappers in place; :meth:`uninstall` restores the originals."""
        hooks = {
            "heat_kernel": self._on_slice,
            "evolve": self._on_evolve,
            "transition_profile": self._on_profile,
            "jump_kernel": self._on_jump_kernel,
            "annealed_green": self._on_annealed,
            "green_kernel": self._on_green_kernel,
            "write_csv": self._on_report,
            "write_json": self._on_report,
            "scatter_svg": self._on_report,
            "write_field": self._on_io,
            "field_to_csv": self._on_io,
            "verify_bounds": self._on_verify,
            "sample_environment": self._on_sample,
        }
        for layer, name, namespaces in _FUNCTIONS:
            present = [_M[ns] for ns in namespaces if hasattr(_M[ns], name)]
            if not present:
                continue
            original = getattr(present[0], name)
            wrapper = self._span_wrapper(layer, original, hooks.get(name))
            for mod in present:
                if getattr(mod, name) is original:
                    self._replace(mod, name, wrapper)
        for layer, ns, cls_name, meth in _METHODS:
            cls = getattr(_M[ns], cls_name, None)
            if cls is not None and hasattr(cls, meth):
                self._replace(cls, meth, self._span_wrapper(layer, getattr(cls, meth)))
        for counter, ns, cls_name, meth in _COUNTED:
            cls = getattr(_M[ns], cls_name, None)
            if cls is not None and hasattr(cls, meth):
                self._replace(cls, meth, self._count_wrapper(counter, getattr(cls, meth)))

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _replace(self, owner, name, wrapper):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    @contextlib.contextmanager
    def span(self, layer):
        """Record one span [layer, start, end, parent index]; yields its index.
        The benchmark's own code uses it around its calls into the CLI."""
        idx = len(self.spans)
        span = [layer, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = time.perf_counter()
        try:
            yield idx
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def _span_wrapper(self, layer, fn, hook=None):
        bind = _binder(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span(layer) as idx:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(idx, bind(args, kwargs), result)
            return result

        return wrapped

    def dump(self, fh, pass_index):
        """Write the spans as JSON lines: name, start, end and parent id."""
        for i, (layer, start, end, parent) in enumerate(self.spans):
            fh.write(json.dumps({"pass": pass_index, "id": i, "name": layer,
                                 "start": start, "end": end, "parent": parent}) + "\n")

    def _count_wrapper(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- keyed counters ----------------------------------------------------

    def _serial(self, field):
        """Identity of a live field; serials are never reused."""
        serial = self._field_serial.get(field)
        if serial is None:
            serial = self._field_serial[field] = next(self._serials)
        return serial

    def _first_time(self, kind, key):
        seen = self._seen[kind]
        if key in seen:
            return False
        seen.add(key)
        return True

    def _ancestor_layers(self, idx):
        parent = self.spans[idx][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def _spmv_bytes(self, kernel, geometry):
        """Computed bytes one CSR SpMV moves: values, column indices, row
        pointers, one read of the input vector and one write of the output."""
        if kernel is not None:
            m = kernel.matrix
            return (m.nnz * (m.data.itemsize + m.indices.itemsize)
                    + (m.shape[0] + 1) * m.indptr.itemsize + 2 * 8 * m.shape[0])
        n = geometry.n_vertices
        nnz = 2 * geometry.d * n
        return nnz * (8 + 4) + (n + 1) * 4 + 2 * 8 * n

    def _add_sweep(self, n_spmv, kernel, geometry):
        self.counts["kernel.spmv"] += n_spmv
        self.counts["kernel.spmv_bytes"] += n_spmv * self._spmv_bytes(kernel, geometry)

    def _on_slice(self, idx, args, result):
        self.counts["kernel.slices"] += 1
        field = args["field"]
        key = (self._serial(field), float(args["t"]), field.geometry.wrap(args["x"]),
               float(args["tol"]))
        if not self._first_time("slice", key):
            self.counts["kernel.duplicate_slices"] += 1
        if any(layer.startswith("chaining.") for layer in self._ancestor_layers(idx)):
            self.counts["chaining.step_slices"] += 1

    def _on_evolve(self, idx, args, result):
        key = (float(args["t"]), float(args["tol"]))
        if key not in self._n_terms:
            self._n_terms[key] = len(_ORIGINAL_POISSON_WEIGHTS(*key)[0])
        kernel = args["kernel"]
        self._add_sweep(self._n_terms[key] - 1, kernel, kernel.geometry)

    def _on_profile(self, idx, args, result):
        self._add_sweep(result.coeff.shape[0] - 1, args["kernel"], result.geometry)
        self.counts["green.profiles"] += 1

    def _on_jump_kernel(self, idx, args, result):
        if not self._first_time("kernel", self._serial(args["field"])):
            self.counts["kernel.rebuilds"] += 1

    def _on_annealed(self, idx, args, result):
        self.counts["green.values"] += len(args["pairs"]) * int(args["n_samples"])

    def _on_green_kernel(self, idx, args, result):
        self.counts["green.values"] += 1

    def _on_report(self, idx, args, result):
        self.counts["reports.bytes"] += os.path.getsize(args["path"])
        rows = args.get("rows")
        if rows is not None:
            self.counts["reports.rows"] += len(rows)

    def _on_io(self, idx, args, result):
        self.counts["environment.io.bytes"] += os.path.getsize(args["path"])

    def _on_verify(self, idx, args, result):
        self.counts["envelopes.points_checked"] += result.n_checked

    def _on_sample(self, idx, args, result):
        spec, geometry = args["spec"], args["geometry"]
        key = (spec.canonical_json(), geometry.d, geometry.L, int(args["seed"]))
        if not self._first_time("field", key):
            self.counts["environment.duplicate_fields"] += 1
        _, start, end, _ = self.spans[idx]
        self.kind_time[spec.kind, geometry.n_edges] += end - start
        self.kind_fields[spec.kind, geometry.n_edges] += 1

    # -- aggregation -------------------------------------------------------

    def metrics(self, run_s):
        """Per-layer metrics of the pass just traced, by name.  The gate
        supplies ``green.oracle_rel_err``; ``trace.overhead_frac`` compares
        passes, so the caller adds both."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        outer_s = defaultdict(float)
        outer_calls = Counter()
        for i, (layer, start, end, parent) in enumerate(spans):
            duration = end - start
            self_s[layer] += duration - child[i]
            if parent < 0 or spans[parent][0] != layer:
                outer_s[layer] += duration
                outer_calls[layer] += 1
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        sweep_s = self_s["kernel.sweep"]
        out = {
            "kernel.spmv": c["kernel.spmv"],
            "kernel.spmv_ms": 1e3 * ratio(sweep_s, c["kernel.spmv"]),
            "kernel.spmv_gbps_computed": 1e-9 * ratio(c["kernel.spmv_bytes"], sweep_s),
            "kernel.sweeps": outer_calls["kernel.sweep"],
            "kernel.sweep.self_s": sweep_s,
            "kernel.slices": c["kernel.slices"],
            "kernel.slice.self_s": self_s["kernel.slice"],
            "kernel.profile_eval.calls": outer_calls["kernel.profile_eval"],
            "kernel.profile_eval.s": outer_s["kernel.profile_eval"],
            "kernel.jump_kernel.builds": outer_calls["kernel.jump_kernel"],
            "kernel.jump_kernel.s": outer_s["kernel.jump_kernel"],
            "kernel.rebuild_frac": ratio(c["kernel.rebuilds"], outer_calls["kernel.jump_kernel"]),
            "kernel.duplicate_slice_frac": ratio(c["kernel.duplicate_slices"],
                                                 c["kernel.slices"]),
            "poisson.weights.calls": outer_calls["poisson.weights"],
            "poisson.weights.s": outer_s["poisson.weights"],
            "poisson.tail.calls": sum(1 for s in spans if s[0] == "poisson.tail"),
            "poisson.tail.s": self_s["poisson.tail"],
            "green.annealed.self_s": self_s["green.annealed"],
            "green.kernel.self_s": self_s["green.kernel"],
            "green.profiles_per_value": ratio(c["green.profiles"], c["green.values"]),
            "reports.write.s": outer_s["reports.write"],
            "reports.bytes": c["reports.bytes"],
            "reports.rows": c["reports.rows"],
            "lattice.index.calls": c["lattice.index.calls"],
            "lattice.coords.calls": c["lattice.coords.calls"],
            "lattice.ball_indices.calls": outer_calls["lattice.ball_indices"],
            "lattice.ball_indices.s": outer_s["lattice.ball_indices"],
            "lattice.distance_field.calls": sum(1 for s in spans
                                                if s[0] == "lattice.distance_field"),
            "lattice.distance_field.s": self_s["lattice.distance_field"],
            "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
            "envelopes.stability_radius.calls": outer_calls["envelopes.stability_radius"],
            "envelopes.stability_radius.s": outer_s["envelopes.stability_radius"],
            "envelopes.fit.s": outer_s["envelopes.fit"],
            "envelopes.verify.self_s": self_s["envelopes.verify"],
            "envelopes.points_checked": c["envelopes.points_checked"],
            "chaining.bound.self_s": self_s["chaining.bound"],
            "chaining.calibrate.self_s": self_s["chaining.calibrate"],
            "chaining.step_slices": c["chaining.step_slices"],
            "environment.sample.s": outer_s["environment.sample"],
            "environment.sample.fields": outer_calls["environment.sample"],
            "environment.duplicate_field_frac": ratio(c["environment.duplicate_fields"],
                                                      outer_calls["environment.sample"]),
            "environment.moments.self_s": self_s["environment.moments"],
            "environment.io.s": outer_s["environment.io"],
            "environment.io.bytes": c["environment.io.bytes"],
            "moments.ladder.self_s": self_s["moments.ladder"],
            "moments.association.self_s": self_s["moments.association"],
            "moments.annealed_mean.self_s": self_s["moments.annealed_mean"],
            "fitting.bootstrap.s": outer_s["fitting.bootstrap"],
            "fitting.calls": outer_calls["fitting.bootstrap"],
            "trace.run_s": run_s,
            "trace.unattributed_frac": ratio(run_s - sum(self_s.values()), run_s),
        }
        for command in CLI_COMMANDS:
            out[f"cli.{command}.s"] = outer_s[f"cli.{command}"]
        for kind in SAMPLER_KINDS:
            # per field on the largest torus the pass samples this kind on
            sizes = [n for k, n in self.kind_fields if k == kind]
            key = (kind, max(sizes, default=0))
            out[f"environment.sample_ms.{kind}"] = 1e3 * ratio(self.kind_time[key],
                                                               self.kind_fields[key])
        return out


def _binder(fn):
    """Maps a call's arguments to parameter names, defaults filled in; a
    cheaper stand-in for ``inspect.Signature.bind`` on hot functions."""
    params = inspect.signature(fn).parameters.values()
    names = [p.name for p in params]
    defaults = {p.name: p.default for p in params if p.default is not inspect.Parameter.empty}

    def bind(args, kwargs):
        bound = dict(defaults)
        bound.update(zip(names, args))
        bound.update(kwargs)
        return bound

    return bind


def median_metrics(per_pass):
    """Median of each metric over the traced passes."""
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
