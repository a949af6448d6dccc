#!/usr/bin/env python3
"""rcmlab benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload annealed-green --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median time of one
pass), ``setup_s`` (median over fresh processes of importing rcmlab and
rcmlab.cli plus input generation) and ``peak_rss_mb``.  Both times are wall
times scaled to a fixed host speed by the reference in ``hostspeed.py``,
timed before and after each interval.  ``--trace 1``
alternates untraced passes with passes traced layer by layer (see
``tracer.py``) and reports the per-layer metrics.  Every pass is gated for
correctness; ``fail_frac`` is failed checks over attempted checks.  The last
line of standard output is one JSON object; the exit code is non-zero when a
gate fails.  Records and spans go to ``.perfbench/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("annealed-green", "cli-pipeline", "sampler-ensemble")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2  # fresh processes besides this one
MIN_PASSES = 3
MIN_TRACED = 2


def cap_threads():
    """Cap BLAS/OpenMP pools at the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def environment_record(nproc):
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "cpu": cpu,
            **{var: os.environ[var] for var in THREAD_VARS}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test's smoke size")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def timed_setup(args, work_dir):
    """Import rcmlab and rcmlab.cli and build the inputs; returns the
    workload, its inputs and the seconds it took."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import rcmlab  # noqa: F401
    import rcmlab.cli  # noqa: F401
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed, args.size, str(work_dir))
    return wl, inputs, time.perf_counter() - start


def setup_probe(args):
    work_dir = ROOT / ".perfbench" / f"probe-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        _, _, elapsed = timed_setup(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def probe_setups(args, reference, ref_before):
    """Setup times of fresh processes, each importing and building inputs,
    scaled by the reference timed before and after each; returns the wall
    and scaled times and the last reference time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    walls, times = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        ref_after = reference.seconds()
        walls.append(seconds)
        times.append(reference.scale(seconds, (ref_before, ref_after)))
        ref_before = ref_after
    return walls, times, ref_before


class Runner:
    """Runs passes of one workload and gates each one as soon as it ends.

    The first pass gets the full gate, and so does any pass whose outputs
    differ from it; the others get the cheap checks plus the identity check.
    Output directories are deleted once gated, before the kernel would write
    them back to disk.  The host-speed reference is timed after every pass;
    ``ref_before`` is its time just before the first one."""

    def __init__(self, wl, inputs, work_dir, reference, ref_before):
        self.wl = wl
        self.inputs = inputs
        self.work_dir = work_dir
        self.reference = reference
        self.refs = [ref_before]
        self.passes = []  # (label, wall seconds, scaled seconds)
        self.checks = []  # (name, ok)
        self.info = {}
        self._first_digest = None

    def run(self, label, tracer=None):
        """Runs, times and gates one pass; returns its wall and scaled seconds."""
        index = len(self.passes)
        out_dir = self.work_dir / f"pass{index}"
        out_dir.mkdir()
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            result = self.wl.run_pass(self.inputs, out_dir, tracer)
        except Exception:  # a crashing pass is a failed check, not a crashed benchmark
            traceback.print_exc()
            result = None
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        self.refs.append(self.reference.seconds())
        at_nominal = self.reference.scale(seconds, self.refs[-2:])
        self.passes.append((label, seconds, at_nominal))
        self._gate(f"pass {index} ({label})", result)
        shutil.rmtree(out_dir)
        return seconds, at_nominal

    def _gate(self, tag, result):
        if result is None:
            self.checks.append((f"{tag}: completed", False))
            return
        digest = self.wl.digest(result)
        first = self._first_digest is None
        if first:
            self._first_digest = digest
        same = digest == self._first_digest
        checks, info = self.wl.gate(self.inputs, result, full=first or not same)
        self.info = self.info or info
        self.checks += [(f"{tag}: {name}", bool(ok)) for name, ok in checks]
        if not first:
            self.checks.append((f"{tag}: outputs identical to the first pass", same))


def measure(args, runner, tracer_cls):
    """Timed passes for about ``args.seconds``; traced runs alternate
    untraced and traced passes.  There is no warm-up pass: a user of the CLI
    pays the first-call costs on every run, and the median absorbs them.
    Returns the scaled pass times by label and the tracers of the traced
    passes, keyed by pass index."""
    tracers = {}
    timed = {"untraced": [], "traced": []}
    walls = []
    start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(timed["traced"]) < len(timed["untraced"])
        label = "traced" if traced else "untraced"
        tracer = tracer_cls() if traced else None
        wall, at_nominal = runner.run(label, tracer)
        walls.append(wall + runner.refs[-1])
        timed[label].append(at_nominal)
        if tracer is not None:
            tracers[len(runner.passes) - 1] = tracer
        if args.trace:
            done = len(timed["traced"]) == len(timed["untraced"]) >= MIN_TRACED
        else:
            done = len(timed["untraced"]) >= MIN_PASSES
        typical = statistics.median(walls)
        if done and time.perf_counter() - start + typical > args.seconds:
            return timed, tracers


def summarise(values, walls):
    return {"n": len(values), "min": min(values), "max": max(values),
            "wall_median": statistics.median(walls)}


def run_workload(args, nproc):
    results_dir = ROOT / ".perfbench"
    work_dir = results_dir / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wl, inputs, setup_here = timed_setup(args, work_dir)
        import hostspeed

        reference = hostspeed.Reference()
        ref = reference.seconds()
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "size": args.size,
                  "environment": environment_record(nproc),
                  "reference_nominal_s": hostspeed.NOMINAL_S}
        setup_walls = [setup_here]
        setup_times = [reference.scale(setup_here, [ref])]
        if args.trace == 0:
            walls, probed, ref = probe_setups(args, reference, ref)
            setup_walls += walls
            setup_times += probed
        tracer_cls = None
        if args.trace:
            import tracer

            tracer_cls = tracer.Tracer
        runner = Runner(wl, inputs, work_dir, reference, ref)
        timed, tracers = measure(args, runner, tracer_cls)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if tracers:
        with open(results_dir / f"{stem}-spans.jsonl", "w") as fh:
            for index, t in tracers.items():
                t.dump(fh, index)
        per_layer = [t.metrics(runner.passes[i][1]) for i, t in tracers.items()]
    checks = runner.checks
    failed = sum(1 for _, ok in checks if not ok)
    table = {}
    if args.trace == 0:
        run_times = timed["untraced"]
        run_walls = [wall for label, wall, _ in runner.passes if label == "untraced"]
        table["run_s"] = (statistics.median(run_times), "s", summarise(run_times, run_walls))
        table["setup_s"] = (statistics.median(setup_times), "s",
                            summarise(setup_times, setup_walls))
        table["peak_rss_mb"] = (peak_rss_mb, "MB", {"n": 1})
    else:
        medians = tracer.median_metrics(per_layer)
        medians.update(runner.info)
        medians.setdefault("green.oracle_rel_err", 0.0)
        medians["trace.overhead_frac"] = (statistics.median(timed["traced"])
                                          / statistics.median(timed["untraced"]) - 1.0)
        for name, unit, _ in tracer.PER_LAYER:
            table[name] = (medians[name], unit, {"n": len(per_layer)})

    for name, ok in checks:
        if not ok:
            print(f"FAILED check: {name}")
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(runner.passes)} passes, "
          f"{len(checks)} checks")
    for name, (value, unit, stats) in table.items():
        extra = "".join(f" {k}={v:.6g}" for k, v in stats.items() if k != "n")
        print(f"  {name:<40} {value:>14.6g} {unit:<6} n={stats['n']}{extra}")
    print(f"  {'fail_frac':<40} {failed / len(checks):>14.6g} ratio  "
          f"n={len(checks)} ({failed} failed)")

    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in table.items()}}
    record.update(result, fail_frac=failed / len(checks), checks=checks,
                  samples={name: stats for name, (_, _, stats) in table.items()},
                  pass_seconds=runner.passes, reference_seconds=runner.refs)
    with open(results_dir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in a fresh process, then one summary table."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
        summary["metrics"][f"{name}.fail_frac"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
    print(json.dumps(summary))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "rcmlab" / "__init__.py").is_file():
        sys.exit(f"error: no rcmlab source tree under {ROOT}; run from a checkout")
    if args.workload == "all":
        return run_all(args)
    nproc = cap_threads()
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
