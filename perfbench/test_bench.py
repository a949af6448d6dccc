"""Self-test of the benchmark at the tiny smoke size.

    python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is emitted with its unit, that
tracing changes no output, and that the benchmark refuses to report from a
directory holding only itself.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import rcmlab.cli  # noqa: E402
import rcmlab.kernel  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_json_matches_the_tracer():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [tuple(m) for m in tracer.PER_LAYER]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tracing_changes_no_output(workload, tmp_path):
    wl = workloads.WORKLOADS[workload]
    inputs = wl.inputs(5, "tiny", str(tmp_path))
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = wl.run_pass(inputs, tmp_path / "plain", None)
    t = tracer.Tracer()
    originals = (rcmlab.kernel.heat_kernel, rcmlab.cli.write_csv,
                 rcmlab.kernel.TransitionProfile.prob)
    t.install()
    try:
        traced = wl.run_pass(inputs, tmp_path / "traced", t)
    finally:
        t.uninstall()
    assert (rcmlab.kernel.heat_kernel, rcmlab.cli.write_csv,
            rcmlab.kernel.TransitionProfile.prob) == originals
    assert t.spans, "the traced pass recorded no spans"
    if "out_dir" in plain:
        plain_files = _read_dir(plain["out_dir"])
        assert plain_files and plain_files == _read_dir(traced["out_dir"])
        assert plain["exit_codes"] == traced["exit_codes"]
    else:
        assert plain == traced


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cli-pipeline", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _read_dir(path):
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir())}
