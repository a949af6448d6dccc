import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import rcmlab.chaining
import rcmlab.cli
import rcmlab.envelopes
import rcmlab.environment
import rcmlab.green
import rcmlab.kernel
from rcmlab.cli import (EXIT_IO, EXIT_OK, EXIT_PRECONDITION, ExperimentConfig,
                        load_config, main)
from rcmlab.green import srw_green
from rcmlab.seeding import child_seed, rng_for
from test_acceptance import CLI_CONFIGS


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def base_config(**extra):
    cfg = {
        "geometry": {"d": 2, "L": 8},
        "environment": {"kind": "uniform-elliptic-iid", "low": 0.5, "high": 2.0},
        "seed": 11,
    }
    cfg.update(extra)
    return cfg


def read_dir_bytes(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


def test_config_roundtrip_and_hash():
    cfg = ExperimentConfig(base_config(heat={"times": [1.0], "sources": [[0, 0]]}))
    again = ExperimentConfig(json.loads(cfg.canonical_json()))
    assert again.canonical_json() == cfg.canonical_json()
    assert again.config_hash == cfg.config_hash
    assert len(cfg.config_hash) == 16


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown configuration keys"):
        ExperimentConfig(base_config(extra_section={}))
    with pytest.raises(ValueError, match="unknown keys in 'heat'"):
        ExperimentConfig(base_config(heat={"times": [1.0], "sourcez": []}))
    # quenched green fits no envelope, so its envelope keys are gone
    for key in ("tol", "envelope_times"):
        with pytest.raises(ValueError, match=rf"unknown keys in 'green': \['{key}'\]"):
            ExperimentConfig(base_config(green={key: 1.0}))
    with pytest.raises(ValueError, match="unknown keys in 'geometry'"):
        ExperimentConfig({"geometry": {"d": 2, "L": 8, "shape": "cube"},
                          "environment": {"kind": "constant"}, "seed": 0})
    with pytest.raises(ValueError, match="needs"):
        ExperimentConfig({"geometry": {"d": 2, "L": 8}, "seed": 0})


def test_env_roundtrip_and_determinism(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    assert main(["env", "--config", cfg_path, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["env", "--config", cfg_path, "--out", str(tmp_path / "b")]) == EXIT_OK
    assert read_dir_bytes(tmp_path / "a") == read_dir_bytes(tmp_path / "b")

    from rcmlab.environment import read_field, sample_environment
    from rcmlab.cli import load_config as lc

    config = lc(cfg_path)
    field = read_field(tmp_path / "a" / "field.rcm")
    direct = sample_environment(config.environment, config.geometry, config.seed)
    import numpy as np

    assert np.array_equal(field.values, direct.values)


def test_env_corrupted_magic(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    main(["env", "--config", cfg_path, "--out", str(tmp_path / "a")])
    raw = bytearray((tmp_path / "a" / "field.rcm").read_bytes())
    raw[:4] = b"ZZZZ"
    (tmp_path / "a" / "field.rcm").write_bytes(bytes(raw))
    from rcmlab.environment import read_field

    with pytest.raises(ValueError, match="bad format"):
        read_field(tmp_path / "a" / "field.rcm")


def test_heat_rows_and_zero_time(tmp_path):
    cfg = base_config(heat={"times": [0.0, 1.0], "sources": [[0, 0], [1, 1]],
                            "targets": [[0, 0], [1, 0], [2, 0]]})
    cfg_path = write_config(tmp_path, cfg)
    assert main(["heat", "--config", cfg_path, "--out", str(tmp_path / "h")]) == EXIT_OK
    lines = (tmp_path / "h" / "heat.csv").read_text().splitlines()
    assert lines[0].startswith("#config_hash=")
    assert lines[1] == "t,x,y,prob,hk"
    assert len(lines) == 2 + 2 * 2 * 3
    # the zero-time slice is a point mass at the source
    delta_row = [l for l in lines if l.startswith("0.0,0 0,0 0,")][0]
    assert delta_row.split(",")[3] == "1.0"


def test_heat_streams_its_table(tmp_path):
    # 8 full-torus blocks of 4096 rows.  Holding the whole table as rows peaked
    # at 7.0 MB under tracemalloc (Python 3.11, numpy 2.4); writing one block
    # at a time peaks at 2.6 MB
    cfg = ExperimentConfig(base_config(
        geometry={"d": 2, "L": 64},
        heat={"times": [1.0, 4.0, 16.0, 64.0], "sources": [[0, 0], [32, 32]]}))
    tracemalloc.start()
    try:
        assert rcmlab.cli.cmd_heat(cfg, str(tmp_path)) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6, peak
    lines = (tmp_path / "heat.csv").read_text().splitlines()
    assert len(lines) == 2 + 8 * 64 * 64


def test_seed_override_changes_output(tmp_path):
    cfg_path = write_config(tmp_path, base_config(heat={"times": [1.0], "sources": [[0, 0]]}))
    main(["heat", "--config", cfg_path, "--out", str(tmp_path / "s1")])
    main(["heat", "--config", cfg_path, "--out", str(tmp_path / "s2"), "--seed", "99"])
    assert read_dir_bytes(tmp_path / "s1") != read_dir_bytes(tmp_path / "s2")


def test_verify_self_mode_empty_violations(tmp_path):
    cfg = {
        "geometry": {"d": 2, "L": 16},
        "environment": {"kind": "constant", "level": 1.0},
        "seed": 1,
        "verify": {"times": [4.0, 8.0, 16.0], "sources": [[0, 0]],
                   "moment_samples": 16, "mode": "self"},
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v")]) == EXIT_OK
    report = json.loads((tmp_path / "v" / "envelope.json").read_text())
    assert report["n_violations"] == 0
    svg = (tmp_path / "v" / "envelope.svg").read_text()
    assert svg.count("<circle") == report["n_checked"]


def test_verify_cross_mode_and_violation_csv(tmp_path):
    cfg = {
        "geometry": {"d": 2, "L": 32},
        "environment": {"kind": "uniform-elliptic-iid", "low": 0.5, "high": 2.0},
        "seed": 3,
        "verify": {"times": [8.0, 16.0], "sources": [[0, 0]], "moment_samples": 200},
    }
    cfg_path = write_config(tmp_path, cfg)
    rc = main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v")])
    assert rc in (EXIT_OK, 2)
    report = json.loads((tmp_path / "v" / "envelope.json").read_text())
    lines = (tmp_path / "v" / "violations.csv").read_text().splitlines()
    assert len(lines) == 2 + report["n_violations"]
    # one N(x) table gates both bounds, written once
    assert set(report["threshold"]) == {"0 0"}
    assert "lower_threshold" not in report and "upper_threshold" not in report


def _start_state(rng):
    """A generator's PCG64 state before its first draw: one per stream."""
    return rng.bit_generator.state["state"]["state"]


def test_verify_moment_replicas_avoid_fit_and_verification_fields(tmp_path, monkeypatch):
    states = []
    real = rcmlab.environment._sample_values

    def recording(spec, geometry, rngs):
        states.extend(_start_state(rng) for rng in rngs)
        return real(spec, geometry, rngs)

    monkeypatch.setattr(rcmlab.environment, "_sample_values", recording)
    cfg = base_config(verify={"times": [4.0], "sources": [[0, 0]], "moment_samples": 16})
    # a family with no closed-form mean, so the moment replicas are drawn
    cfg["environment"] = {"kind": "finite-range", "range": 3}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v")]) in (EXIT_OK, 2)
    # 16 moment replicas, then the fit and the verification field, each once
    assert len(states) == len(set(states)) == 16 + 2
    for stream in (10, 11):
        assert states.count(_start_state(rng_for(child_seed(11, stream)))) == 1


@pytest.mark.parametrize("inject, side", [({"inject_upper_scale": 0.25}, "upper"),
                                          ({"inject_lower_scale": 4.0}, "lower")],
                         ids=["upper", "lower"])
def test_verify_injected_weak_constant_exits_two(tmp_path, inject, side):
    cfg = {
        "geometry": {"d": 2, "L": 16},
        "environment": {"kind": "constant", "level": 1.0},
        "seed": 1,
        "verify": {"times": [4.0, 8.0, 16.0], "sources": [[0, 0]],
                   "moment_samples": 16, "mode": "self", **inject},
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v")]) == 2
    report = json.loads((tmp_path / "v" / "envelope.json").read_text())
    assert report["n_violations"] > 0
    # the weakened side alone fails, on the diagonal too
    assert {v["side"] for v in report["violations"]} == {side}
    assert any(v["y"] == v["x"] for v in report["violations"])


@pytest.mark.parametrize("times", [[0.0, 4.0], [4.0, -1.0], [4.0, math.inf], [math.nan, 4.0]],
                         ids=["zero", "negative", "Infinity", "NaN"])
def test_verify_rejects_non_positive_times_before_any_work(tmp_path, monkeypatch, times):
    def no_sampling(*args):
        raise AssertionError("verify sampled a field before checking its times")

    monkeypatch.setattr(rcmlab.cli, "sample_environment", no_sampling)
    cfg = {
        "geometry": {"d": 2, "L": 16},
        "environment": {"kind": "constant", "level": 1.0},
        "seed": 1,
        "verify": {"times": times, "sources": [[0, 0]], "moment_samples": 16},
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == EXIT_PRECONDITION
    assert not out.exists()  # refused when the section loads, before --out exists


def test_moments_overflowing_log_mean_exits_three(tmp_path, capsys):
    # a Monte Carlo family with a finite E nu^200, whose rectangle moment
    # overflows in the log-mean accumulation
    cfg = {
        "geometry": {"d": 2, "L": 4},
        "environment": {"kind": "finite-range", "range": 1},
        "seed": 0,
        "moments": {"quantity": "nu", "p": 200, "sizes": [[1, 0]], "samples": 40},
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "m"
    assert main(["moments", "--config", cfg_path, "--out", str(out)]) == EXIT_PRECONDITION
    assert "overflow in moment accumulation" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("delta, expected", [(0.5, EXIT_PRECONDITION), (4, EXIT_OK)])
def test_verify_and_green_need_a_finite_nu_moment(tmp_path, capsys, delta, expected):
    # heavy-tail-zero weights have E nu^2 infinite exactly when 2 >= delta
    heavy = {"kind": "iid", "marginal": "heavy-tail-zero", "delta": delta}
    cfg = {
        "geometry": {"d": 2, "L": 64},
        "environment": heavy,
        "seed": 7,
        "verify": {"times": [16.0, 32.0, 64.0], "sources": [[0, 0], [20, 9]],
                   "moment_samples": 64},
    }
    out = tmp_path / "v"
    assert main(["verify", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == expected
    if expected == EXIT_PRECONDITION:
        assert "E nu(0)^2 is infinite" in capsys.readouterr().err
        assert os.listdir(out) == []
        green = {"geometry": {"d": 3, "L": 8}, "environment": heavy, "seed": 2,
                 "green": {"pairs": [[[0, 0, 0], [2, 0, 0]]]}}
        assert main(["green", "--config", write_config(tmp_path, green, "green.json"),
                     "--out", str(tmp_path / "g")]) == EXIT_PRECONDITION
        assert "E nu(0)^2 is infinite" in capsys.readouterr().err
    else:
        assert json.loads((out / "envelope.json").read_text())["n_checked"] > 0


def test_chain_command_and_near_diagonal_exit(tmp_path):
    cfg = {
        "geometry": {"d": 2, "L": 32},
        "environment": {"kind": "constant", "level": 1.0},
        "seed": 0,
        "chain": {"target": [6, 0], "time": 24.0},
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["chain", "--config", cfg_path, "--out", str(tmp_path / "c")]) == EXIT_OK
    report = json.loads((tmp_path / "c" / "chain.json").read_text())
    assert report["sound"] is True and report["steps_valid"] is True

    near = dict(cfg, chain={"target": [2, 0], "time": 64.0})
    near_path = write_config(tmp_path, near, "near.json")
    assert main(["chain", "--config", near_path,
                 "--out", str(tmp_path / "c2")]) == EXIT_PRECONDITION


def test_chain_checks_growth_and_power_with_a_fixed_amp(tmp_path):
    cfg = {
        "geometry": {"d": 2, "L": 32},
        "environment": {"kind": "constant", "level": 1.0},
        "seed": 0,
        "chain": {"target": [6, 0], "time": 24.0, "power": 0.5},
    }
    for name, chain in [("calibrated", cfg["chain"]), ("fixed", dict(cfg["chain"], amp=1.0))]:
        cfg_path = write_config(tmp_path, dict(cfg, chain=chain), f"{name}.json")
        assert main(["chain", "--config", cfg_path,
                     "--out", str(tmp_path / name)]) == EXIT_PRECONDITION


def test_chain_steps_hold_on_multi_member_balls(tmp_path):
    # r = 64: the interior chain balls have five members, so the calibrated
    # amplitude must hold on every member pair, not only on the waypoints
    cfg = {
        "geometry": {"d": 2, "L": 64},
        "environment": {"kind": "uniform-elliptic-iid", "low": 0.5, "high": 2.0},
        "seed": 3,
        "chain": {"target": [16, 0], "time": 1024.0},
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["chain", "--config", cfg_path, "--out", str(tmp_path / "c")]) == EXIT_OK
    report = json.loads((tmp_path / "c" / "chain.json").read_text())
    assert report["sound"] is True and report["steps_valid"] is True


def test_chain_builds_one_jump_kernel(tmp_path, monkeypatch):
    builds = []
    real = rcmlab.cli.jump_kernel

    def counting(field):
        builds.append(field)
        return real(field)

    for module in (rcmlab.cli, rcmlab.chaining):
        monkeypatch.setattr(module, "jump_kernel", counting)
    cfg = {
        "geometry": {"d": 2, "L": 32},
        "environment": {"kind": "constant", "level": 1.0},
        "seed": 0,
        "chain": {"target": [6, 0], "time": 24.0},
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["chain", "--config", cfg_path, "--out", str(tmp_path / "c")]) == EXIT_OK
    assert len(builds) == 1


@pytest.mark.parametrize("mode, expected", [("self", 1), ("cross", 2)])
def test_verify_builds_one_jump_kernel_per_field(tmp_path, monkeypatch, mode, expected):
    builds = []
    real = rcmlab.cli.jump_kernel

    def counting(field):
        builds.append(field)
        return real(field)

    monkeypatch.setattr(rcmlab.cli, "jump_kernel", counting)
    cfg = base_config(verify={"times": [4.0, 8.0], "sources": [[0, 0]],
                              "moment_samples": 16, "mode": mode})
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v")]) in (EXIT_OK, 2)
    assert len(builds) == expected


@pytest.mark.parametrize("mode, expected", [("self", 1), ("cross", 2)])
def test_verify_sweeps_each_field_once(tmp_path, monkeypatch, mode, expected):
    # self mode verifies on the fit's own slices; cross mode sweeps the
    # verification field once more
    sweeps = []
    real = rcmlab.kernel.heat_slices

    def counting(kernel, requests, tol=1e-10):
        sweeps.append(len(requests))
        return real(kernel, requests, tol)

    for module in (rcmlab.kernel, rcmlab.cli, rcmlab.envelopes, rcmlab.chaining):
        if getattr(module, "heat_slices", None) is real:  # wherever a module holds it
            monkeypatch.setattr(module, "heat_slices", counting)
    cfg = base_config(verify={"times": [4.0, 8.0], "sources": [[0, 0], [3, 1]],
                              "moment_samples": 16, "mode": mode})
    cfg_path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "v")]) in (EXIT_OK, 2)
    assert sweeps == [4] * expected


@pytest.mark.parametrize("literal", ["1e999", "Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("command, section", [
    ("heat", {"heat": {"times": [1.0, "T"], "sources": [[0, 0]]}}),
    ("verify", {"verify": {"times": [4.0, "T"], "sources": [[0, 0]], "moment_samples": 16}}),
    ("chain", {"chain": {"target": [2, 0], "time": "T"}}),
], ids=["heat", "verify", "chain"])
def test_non_finite_times_exit_three(tmp_path, capsys, command, section, literal):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(**section)).replace('"T"', literal))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_PRECONDITION
    assert re.fullmatch(r"error: [^\n]*time[^\n]*\n", capsys.readouterr().err)
    assert list(out.glob("*")) == []  # chain refuses at load, before --out exists


@pytest.mark.parametrize("time", [math.inf, math.nan, 0.0, -4.0])
def test_chain_time_must_be_finite_and_positive_when_the_section_loads(time):
    with pytest.raises(ValueError, match=r"^bad 'time' in 'chain': must be finite and positive"):
        ExperimentConfig(base_config(chain={"target": [2, 0], "time": time}))
    with pytest.raises(ValueError, match=r"^bad 'times' in 'verify': must be finite and positive"):
        ExperimentConfig(base_config(verify={"times": [4.0, time], "moment_samples": 16}))
    # the moment order of the centred sum, converted the same way
    with pytest.raises(ValueError, match=r"^bad 'eta' in 'moments': must be finite and positive"):
        ExperimentConfig(base_config(moments={"sizes": [[1, 0]], "eta": time}))


_LOADABLE = {
    "heat": {"times": [1.0], "sources": [[0, 0]]},
    "verify": {"times": [4.0], "sources": [[0, 0]], "moment_samples": 16},
    "chain": {"target": [2, 0], "time": 24.0},
    "moments": {"sizes": [[1, 0], [3, 1], [5, 2], [7, 3]], "samples": 8},
    "green": {"distances": [2]},
}


@pytest.mark.parametrize("command, key, value", [
    *[(command, key, value)
      for command, key in [("verify", "p"), ("verify", "q"), ("chain", "p"), ("chain", "q"),
                           ("moments", "p"), ("green", "p"), ("green", "q")]
      for value in (math.nan, math.inf, 0.0, -1.0)],
    *[(command, "tol", value) for command in ("heat", "verify", "chain")
      for value in (0.0, 1.0, math.nan)],
])
def test_exponents_and_tolerances_exit_three_when_the_section_loads(tmp_path, monkeypatch, capsys,
                                                                    command, key, value):
    def no_sampling(*args):
        raise AssertionError("a command sampled a field from a refused configuration")

    monkeypatch.setattr(rcmlab.cli, "sample_environment", no_sampling)
    cfg = base_config(**{command: dict(_LOADABLE[command], **{key: value})})
    if command == "green":
        cfg["geometry"] = {"d": 3, "L": 8}
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) \
        == EXIT_PRECONDITION
    assert capsys.readouterr().err.startswith(f"error: bad {key!r} in {command!r}: must be ")
    assert not out.exists()


def test_moments_command_row_count(tmp_path):
    cfg = base_config(moments={"quantity": "mu", "p": 1, "eta": 2.0,
                               "sizes": [[1, 0], [3, 1], [5, 2], [7, 3]],
                               "samples": 60, "mean_samples": 32})
    cfg["geometry"] = {"d": 2, "L": 16}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["moments", "--config", cfg_path, "--out", str(tmp_path / "m")]) == EXIT_OK
    lines = (tmp_path / "m" / "ladder.csv").read_text().splitlines()
    assert len(lines) == 2 + 4
    report = json.loads((tmp_path / "m" / "moments.json").read_text())
    assert len(report["sizes"]) == 4


_CLI_PROBE = """
import sys
from rcmlab.cli import main
for command in ("env", "moments", "heat"):
    code = main([command, "--config", f"{sys.argv[1]}/{command}.json",
                 "--out", f"{sys.argv[1]}/{command}"])
    # any scipy submodule loads the scipy package first
    print(command, code, "scipy" in sys.modules, "scipy.sparse" in sys.modules)
"""


def test_env_and_moments_run_without_scipy_and_heat_loads_it(tmp_path):
    # criterion 12's configs, in a fresh process: sampling and the moment
    # ladder build no kernel, so no scipy module may load before heat
    for name in ("env", "moments", "heat"):
        write_config(tmp_path, CLI_CONFIGS[name], f"{name}.json")
    src = os.path.dirname(os.path.dirname(rcmlab.cli.__file__))
    out = subprocess.run([sys.executable, "-c", _CLI_PROBE, str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == ["env 0 False False", "moments 0 False False", "heat 0 True True"]


def test_green_command_and_dimension_guard(tmp_path):
    cfg = {
        "geometry": {"d": 3, "L": 16},
        "environment": {"kind": "constant", "level": 1.0},
        "seed": 2,
        "green": {"pairs": [[[0, 0, 0], [3, 0, 0]]]},
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["green", "--config", cfg_path, "--out", str(tmp_path / "g")]) == EXIT_OK
    report = json.loads((tmp_path / "g" / "green.json").read_text())
    assert report["mode"] == "quenched" and len(report["values"]) == 1
    csv_text = (tmp_path / "g" / "green.csv").read_text()
    assert "np.float" not in csv_text  # plain shortest round-trip floats only
    value_cell = csv_text.splitlines()[2].split(",")[3]
    assert float(value_cell) == pytest.approx(report["values"][0])

    flat = dict(cfg, geometry={"d": 2, "L": 16},
                green={"pairs": [[[0, 0], [3, 0]]]})
    flat_path = write_config(tmp_path, flat, "flat.json")
    assert main(["green", "--config", flat_path,
                 "--out", str(tmp_path / "g2")]) == EXIT_PRECONDITION


_CONSTANT_32 = {
    "geometry": {"d": 3, "L": 32},
    "environment": {"kind": "constant", "level": 1.0},
    "seed": 2,
    "green": {"distances": [3, 4, 6]},
}


@pytest.mark.parametrize("cfg, split_time, rel", [
    (_CONSTANT_32, 128.0, 5e-3),  # 32^2/8
    (CLI_CONFIGS["green"], 32.0, 1e-2),  # 16^2/8
], ids=["constant-32", "criterion-12"])
def test_quenched_green_matches_the_lattice_oracle(tmp_path, monkeypatch, cfg, split_time, rel):
    sweeps = []
    real = rcmlab.green.propagate

    def counting(*args, **kwargs):
        sweeps.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(rcmlab.green, "propagate", counting)
    out = tmp_path / "g"
    assert main(["green", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    assert len(sweeps) == 1  # one sweep per source, not one per pair
    header, *rows = [line.split(",") for line in (out / "green.csv").read_text().splitlines()[1:]]
    assert header == ["x", "y", "dist", "g", "g_scaled", "split_time", "trunc_error"]
    report = json.loads((out / "green.json").read_text())
    assert set(report) == {"config_hash", "version", "mode", "pairs", "values", "threshold"}
    assert report["threshold"] == {"0 0 0": 1}  # constant ball averages: N(x) = 1
    for (x, y), row in zip(report["pairs"], rows, strict=True):
        oracle = srw_green(tuple(b - a for a, b in zip(x, y))) / 6.0
        assert float(row[3]) == pytest.approx(oracle, rel=rel)
        assert float(row[5]) == split_time
        # T0 times the sweep's truncation bound (at most its tol), over mu(y) = 6
        assert 0.0 < float(row[6]) <= split_time * rcmlab.green._HEAD_TOL / 6.0


def test_quenched_green_refuses_a_pair_too_far_for_the_torus(tmp_path, capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled a field for a pair the torus cannot resolve")

    monkeypatch.setattr(rcmlab.cli, "sample_environment", no_sampling)
    # 16^2/8 caps the split time at 32, below 6^2
    cfg = dict(_CONSTANT_32, geometry={"d": 3, "L": 16}, green={"distances": [6]})
    out = tmp_path / "g"
    assert main(["green", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == EXIT_PRECONDITION
    assert "is too far for L = 16" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_quenched_green_threshold_is_the_measured_fields_radius_table(tmp_path):
    from rcmlab.envelopes import stability_radius
    from rcmlab.environment import sample_environment
    from rcmlab.moments import annealed_power_mean

    cfg = {
        "geometry": {"d": 3, "L": 16},
        "environment": {"kind": "iid", "marginal": "lognormal", "sigma": 1.0},
        "seed": 7,
        "green": {"pairs": [[[0, 0, 0], [2, 0, 0]], [[5, 5, 5], [5, 7, 5]],
                            [[0, 0, 0], [0, 0, 3]]],
                  "p": 4.0, "q": 4.0, "moment_samples": 8},
    }
    out = tmp_path / "g"
    assert main(["green", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "green.json").read_text())
    # one entry per distinct source, N(x) of the field the values were read on,
    # against the annealed means of mu^4 and nu^4
    config = ExperimentConfig(cfg)
    geo = config.geometry
    field = sample_environment(config.environment, geo, 7)
    means = annealed_power_mean(config.environment, geo, {"mu": 4.0, "nu": 4.0},
                                n_fields=8, seed=7)
    expected = {" ".join(map(str, x)): stability_radius(field, x, 4.0, 4.0, means["mu"],
                                                        means["nu"], 8)
                for x in [(0, 0, 0), (5, 5, 5)]}
    assert report["threshold"] == expected == {"0 0 0": 8, "5 5 5": 5}
    rows = [line.split(",") for line in (out / "green.csv").read_text().splitlines()[2:]]
    assert [row[:3] for row in rows] == [["0 0 0", "2 0 0", "2"], ["5 5 5", "5 7 5", "2"],
                                         ["0 0 0", "0 0 3", "3"]]
    assert all(float(row[3]) > 0.0 for row in rows)


def test_green_annealed_artifacts_are_deterministic_and_name_the_split(tmp_path):
    cfg = {
        "geometry": {"d": 3, "L": 24},
        "environment": {"kind": "constant", "level": 1.0},
        "seed": 5,
        "green": {"mode": "annealed", "distances": [2, 3, 4], "samples": 2},
    }
    cfg_path = write_config(tmp_path, cfg)
    for out in ("a", "b"):
        assert main(["green", "--config", cfg_path, "--out", str(tmp_path / out)]) == EXIT_OK
    assert read_dir_bytes(tmp_path / "a") == read_dir_bytes(tmp_path / "b")
    header, *rows = [row.split(",") for row in
                     (tmp_path / "a" / "green.csv").read_text().splitlines()[1:]]
    assert header == ["x", "y", "dist", "mean", "stderr", "split_time", "trunc_error"]
    # the largest power of two <= 24^2/8 caps the default 128
    assert [row[5] for row in rows] == ["64.0"] * 3
    # the largest replica bound, T0 times at most the sweep's tol over mu(y) = 6
    assert all(0.0 < float(row[6]) <= 64.0 * rcmlab.green._HEAD_TOL / 6.0 for row in rows)
    report = json.loads((tmp_path / "a" / "green.json").read_text())
    assert report["expected_slope"] == -1.0
    low, high = report["slope_ci"]
    assert report["slope_ci_contains_expected"] is (low <= -1.0 <= high)

    # 9^2 > 64: the torus cannot resolve the pair, so nothing is written
    far = dict(cfg, green=dict(cfg["green"], distances=[2, 9]))
    far_path = write_config(tmp_path, far, "far.json")
    assert main(["green", "--config", far_path, "--out", str(tmp_path / "c")]) == EXIT_PRECONDITION
    assert os.listdir(tmp_path / "c") == []


@pytest.mark.parametrize("command, change", [
    ("heat", {"heat": {"sources": [[0, 0]]}}),
    ("chain", {"chain": {"time": 24.0}}),
    ("heat", {"heat": {"times": [1.0], "sources": [[0, 0]], "tol": None}}),
    ("heat", {"heat": 5}),
    ("env", {"environment": {"kind": "iid", "marginal": "lognormal", "sigma": None}}),
    ("env", {"environment": {"kind": "iid", "marginal": "heavy-tail-zero", "delta": "0.5"}}),
    ("green", {"geometry": {"d": 3, "L": 8}, "green": {"mode": "anealed", "distances": [2]}}),
    ("verify", {"verify": {"times": [4.0], "mode": "selff"}}),
    ("moments", {"moments": {"quantity": "mu2", "sizes": [[1, 0]]}}),
    ("heat", {"heat": {"times": [1.0], "sources": [[0, 0, 0]]}}),
    ("heat", {"heat": {"times": [1.0], "sources": [[0, 0]], "targets": [[1]]}}),
    ("verify", {"verify": {"times": [4.0], "sources": [[0, 0, 0]]}}),
    ("chain", {"chain": {"target": [6], "time": 24.0}}),
    ("green", {"geometry": {"d": 3, "L": 8}, "green": {"pairs": [[[0, 0], [2, 0]]]}}),
    ("green", {"geometry": {"d": 3, "L": 8},
               "green": {"pairs": [[[0, 0, 0], [2, 0, 0], [3, 0, 0]]]}}),
    ("green", {"geometry": {"d": 3, "L": 8}, "green": {"pairs": [[[0, 0, 0]]]}}),
    ("green", {"geometry": {"d": 3, "L": 8},
               "green": {"mode": "annealed", "pairs": [[[0, 0, 0], [2, 0, 0], [3, 0, 0]]]}}),
    ("green", {"geometry": {"d": 3, "L": 8},
               "green": {"mode": "annealed", "pairs": [[[0, 0, 0]]]}}),
    ("green", {"geometry": {"d": 3, "L": 8}, "green": {"tol": 1.0}}),
    ("green", {"geometry": {"d": 3, "L": 8}, "green": {"envelope_times": [8.0, 16.0]}}),
    ("env", {"seed": 1.5}),
    ("moments", {"moments": {"sizes": [[1, 0]], "samples": 2.7}}),
    ("heat", {"heat": {"times": [1.0], "sources": [[0.7, 2.9]]}}),
    ("heat", {"geometry": {"d": 2, "L": 16.5}, "heat": {"times": [1.0], "sources": [[0, 0]]}}),
    ("heat", {"geometry": {"d": 2.5, "L": 8}, "heat": {"times": [1.0], "sources": [[0, 0]]}}),
], ids=["heat-no-times", "chain-no-target", "null-tol", "heat-not-object", "null-sigma",
        "string-delta", "green-mode", "verify-mode", "moments-quantity", "heat-source-length",
        "heat-target-length", "verify-source-length", "chain-target-length",
        "green-pair-length", "green-three-points", "green-one-point",
        "annealed-three-points", "annealed-one-point", "green-tol", "green-envelope-times",
        "fractional-seed", "fractional-samples", "fractional-source", "fractional-side",
        "fractional-dimension"])
def test_malformed_config_exits_three_before_any_work(tmp_path, monkeypatch, command, change):
    def no_sampling(*args):
        raise AssertionError("a command sampled a field from a malformed configuration")

    monkeypatch.setattr(rcmlab.cli, "sample_environment", no_sampling)
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_config(**change))
    assert main([command, "--config", cfg_path, "--out", str(out)]) == EXIT_PRECONDITION
    assert not out.exists()


def test_integral_float_geometry_loads_as_integers(tmp_path):
    heat = {"times": [1.0], "sources": [[0, 0]]}
    cfg_path = write_config(tmp_path, base_config(geometry={"d": 2.0, "L": 8.0}, heat=heat))
    geo = load_config(cfg_path).geometry
    assert (geo.d, geo.L) == (2, 8) and type(geo.d) is type(geo.L) is int
    assert main(["heat", "--config", cfg_path, "--out", str(tmp_path / "h")]) == EXIT_OK
    plain = write_config(tmp_path, base_config(heat=heat), "plain.json")
    assert main(["heat", "--config", plain, "--out", str(tmp_path / "p")]) == EXIT_OK
    # the same table; only the metadata line's configuration hash differs
    tables = [(tmp_path / out / "heat.csv").read_text().split("\n", 1)[1] for out in "hp"]
    assert tables[0] == tables[1]


def test_config_sections_fill_in_defaults():
    cfg = ExperimentConfig(base_config(heat={"times": [1], "sources": [[0, 0]], "tol": "1e-10"},
                                       chain={"target": [6, 0], "time": 24, "amp": None}))
    assert cfg.section("heat") == {"times": (1.0,), "sources": ((0, 0),), "targets": None,
                                   "tol": 1e-10}
    # an integral float still loads as an integer
    whole = ExperimentConfig(base_config(seed=3.0, heat={"times": [1], "sources": [[3.0, 0]]},
                                         moments={"sizes": [[1, 0]], "samples": 3.0}))
    assert whole.seed == 3 and whole.section("heat")["sources"] == ((3, 0),)
    assert whole.section("moments")["samples"] == 3
    chain = cfg.section("chain")
    assert chain["amp"] is None and chain["time"] == 24.0 and chain["p"] == 2.0
    with pytest.raises(ValueError, match="needs a 'verify' section"):
        cfg.section("verify")


def test_readme_configuration_matches_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = ExperimentConfig(json.loads(example))
    assert cfg.section("verify")["moment_samples"] == 512
    assert cfg.section("green")["mode"] == "quenched"
    # the key tables: a `section` line, then rows of `key` | `default` | meaning
    tables = readme.split("### Configuration keys", 1)[1].split("Environment kinds", 1)[0]
    documented = {}
    for line in tables.splitlines():
        if re.fullmatch(r"`\w+`( \(.*\))?", line):
            section = documented.setdefault(line.split("`")[1], {})
        elif line.startswith("| `"):
            keys, defaults = line.split("|")[1:3]
            section.update(zip(re.findall(r"`(\w+)`", keys),
                               re.findall(r"`[^`]*`|required", defaults)))
    assert documented == {
        name: {key: "required" if default is rcmlab.cli._REQUIRED else f"`{json.dumps(default)}`"
               for key, (_, default) in schema.items()}
        for name, schema in rcmlab.cli._SECTIONS.items()}


def test_missing_config_is_io_error(tmp_path):
    assert main(["heat", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == EXIT_IO


def test_bad_config_is_precondition_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["heat", "--config", str(path), "--out", str(tmp_path / "x")]) == EXIT_PRECONDITION
    cfg_path = write_config(tmp_path, base_config())  # heat section missing
    assert main(["heat", "--config", cfg_path, "--out", str(tmp_path / "y")]) == EXIT_PRECONDITION


def test_outputs_embed_hash_and_version(tmp_path):
    cfg = base_config(heat={"times": [1.0], "sources": [[0, 0]]})
    cfg_path = write_config(tmp_path, cfg)
    main(["heat", "--config", cfg_path, "--out", str(tmp_path / "h")])
    config = load_config(cfg_path)
    first = (tmp_path / "h" / "heat.csv").read_text().splitlines()[0]
    assert config.config_hash in first and "0.1.0" in first
