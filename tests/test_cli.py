import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bittide_sim import (ReframeSchedule, cli, generate_topology,
                         make_system_params, prepare, run, spectral)
from bittide_sim import config as config_mod
from bittide_sim import controller, dynamics
from bittide_sim.cli import _fmt, main, read_trace_csv, trace_csv
from bittide_sim.graph import MAX_EDGES, MAX_NODES
from conftest import BAD_TRACES, count_calls

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_run_e1_trace_and_summary(tmp_path, capsys):
    assert run_cli("run", "--config", CONFIG_DIR / "e1.json",
                   "--out", tmp_path) == 0
    trace = (tmp_path / "trace.csv").read_text()
    header = trace.splitlines()[0]
    assert header == "t,mode,omega_1,omega_2,c_1,c_2,beta_1,beta_2"
    times, modes, omega, corr, beta = read_trace_csv(tmp_path / "trace.csv")
    # reframe instant appears twice with a correction discontinuity
    dup = np.flatnonzero(np.diff(times) == 0.0)
    assert len(dup) == 1
    i = dup[0]
    assert modes[i] == "pre-reframe" and modes[i + 1] == "post-reframe"
    assert abs(corr[i + 1] - corr[i]).max() > 5e-3
    # terminal values match the hand oracle
    np.testing.assert_allclose(omega[-1], [1.01, 1.01], atol=1e-9)
    np.testing.assert_allclose(beta[-1], [10.0, 10.0], atol=1e-6)

    summary = json.loads((tmp_path / "summary.json").read_text())
    np.testing.assert_allclose(summary["predicted"]["omega_ss"], [1.01, 1.01],
                               atol=1e-12)
    np.testing.assert_allclose(summary["predicted"]["beta_ss_pre_reframe"],
                               [9.9, 10.1], atol=1e-10)
    np.testing.assert_allclose(summary["simulated"]["reframe_payload"],
                               [0.01, -0.01], atol=1e-9)


def test_run_is_byte_deterministic(tmp_path):
    run_cli("run", "--config", CONFIG_DIR / "e1.json", "--out", tmp_path / "a")
    run_cli("run", "--config", CONFIG_DIR / "e1.json", "--out", tmp_path / "b")
    assert (tmp_path / "a/trace.csv").read_bytes() == \
        (tmp_path / "b/trace.csv").read_bytes()
    assert (tmp_path / "a/summary.json").read_bytes() == \
        (tmp_path / "b/summary.json").read_bytes()


def test_run_uniform_clocks_constant_rows(tmp_path):
    cfg = tmp_path / "uniform.json"
    cfg.write_text(json.dumps({
        "topology": "ring", "n": 3, "k": 0.5, "omega_u": 1.0,
        "controller": "proportional",
        "integrator": {"horizon": 10.0, "sample_interval": 1.0}}))
    assert run_cli("run", "--config", cfg, "--out", tmp_path) == 0
    _, _, omega, corr, beta = read_trace_csv(tmp_path / "trace.csv")
    assert np.ptp(omega, axis=0).max() <= 1e-12
    assert np.abs(corr).max() <= 1e-12
    assert np.ptp(beta, axis=0).max() <= 1e-12


def test_run_discrete_writes_fault_log(tmp_path):
    assert run_cli("run", "--config", CONFIG_DIR / "e1_discrete.json",
                   "--out", tmp_path) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["mode"] == "discrete"
    assert summary["faults"] == []
    assert (tmp_path / "faults.csv").read_text().splitlines()[0] == \
        "edge,t,direction,occupancy"
    times, modes, omega, corr, beta = read_trace_csv(tmp_path / "trace.csv")
    assert np.abs(beta[-1] - 10.0).max() <= 2.0


def test_analyze_e1(tmp_path):
    assert run_cli("analyze", "--config", CONFIG_DIR / "e1.json",
                   "--out", tmp_path) == 0
    report = json.loads((tmp_path / "analysis.json").read_text())
    np.testing.assert_allclose(report["z"], [0.5, 0.5], atol=1e-14)
    eigs = sorted((e["re"], e["im"]) for e in report["eigenvalues"])
    np.testing.assert_allclose(eigs, [(-0.2, 0.0), (0.0, 0.0)], atol=1e-12)
    np.testing.assert_allclose(report["omega_ss"], [1.01, 1.01], atol=1e-12)
    np.testing.assert_allclose(report["beta_ss_pre_reframe"], [9.9, 10.1],
                               atol=1e-10)
    assert report["recommended_horizon"] == pytest.approx(250.0)


def test_analyze_ring3_spectrum(tmp_path):
    cfg = tmp_path / "ring3.json"
    cfg.write_text(json.dumps({"topology": "ring", "n": 3, "k": 1.0,
                               "omega_u": 1.0}))
    assert run_cli("analyze", "--config", cfg, "--out", tmp_path) == 0
    report = json.loads((tmp_path / "analysis.json").read_text())
    eigs = sorted((round(e["re"], 6), round(e["im"], 6))
                  for e in report["eigenvalues"])
    assert eigs == [(-1.5, -0.866025), (-1.5, 0.866025), (0.0, 0.0)]
    np.testing.assert_allclose(report["beta_ss_pre_reframe"],
                               report["beta_off"], atol=1e-10)


def test_verify_subcommand_exit_codes(tmp_path):
    assert run_cli("verify", "--count", 4, "--seed", 7, "--infeasible", 3,
                   "--out", tmp_path) == 0
    report = json.loads((tmp_path / "battery.json").read_text())
    assert report["all_pass"]


def _verify_rejected(tmp_path, capsys, *flags) -> str:
    """Runs `verify` with the flags, which must exit 2 with one `error:`
    line and write no report; returns that line."""
    assert run_cli("verify", *flags, "--out", tmp_path) == 2
    assert not (tmp_path / "battery.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_verify_n_min_above_n_max_exits_2(tmp_path, capsys):
    # ended in numpy's `low >= high` ValueError traceback, exit 1
    assert _verify_rejected(tmp_path, capsys, "--n-min", 5, "--n-max", 2) == (
        "error: --n-max must be at least --n-min 5, got 2\n")


def test_verify_n_min_below_two_exits_2(tmp_path, capsys):
    # drew one-node scenarios and reported "n = 1"
    assert _verify_rejected(tmp_path, capsys, "--n-min", 0) == (
        "error: --n-min must be at least 2, got 0\n")


def test_verify_negative_count_exits_2(tmp_path, capsys):
    # ran no scenario and exited 0 with "all pass"
    assert _verify_rejected(tmp_path, capsys, "--count", -1) == (
        "error: --count must be at least 0, got -1\n")


def test_verify_negative_infeasible_count_exits_2(tmp_path, capsys):
    # exited 0 with "all pass" and wrote "infeasible_count": -3
    assert _verify_rejected(tmp_path, capsys, "--count", 2,
                            "--infeasible", -3) == (
        "error: --infeasible must be at least 0, got -3\n")


def test_verify_negative_seed_exits_2(tmp_path, capsys):
    # ended in numpy's `expected non-negative integer` ValueError traceback
    assert _verify_rejected(tmp_path, capsys, "--count", 2, "--seed", -5) == (
        "error: --seed must be at least 0, got -5\n")


def test_corrupt_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_cli("run", "--config", bad, "--out", tmp_path) == 2
    assert "error" in capsys.readouterr().err


def _e1_with(tmp_path, **changes):
    """configs/e1.json with top-level keys replaced, as a new file."""
    raw = json.loads((CONFIG_DIR / "e1.json").read_text())
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**raw, **changes}))
    return path


def _rejected(tmp_path, capsys, config, *flags) -> str:
    """Runs the config, which must exit 2 with an `error: config.` line and
    no trace; returns stderr."""
    out = tmp_path / "out"
    assert run_cli("run", "--config", config, "--out", out, *flags) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error: config.") for line in err.splitlines())
    assert not (out / "trace.csv").exists()
    return err


@pytest.mark.parametrize("key, value", [
    ("capacity", 0), ("capacity", -1), ("control_period", 0),
    ("quantization", -1),
    # a NaN period never fired a controller: exit 1 with no error line
    ("control_period", float("nan")), ("control_period", float("inf"))])
def test_discrete_range_error_exits_2_naming_config_discrete(
        tmp_path, capsys, key, value):
    config = _e1_with(tmp_path, discrete={key: value})
    err = _rejected(tmp_path, capsys, config, "--discrete")
    if value in (0, -1):
        assert err.startswith("error: config.discrete: ")
    else:   # a period that is not finite is refused at parse time
        assert err == ("error: config.discrete.control_period: must be "
                       f"finite, got {value}\n")


@pytest.mark.parametrize("unit", [2**52, 2**63])
def test_huge_quantization_exits_2_naming_it(tmp_path, capsys, unit):
    # a unit of 2**63 ended in an OverflowError traceback from the first
    # quantized occupancy; frames are counted below 2**52
    config = _e1_with(tmp_path, discrete={"quantization": unit})
    err = _rejected(tmp_path, capsys, config, "--discrete")
    assert err == ("error: config.discrete: quantization must be at least "
                   f"one frame and below 2**52 frames, got {unit}\n")


@pytest.mark.parametrize("key, rule", [
    ("capacity", "a positive frame count"),
    ("quantization", "at least one frame and below 2**52 frames")],
    ids=["capacity", "quantization"])
@pytest.mark.parametrize("value, shown", [(-5, "-5"), (0, "0"),
                                          (10**400, "inf")],
                         ids=["-5", "0", "10**400"])
@pytest.mark.parametrize("command", [["run"], ["run", "--discrete"],
                                     ["analyze"], ["plotdata"]],
                         ids=["run", "run-discrete", "analyze", "plotdata"])
def test_frame_counts_out_of_range_exit_2_under_every_command(
        tmp_path, capsys, key, rule, value, shown, command):
    # a continuous run of a capacity of -5 exited 0 and wrote it into
    # summary.json; the rows now carry DiscreteScenario's rules
    config = _e1_with(tmp_path, discrete={key: value})
    out = tmp_path / "out"
    if command == ["plotdata"]:
        argv = ["plotdata", tmp_path / "trace.csv", "--quantity", "omega",
                "--config", config]
    else:
        argv = [command[0], "--config", config, "--out", out, *command[1:]]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == (
        f"error: config.discrete: {key} must be {rule}, got {shown}\n")
    assert not out.exists()


@pytest.mark.parametrize("section, value, kind", [
    ("reframe", "auto", "str"), ("integrator", "exact", "str"),
    ("discrete", [1], "list")])
def test_non_object_section_exits_2(tmp_path, capsys, section, value, kind):
    err = _rejected(tmp_path, capsys, _e1_with(tmp_path, **{section: value}))
    assert err == f"error: config.{section}: expected an object, got {kind}\n"


@pytest.mark.parametrize("k", [float("nan"), float("inf")])
def test_non_finite_gain_exits_2(tmp_path, capsys, k):
    config = _e1_with(tmp_path, k=k)
    assert ("NaN" if k != k else "Infinity") in config.read_text()
    err = _rejected(tmp_path, capsys, config)
    assert err == f"error: config.k: must be finite and positive, got {k}\n"


@pytest.mark.parametrize("mode", [[], ["--discrete"]],
                         ids=["continuous", "discrete"])
@pytest.mark.parametrize("key, value", [
    ("omega_u", [float("nan"), 1.02]), ("lambda", float("nan")),
    ("theta0", float("nan")), ("beta_off", [10.0, float("nan")]),
    ("q", float("nan")), ("omega_u", [1.0, float("inf")]),
    ("lambda", [10.0, -float("inf")])],
    ids=["omega_u", "lambda", "theta0", "beta_off", "q", "omega_u-inf",
         "lambda--inf"])
def test_non_finite_vector_entry_exits_2(tmp_path, capsys, mode, key, value):
    err = _rejected(tmp_path, capsys, _e1_with(tmp_path, **{key: value}),
                    *mode)
    rule = "finite and positive" if key == "omega_u" else "finite"
    assert err == f"error: config.{key}: entries must be {rule}\n"


def _e1_integrator(tmp_path, **changes):
    """configs/e1.json with integrator keys replaced, as a new file."""
    raw = json.loads((CONFIG_DIR / "e1.json").read_text())
    return _e1_with(tmp_path, integrator={**raw["integrator"], **changes})


NON_FINITE = [float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("key", ["horizon", "post_horizon", "sample_interval"])
@pytest.mark.parametrize("value", NON_FINITE + [0.0, -1.0],
                         ids=["nan", "inf", "-inf", "zero", "negative"])
def test_continuous_integrator_span_must_be_finite_and_positive(
        tmp_path, capsys, key, value):
    err = _rejected(tmp_path, capsys, _e1_integrator(tmp_path, **{key: value}))
    assert err.startswith(f"error: config.integrator.{key}: must be finite "
                          "and positive")


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("dt", NON_FINITE + [0.0, -0.1],
                         ids=["nan", "inf", "-inf", "zero", "negative"])
def test_fixed_step_dt_must_be_finite_and_positive(tmp_path, capsys, method,
                                                   dt):
    config = _e1_integrator(tmp_path, method=method, dt=dt)
    err = _rejected(tmp_path, capsys, config)
    assert err.startswith("error: config.integrator.dt: must be finite and "
                          "positive")


def test_exact_method_reads_no_dt(tmp_path):
    # the exact flow has no substep: an unused dt is not an error
    config = _e1_integrator(tmp_path, dt=-0.1)
    assert run_cli("run", "--config", config, "--out", tmp_path / "a") == 0
    assert run_cli("run", "--config", CONFIG_DIR / "e1.json",
                   "--out", tmp_path / "b") == 0
    assert ((tmp_path / "a" / "trace.csv").read_bytes()
            == (tmp_path / "b" / "trace.csv").read_bytes())


@pytest.mark.parametrize("dt", [0.3, -0.2, 0.0, float("nan")],
                         ids=["too-coarse", "negative", "zero", "nan"])
def test_discrete_dt_out_of_range_exits_2_naming_config_discrete(
        tmp_path, capsys, dt):
    config = _e1_integrator(tmp_path, dt=dt)
    err = _rejected(tmp_path, capsys, config, "--discrete")
    if dt != dt:
        # a non-finite dt is refused at parse time, in either mode
        assert err == "error: config.integrator.dt: must be finite, got nan\n"
    else:
        assert err.startswith(f"error: config.discrete: dt = {dt} must be "
                              "positive and fine enough for frame counting")


def _strict_summary(out: Path) -> dict:
    """out/summary.json parsed as JSON proper: NaN and Infinity raise."""
    def refuse(constant):
        raise ValueError(f"summary.json holds {constant}, which is not JSON")

    return json.loads((out / "summary.json").read_text(),
                      parse_constant=refuse)


@pytest.mark.parametrize("mode", [[], ["--discrete"]],
                         ids=["continuous", "discrete"])
@pytest.mark.parametrize("dt", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_non_finite_exact_dt_exits_2_in_both_modes(tmp_path, capsys, mode,
                                                   dt):
    # the exact flow reads no dt, and a NaN one was echoed into summary.json
    # as a bare NaN, which is not JSON
    err = _rejected(tmp_path, capsys, _e1_integrator(tmp_path, dt=dt), *mode)
    assert err == f"error: config.integrator.dt: must be finite, got {dt}\n"


@pytest.mark.parametrize("mode", [[], ["--discrete"]],
                         ids=["continuous", "discrete"])
@pytest.mark.parametrize("period", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_non_finite_control_period_exits_2_in_both_modes(tmp_path, capsys,
                                                         mode, period):
    # a continuous run reads no control period, and an infinite one was
    # echoed into summary.json as a bare Infinity
    config = _e1_with(tmp_path, discrete={"control_period": period})
    err = _rejected(tmp_path, capsys, config, *mode)
    assert err == ("error: config.discrete.control_period: must be finite, "
                   f"got {period}\n")


@pytest.mark.parametrize("mode", [[], ["--discrete"]],
                         ids=["continuous", "discrete"])
def test_summary_json_parses_as_strict_json(tmp_path, mode):
    # the keys a mode does not read are echoed too: the exact flow's dt of
    # -0.1 and, in a continuous run, a control period of 3
    changes = {"dt": -0.1} if not mode else {}
    config = _e1_with(tmp_path, discrete={"control_period": 3.0},
                      integrator={**json.loads((CONFIG_DIR / "e1.json")
                                               .read_text())["integrator"],
                                  **changes})
    assert run_cli("run", "--config", config, "--out", tmp_path / "out",
                   *mode) in (0, 1)
    summary = _strict_summary(tmp_path / "out")
    assert summary["config"]["discrete"]["control_period"] == 3.0
    assert summary["config"]["integrator"].get("dt") == changes.get("dt")


@pytest.mark.parametrize("mode", [[], ["--discrete"]],
                         ids=["continuous", "discrete"])
@pytest.mark.parametrize("reframe, key, rule", [
    ({"mode": "auto", "window": -5.0}, "window", "finite and positive"),
    ({"mode": "auto", "window": float("nan")}, "window", "finite and positive"),
    ({"mode": "auto", "window": 0.0}, "window", "finite and positive"),
    ({"mode": "auto", "window": float("inf")}, "window", "finite and positive"),
    ({"mode": "auto", "epsilon": -1.0}, "epsilon", "finite and >= 0"),
    ({"mode": "auto", "epsilon": float("nan")}, "epsilon", "finite and >= 0"),
    ({"mode": "auto", "epsilon": float("inf")}, "epsilon", "finite and >= 0"),
    ({"mode": "fixed-time", "T1": float("nan")}, "T1", "finite"),
    ({"mode": "fixed-time", "T1": -float("inf")}, "T1", "finite")],
    ids=["window-negative", "window-nan", "window-zero", "window-inf",
         "epsilon-negative", "epsilon-nan", "epsilon-inf", "T1-nan",
         "T1-inf"])
def test_reframe_value_out_of_range_exits_2_naming_its_key(
        tmp_path, capsys, reframe, key, rule, mode):
    # a window of -5 or NaN ended in a traceback, an epsilon of -1 or NaN
    # ran a trigger that could never fire, and a NaN T1 fired a continuous
    # reframe at t = 182.5 but never a discrete one
    err = _rejected(tmp_path, capsys, _e1_with(tmp_path, reframe=reframe),
                    *mode)
    assert err.startswith(f"error: config.reframe.{key}: must be {rule}, got ")


@pytest.fixture
def no_recorder(monkeypatch):
    """A run that sizes its recorder fails the test: a rejection must come
    before any allocation."""
    def refused(*args, **kwargs):
        raise AssertionError("the run sized its recorder")

    monkeypatch.setattr(controller.CorrectionHistory, "__init__", refused)


def test_huge_continuous_horizon_exits_2_naming_it(tmp_path, capsys,
                                                   no_recorder):
    # 4e299 samples ended in a traceback from the recorder's np.empty
    err = _rejected(tmp_path, capsys, _e1_integrator(tmp_path, horizon=1e300))
    assert err == ("error: config.integrator: horizon 1e+300 and post_horizon "
                   "250 over sample_interval 2.5 make 4e+299 samples; a run "
                   "records at most 16777216\n")


def test_huge_discrete_horizon_exits_2_naming_it(tmp_path, capsys,
                                                 no_recorder):
    err = _rejected(tmp_path, capsys, _e1_integrator(tmp_path, horizon=1e300),
                    "--discrete")
    assert err.startswith("error: config.integrator.horizon: a discrete "
                          "horizon of 1e+300 in steps of dt = 0.245098 is ")
    assert err.endswith(" steps; a run takes at most 16777216\n")


def test_huge_discrete_T1_exits_2_naming_it(tmp_path, capsys, no_recorder):
    # a fixed T1 past the horizon stretches a discrete run to T1 + post_horizon
    config = _e1_with(tmp_path, reframe={"mode": "fixed-time", "T1": 1e300})
    err = _rejected(tmp_path, capsys, config, "--discrete")
    assert err.startswith("error: config.reframe.T1: a discrete horizon of "
                          "1e+300 in steps of dt = 0.245098 is ")


def test_subnormal_discrete_dt_exits_2(tmp_path, capsys, no_recorder):
    # dt = 1e-320 is positive and fine enough, but horizon / dt overflows
    # to an infinite step count; e1's T1 + post_horizon sets the horizon
    err = _rejected(tmp_path, capsys, _e1_integrator(tmp_path, dt=1e-320),
                    "--discrete")
    assert err == ("error: config.reframe.T1: a discrete horizon of 500 in "
                   "steps of dt = 9.99989e-321 is inf steps; a run takes at "
                   "most 16777216\n")


def test_non_finite_flow_operator_exits_2(tmp_path, capsys):
    # k = 1e300 overflows the squarings of the exponential: the run wrote NaN
    # terminal values and a NaN payload, and exited 0; then numpy's overflow
    # and invalid-value warnings came before the error line
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("run", "--config", _e1_with(tmp_path, k=1e300),
                       "--out", out) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err == (
        "error: flow operator not finite: the gain or the span overflows the "
        "matrix exponential\n")
    assert not (out / "trace.csv").exists()


def test_huge_discrete_offset_exits_2_naming_it(tmp_path):
    # a clock at omega_u + q = 1e300 moves its phase past 2**52, where adding
    # a control period no longer moves the next fire: the run spun there
    config = _e1_with(tmp_path, q=[1e300, 0.0])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run(
        [sys.executable, "-m", "bittide_sim", "run", "--config", str(config),
         "--out", str(tmp_path / "out"), "--discrete"],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert result.stderr == (
        "error: config.discrete: q entries times the horizon 500 must be "
        "below 2**52 in magnitude to count frames\n")
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_huge_discrete_beta_off_exits_2_naming_it(tmp_path, capsys):
    # an offset of 1e300 frames has no frame count: numpy's invalid-cast
    # warnings came from the counters, then a one-row trace and exit 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        err = _rejected(tmp_path, capsys, _e1_with(tmp_path,
                                                   beta_off=[1e300, 0.0]),
                        "--discrete")
    assert err == ("error: config.discrete: beta_off entries must be below "
                   "2**53 in magnitude to count frames\n")


def _small_peak(call):
    """call()'s result, after checking that it allocated under 1 MB."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    return result


@pytest.mark.parametrize("mode", [[], ["--discrete"]])
def test_n_above_max_nodes_exits_2_before_allocating(tmp_path, capsys, mode):
    # n = 10**9 ended in a MemoryError traceback from the ring list
    config = _e1_with(tmp_path, topology="ring", n=10**9, omega_u=1.0)
    err = _small_peak(lambda: _rejected(tmp_path, capsys, config, *mode))
    assert err == ("error: config.topology: generated topologies need "
                   f"2 <= n <= {MAX_NODES}, got n = 1000000000\n")


def test_vector_lengths_are_checked_before_the_topology_is_generated(
        tmp_path, capsys, monkeypatch):
    def generate(*args, **kwargs):
        raise AssertionError("a topology was generated")

    monkeypatch.setattr(config_mod, "generate_topology", generate)
    config = _e1_with(tmp_path, topology="complete", n=MAX_NODES)
    assert _rejected(tmp_path, capsys, config) == (
        f"error: config.omega_u: expected {MAX_NODES} entries, got 2\n")


def test_gen_topology_n_above_max_nodes_exits_2(capsys):
    assert _small_peak(lambda: run_cli("gen-topology", "--kind", "complete",
                                       "--n", 10**9)) == 2
    assert capsys.readouterr().err == (
        f"error: generated topologies need 2 <= n <= {MAX_NODES}, got "
        "n = 1000000000\n")


def test_gen_topology_over_the_edge_bound_exits_2(tmp_path, capsys):
    out = tmp_path / "topology.json"
    assert _small_peak(lambda: run_cli("gen-topology", "--kind", "complete",
                                       "--n", MAX_NODES, "--out", out)) == 2
    assert capsys.readouterr().err == (
        f"error: a generated complete topology on n = {MAX_NODES} nodes has "
        f"{MAX_NODES * (MAX_NODES - 1)} edges; at most {MAX_EDGES} are "
        "allowed\n")
    assert not out.exists()


@pytest.mark.parametrize("mode", [[], ["--discrete"]])
def test_config_over_the_edge_bound_exits_2(tmp_path, capsys, mode):
    config = _e1_with(tmp_path, topology="random-strong", n=MAX_NODES,
                      extra_edge_fraction=0.5, omega_u=1.0)
    m = MAX_NODES + MAX_NODES * (MAX_NODES - 2) // 2
    assert _rejected(tmp_path, capsys, config, *mode) == (
        f"error: config.topology: a generated random-strong topology on "
        f"n = {MAX_NODES} nodes has {m} edges; at most {MAX_EDGES} are "
        "allowed\n")


def test_verify_n_max_above_max_nodes_exits_2(tmp_path, capsys):
    assert _verify_rejected(tmp_path, capsys, "--n-max", MAX_NODES + 1) == (
        f"error: --n-max must be at most {MAX_NODES}, got {MAX_NODES + 1}\n")


@pytest.mark.parametrize("n, message", [
    ("3", "expected int, got str ('3')"), (None, "expected int, got NoneType"),
    (2.5, "expected int, got float (2.5)"), (True, "expected int, got bool"),
    (0, "must be at least 1, got 0"), (-1, "must be at least 1, got -1")])
def test_object_topology_n_must_be_an_int_of_at_least_1(tmp_path, capsys, n,
                                                         message):
    # a str or null n ended in a TypeError traceback, and n = 2.5 said
    # "node 3 is unreachable"
    config = _e1_with(tmp_path, topology={"n": n, "edges": [[1, 2], [2, 1]]})
    err = _rejected(tmp_path, capsys, config)
    assert err.startswith(f"error: config.topology.n: {message}")
    assert err.count("\n") == 1


def test_bool_edge_endpoints_exit_2(tmp_path, capsys):
    # true passed as node 1, ran with exit 0 and was echoed into summary.json
    config = _e1_with(tmp_path, topology={"edges": [[True, 2], [2, True]]})
    assert _rejected(tmp_path, capsys, config) == (
        "error: config.topology.edges[0]: expected [src, dst] integers\n")


@pytest.mark.parametrize("mode", [[], ["--discrete"]])
def test_tiny_gain_exits_2_naming_the_gain(tmp_path, capsys, mode):
    # k = 1e-300 puts every eigenvalue of A within the zero tolerance, and
    # the error said "graph not strongly connected" of e1's ring
    out = tmp_path / "out"
    assert run_cli("run", "--config", _e1_with(tmp_path, k=1e-300),
                   "--out", out, *mode) == 2
    assert capsys.readouterr().err == (
        "error: gain k = 1e-300 is too small: the closed loop's nonzero "
        "eigenvalues are within the zero tolerance 1e-09 * max(|A|, 1) of "
        "this strongly connected graph\n")
    assert not (out / "trace.csv").exists()


def _random_strong_config(tmp_path, n, **changes):
    """A random-strong config of n nodes, as a new file."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "topology": "random-strong", "n": n, "topology_seed": 7,
        "extra_edge_fraction": 0.1, "k": 0.2, "omega_u": 1.0, **changes}))
    return path


@pytest.mark.parametrize("mode", [[], ["--discrete"]])
def test_tiny_gain_above_the_arnoldi_crossover_exits_2_naming_the_gain(
        tmp_path, capsys, mode):
    # the closed loop's lambda_2 comes from the iteration from ARNOLDI_MIN_N
    # nodes on, and is held to the same zero tolerance as the eigvals count
    out = tmp_path / "out"
    config = _random_strong_config(tmp_path, spectral.ARNOLDI_MIN_N, k=1e-300)
    assert run_cli("run", "--config", config, "--out", out, *mode) == 2
    assert capsys.readouterr().err == (
        "error: gain k = 1e-300 is too small: the closed loop's nonzero "
        "eigenvalues are within the zero tolerance 1e-09 * max(|A|, 1) of "
        "this strongly connected graph\n")
    assert not (out / "trace.csv").exists()


def test_a_default_horizon_run_above_the_crossover_makes_no_eigvals_call(
        tmp_path, capsys, monkeypatch):
    # the horizon is 50 e-folds of the iteration's lambda_2; analyze forms
    # the whole spectrum and reports the same lambda_2
    n = spectral.ARNOLDI_MIN_N
    config = _random_strong_config(tmp_path, n, controller="proportional")
    eigvals = np.linalg.eigvals

    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refused)
    assert run_cli("run", "--config", config, "--out", tmp_path / "run") == 0
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    assert run_cli("analyze", "--config", config,
                   "--out", tmp_path / "analyze") == 0
    report = json.loads((tmp_path / "analyze" / "analysis.json").read_text())
    assert len(report["eigenvalues"]) == n
    stable = [e["re"] for e in report["eigenvalues"] if e["re"] < -1e-9]
    assert report["decay_rate"] == pytest.approx(-max(stable), rel=1e-10)
    times = read_trace_csv(tmp_path / "run" / "trace.csv")[0]
    assert times[-1] == report["recommended_horizon"] == 50.0 / report[
        "decay_rate"]


def test_verify_above_the_arnoldi_crossover_passes(tmp_path, monkeypatch):
    # the battery at n = N0 .. 2 N0 takes lambda_2 from the iteration, with
    # every tolerance as it is
    n = spectral.ARNOLDI_MIN_N
    calls = count_calls(monkeypatch, spectral.rightmost_eigenvalue)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_cli("verify", "--count", 4, "--seed", 7, "--n-min", n,
                       "--n-max", 2 * n, "--out", tmp_path) == 0
    report = json.loads((tmp_path / "battery.json").read_text())
    assert report["all_pass"]
    assert len(calls) >= 4


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_fixed_step_dt_above_the_stability_bound_exits_2(tmp_path, capsys,
                                                         method):
    # e1's bound is 1/(k * max in-degree) = 10: two substeps of 12.5 ended in
    # a ValueError traceback
    config = _e1_integrator(tmp_path, method=method, dt=20.0,
                            sample_interval=25.0)
    err = _rejected(tmp_path, capsys, config)
    assert err == (f"error: config.integrator.dt: {method} substep 20 exceeds "
                   "the stability bound 1/(k * max in-degree) = 10\n")


@pytest.mark.parametrize("method, dt, substeps", [
    ("rk4", 1e-300, "2.6e+302"), ("euler", 1e-9, "2.6e+11")])
def test_fixed_step_substeps_over_the_sample_bound_exit_2_at_once(
        tmp_path, capsys, monkeypatch, method, dt, substeps):
    # only the samples were bounded: 104 samples of e1 in substeps of dt
    # ran on for as long as the substeps took.  The rule ends the run before
    # its first substep, so a kernel call fails the test and cannot hang it
    config = _e1_integrator(tmp_path, method=method, dt=dt, horizon=10.0,
                            sample_interval=2.5)

    def refused(*args, **kwargs):
        raise AssertionError("the run reached the Taylor kernel")

    monkeypatch.setattr(dynamics, "taylor_action", refused)
    start = time.perf_counter()
    err = _rejected(tmp_path, capsys, config)
    assert time.perf_counter() - start < 1.0
    assert err == (f"error: config.integrator.dt: horizon 10 and post_horizon "
                   f"250 in {method} substeps of {dt:.6g} make {substeps} "
                   f"substeps; a run takes at most {config_mod.MAX_SAMPLES}\n")


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_fixed_step_span_a_hair_over_dt_takes_two_substeps(tmp_path, method):
    # dt = 10 is e1's stability bound; a sample interval one ulp over it
    # took one substep of 10.000000000000002 and ended in a ValueError
    # traceback
    config = _e1_integrator(tmp_path, method=method, dt=10.0,
                            sample_interval=10.000000000000002)
    assert run_cli("run", "--config", config, "--out", tmp_path / "out") == 0
    assert (tmp_path / "out" / "trace.csv").exists()


@pytest.mark.parametrize("mode, limit", [([], 200), (["--discrete"], 2040)],
                         ids=["continuous", "discrete"])
def test_sample_bound_admits_a_run_at_the_bound(tmp_path, capsys, monkeypatch,
                                                mode, limit):
    # e1 samples 500 / 2.5 = 200 intervals, and its discrete run takes 2040
    # steps of dt = 1/(4 max omega_u) to T1 + post_horizon = 500; one fewer
    # allowed rejects it
    monkeypatch.setattr(config_mod, "MAX_SAMPLES", limit)
    assert run_cli("run", "--config", CONFIG_DIR / "e1.json",
                   "--out", tmp_path / "a", *mode) == 0
    monkeypatch.setattr(config_mod, "MAX_SAMPLES", limit - 1)
    _rejected(tmp_path, capsys, CONFIG_DIR / "e1.json", *mode)


def test_unknown_key_fails_strict_passes_lenient(tmp_path):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"topology": "ring", "n": 3, "k": 1.0,
                               "omega_u": 1.0, "gian": 2.0,
                               "integrator": {"horizon": 1.0}}))
    assert run_cli("run", "--config", cfg, "--out", tmp_path) == 2
    with pytest.warns(UserWarning):
        assert run_cli("run", "--config", cfg, "--out", tmp_path,
                       "--no-strict") == 0


def test_plotdata_omega_series(tmp_path, capsys):
    run_cli("run", "--config", CONFIG_DIR / "e1.json", "--out", tmp_path)
    out = tmp_path / "omega.txt"
    assert run_cli("plotdata", tmp_path / "trace.csv", "--quantity", "omega",
                   "--out", out) == 0
    text = out.read_text()
    blocks = [b for b in text.split("\n\n") if b]
    labels = [b.splitlines()[0] for b in blocks]
    assert labels[:2] == ["# omega node=1", "# omega node=2"]
    assert labels[-1].startswith("# reframe t=")
    # both series start at the uncontrolled frequencies and converge
    first = [float(b.splitlines()[1].split()[1]) for b in blocks[:2]]
    np.testing.assert_allclose(first, [1.00, 1.02], atol=1e-12)
    last = [float(b.splitlines()[-1].split()[1]) for b in blocks[:2]]
    np.testing.assert_allclose(last, [1.01, 1.01], atol=1e-9)


def test_plotdata_beta_rel_needs_config(tmp_path, capsys):
    run_cli("run", "--config", CONFIG_DIR / "e1.json", "--out", tmp_path)
    assert run_cli("plotdata", tmp_path / "trace.csv",
                   "--quantity", "beta-rel") == 2
    out = tmp_path / "rel.txt"
    assert run_cli("plotdata", tmp_path / "trace.csv", "--quantity", "beta-rel",
                   "--config", CONFIG_DIR / "e1.json", "--out", out) == 0
    blocks = [b for b in out.read_text().split("\n\n") if b]
    assert blocks[0].splitlines()[0] == "# beta-rel edge=1"
    # post-reframe tail decays to zero relative occupancy
    tail = [float(line.split()[1]) for line in blocks[0].splitlines()[-5:]]
    assert max(abs(v) for v in tail) <= 1e-6


def test_plotdata_empty_trace(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("t,mode,omega_1,c_1,beta_1\n")
    assert run_cli("plotdata", empty) == 0


@pytest.mark.parametrize("case", BAD_TRACES)
def test_plotdata_on_a_malformed_trace_exits_2_naming_the_line(
        tmp_path, capsys, case):
    # each ended in a traceback with exit 1, and a wide row passed
    data, error = BAD_TRACES[case]
    trace = tmp_path / "trace.csv"
    trace.write_bytes(data)
    assert run_cli("plotdata", trace) == 2
    assert capsys.readouterr().err == f"error: {trace}{error}\n"


@pytest.mark.parametrize("argv", [["run", "--config", CONFIG_DIR / "e1.json"],
                                  ["verify", "--count", 1]],
                         ids=["run", "verify"])
def test_an_out_folder_that_is_a_file_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "taken"
    out.write_text("")
    assert run_cli(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 17] File exists:")
    assert len(err.splitlines()) == 1


def test_a_config_that_is_a_folder_exits_2(tmp_path, capsys):
    assert run_cli("run", "--config", tmp_path, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 21] Is a directory:")
    assert len(err.splitlines()) == 1


def test_gen_topology_stdout(capsys):
    assert run_cli("gen-topology", "--kind", "random-strong", "--n", 8,
                   "--seed", 42, "--extra-edge-fraction", 0.3) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["topology"]["n"] == 8
    assert len(doc["topology"]["edges"]) == 22


def test_gen_topology_output_feeds_config(tmp_path, capsys):
    run_cli("gen-topology", "--kind", "ring", "--n", 4,
            "--out", tmp_path / "topo.json")
    doc = json.loads((tmp_path / "topo.json").read_text())
    cfg = dict(doc, k=0.5, omega_u=1.0,
               integrator={"horizon": 5.0, "sample_interval": 1.0},
               controller="proportional")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", cfg_path, "--out", tmp_path) == 0


def test_run_seed_override_changes_generated_topology(tmp_path):
    cfg = tmp_path / "rand.json"
    cfg.write_text(json.dumps({
        "topology": "random-strong", "n": 6, "extra_edge_fraction": 0.4,
        "k": 0.3, "omega_u": 1.0, "controller": "proportional",
        "integrator": {"horizon": 1.0, "sample_interval": 1.0}}))
    run_cli("run", "--config", cfg, "--out", tmp_path / "a", "--seed", 1)
    run_cli("run", "--config", cfg, "--out", tmp_path / "b", "--seed", 2)
    run_cli("run", "--config", cfg, "--out", tmp_path / "c", "--seed", 1)
    a = json.loads((tmp_path / "a/summary.json").read_text())
    b = json.loads((tmp_path / "b/summary.json").read_text())
    c = json.loads((tmp_path / "c/summary.json").read_text())
    assert a["config"]["topology_seed"] == 1
    assert a["config"] == c["config"]
    assert a["config"] != b["config"]


@pytest.mark.parametrize("mode", [[], ["--discrete"]])
def test_run_solves_once(tmp_path, solve_calls, mode):
    assert run_cli("run", "--config", CONFIG_DIR / "e1.json",
                   "--out", tmp_path, *mode) == 0
    assert len(solve_calls) == 1


@pytest.mark.parametrize("mode", [[], ["--discrete"]])
@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_every_config_runs_to_an_exit_code(tmp_path, config, mode):
    assert run_cli("run", "--config", CONFIG_DIR / config,
                   "--out", tmp_path, *mode) in (0, 1)
    assert (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("mode", [[], ["--continue-on-fault"]])
def test_backward_clock_writes_fault_record(tmp_path, mode):
    # eight_node's node 5 (in-degree 7, k = 0.2) runs its clock backward in
    # discrete mode; the run aborts with a typed fault, not a traceback, and
    # exits 1 like any other failed check
    assert run_cli("run", "--config", CONFIG_DIR / "eight_node.json",
                   "--discrete", "--out", tmp_path, *mode) == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["aborted"]
    assert {f["direction"] for f in summary["faults"]} == {"pointer-monotonicity"}
    faults = (tmp_path / "faults.csv").read_text().splitlines()
    assert faults[0] == "edge,t,direction,occupancy"
    assert len(faults) == len(summary["faults"]) + 1


@dataclass
class _Arrays:
    """A trace given as its full arrays, read a row range at a time."""

    times: np.ndarray
    mode: list
    omega: np.ndarray
    correction: np.ndarray
    occupancy: np.ndarray

    @property
    def m(self):
        return self.occupancy.shape[1]

    def rows(self, rows):
        return self.omega[rows], self.correction[rows], self.occupancy[rows]


def test_trace_csv_rows_format_like_fmt():
    values = np.array([[-0.0, np.inf, -np.inf, np.nan, 1e-300, 0.1, 1 / 3,
                        -2.5e17, 5e-324]])
    omega, correction, occupancy = values[:, :3], values[:, 3:6], values[:, 6:]
    text = trace_csv(_Arrays(np.array([0.2]), ["pre-reframe"], omega,
                             correction, occupancy)).decode()
    row = ",".join([_fmt(0.2), "pre-reframe"] + [_fmt(v) for v in values[0]])
    assert text.splitlines()[1] == row


def test_trace_csv_peak_memory_stays_near_its_output():
    # one bytes buffer: no row list, no joined text, no encoded copy
    rng = np.random.default_rng(0)
    n, m, rows = 64, 1200, 60            # 2n + m = 1328 values per row
    times = np.arange(rows, dtype=float)
    omega, correction = rng.normal(size=(rows, n)), rng.normal(size=(rows, n))
    occupancy = rng.normal(10.0, 1.0, size=(rows, m))
    modes = ["pre-reframe"] * rows
    tracemalloc.start()
    try:
        out = trace_csv(_Arrays(times, modes, omega, correction, occupancy))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(out)


def test_wide_run_and_its_trace_form_no_time_by_edge_array():
    # the run records theta and c; beta = B^T theta + lambda is derived a
    # chunk of rows at a time, so neither holds a (T, m) array
    topology = generate_topology("random-strong", 64, seed=3,
                                 extra_edge_fraction=0.5)
    omega_u = np.random.default_rng(3).uniform(0.98, 1.02, size=64)
    params = make_system_params(topology, k=0.2, omega_u=omega_u)
    system = prepare(topology, params)
    schedule = ReframeSchedule(mode="auto")
    run(system, schedule=schedule)       # warm-up, outside the measured window
    tracemalloc.start()
    try:
        trace = run(system, schedule=schedule)
        _, run_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = trace_csv(trace)
        _, csv_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.reframe_time is not None and trace.m > 1000
    assert run_peak < len(trace) * trace.m * 8 / 4
    assert csv_peak < 1.5 * len(out)


def _fmt_csv(times, modes, omega, correction, occupancy) -> bytes:
    """trace.csv built a row at a time with _fmt: the writer's reference."""
    n, m = omega.shape[1], occupancy.shape[1]
    lines = [",".join(["t", "mode"] + [f"omega_{i}" for i in range(1, n + 1)]
                      + [f"c_{i}" for i in range(1, n + 1)]
                      + [f"beta_{j}" for j in range(1, m + 1)])]
    for i in range(len(times)):
        values = [times[i], *omega[i], *correction[i], *occupancy[i]]
        lines.append(",".join([_fmt(values[0]), modes[i]]
                              + [_fmt(v) for v in values[1:]]))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("mode", [[], ["--discrete"],
                                  ["--discrete", "--continue-on-fault"]])
@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_trace_csv_matches_fmt_on_every_config(tmp_path, monkeypatch, config,
                                               mode):
    traces = []

    def recorded(trace):
        traces.append((trace.times, trace.mode, trace.omega, trace.correction,
                       trace.occupancy))
        return trace_csv(trace)

    monkeypatch.setattr(cli, "trace_csv", recorded)
    assert run_cli("run", "--config", CONFIG_DIR / config,
                   "--out", tmp_path, *mode) in (0, 1)
    [trace] = traces
    assert (tmp_path / "trace.csv").read_bytes() == _fmt_csv(*trace)


def test_unreached_fixed_T1_warns_and_keeps_files_and_exit_code(tmp_path):
    cfg = json.loads((CONFIG_DIR / "e1_discrete.json").read_text())
    cfg["reframe"]["T1"] = 600.0
    path = tmp_path / "late.json"
    path.write_text(json.dumps(cfg))
    with pytest.warns(UserWarning, match="node 1 has T1 = 600, past the last "
                                         "sample at t = 500"):
        assert run_cli("run", "--config", path, "--out", tmp_path / "out") == 0
    summary = json.loads((tmp_path / "out/summary.json").read_text())
    assert summary["simulated"]["reframe_time"] is None
    assert (tmp_path / "out/trace.csv").exists()


@pytest.mark.parametrize("mode", [[], ["--discrete"]])
def test_edge_free_topology_runs_in_both_modes(tmp_path, mode):
    # one node and no buffer: nothing can overflow, so no capacity advisory
    cfg = tmp_path / "single.json"
    cfg.write_text(json.dumps({
        "topology": {"n": 1, "edges": []}, "k": 0.1, "omega_u": 1.0,
        "controller": "reframing", "reframe": {"mode": "fixed-time", "T1": 5.0},
        "integrator": {"horizon": 10.0, "dt": 0.2}}))
    assert run_cli("run", "--config", cfg, "--out", tmp_path, *mode) == 0
    header = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert header == "t,mode,omega_1,c_1"
    times, modes, omega, corr, beta = read_trace_csv(tmp_path / "trace.csv")
    assert beta.shape == (len(times), 0) and modes[-1] == "post-reframe"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["simulated"]["terminal_beta"] == []


def test_json_text_matches_the_indented_encoder(tmp_path, monkeypatch):
    objects, json_text = [], cli._json_text

    def recorded(obj):
        objects.append(obj)
        return json_text(obj)

    monkeypatch.setattr(cli, "_json_text", recorded)
    argvs = [("verify", "--count", 2, "--out", tmp_path / "verify"),
             ("gen-topology", "--kind", "random-strong", "--n", 6,
              "--extra-edge-fraction", 0.3)]
    for path in sorted(CONFIG_DIR.glob("*.json")):
        out = tmp_path / path.stem
        argvs += [("run", "--config", path, "--out", out / "c"),
                  ("run", "--config", path, "--out", out / "d", "--discrete"),
                  ("analyze", "--config", path, "--out", out / "a")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for argv in argvs:
            assert run_cli(*argv) in (0, 1)
    monkeypatch.undo()
    assert len(objects) == 2 + 3 * len(list(CONFIG_DIR.glob("*.json")))
    objects += [
        {}, [], {"a": [], "b": {}}, [[], {}, [[]]], (1.5, 2.0), [[0.1, [2.0]]],
        [None, True, False, 0, -3, 10**20, 1.0, -0.0, 5e-324, 1e300],
        [1.0, float("nan")], [float("inf"), 2.0], [-float("inf")], float("nan"),
        {"z": 1, "a": {"b": [0.1, None]}, "m": (1, "x")}, {1: "int key"},
        {"tab\t \"quote\" \\ \u00e9 \u2603 \U0001f600": "\n\u0000\u007f \u00e9"},
        [np.float64(0.25), np.float64(1e-7)], {"x": np.float64(3.0)},
    ]
    for obj in objects:
        assert cli._json_text(obj) == json.dumps(obj, indent=2,
                                                 sort_keys=True) + "\n"


def test_no_command_loads_scipy(tmp_path):
    # the package depends on numpy alone: scipy is the tests' oracle, and no
    # command, the continuous run and the battery included, pays for loading it
    script = f"""
import sys
from bittide_sim import (ReframeSchedule, cli, generate_topology,
                         make_system_params, prepare, run, spectral)
config, out = {str(CONFIG_DIR / "e1.json")!r}, {str(tmp_path)!r}
for argv in (["analyze", "--config", config, "--out", out + "/analyze"],
             ["gen-topology", "--kind", "random-strong", "--n", "8",
              "--out", out + "/topology.json"],
             ["run", "--config", config, "--discrete", "--out", out + "/run"],
             ["plotdata", out + "/run/trace.csv", "--out", out + "/omega.txt"],
             ["run", "--config", config, "--out", out + "/continuous"],
             ["verify", "--count", "2", "--out", out + "/verify"]):
    assert cli.main(argv) == 0, argv
assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# every key a config reads, as its path from the top
FUZZ_KEYS = [tuple(key.path.split(".")) for key in config_mod.KEYS] + [
    (section,) for section in config_mod.SECTIONS]
# wrong types, non-finite numbers, and numbers at and past every range
FUZZ_VALUES = ["x", [1], {"a": 1}, True, None, float("nan"), float("inf"),
               -float("inf"), 0, -1, 1e300, 1e-300, 10**400]


@functools.cache
def _e1_trace() -> bytes:
    """The trace.csv of a continuous run of configs/e1.json."""
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("run", "--config", CONFIG_DIR / "e1.json",
                       "--out", tmp) == 0
        return (Path(tmp) / "trace.csv").read_bytes()


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(FUZZ_KEYS), value=st.sampled_from(FUZZ_VALUES),
       argv=st.sampled_from([["run"], ["run", "--discrete"], ["analyze"],
                             ["plotdata"]]))
def test_one_mutated_key_ends_in_an_exit_code_never_a_traceback(key, value,
                                                                argv):
    # plotdata reads the mutated config for the beta_off of e1's trace
    raw = json.loads((CONFIG_DIR / "e1.json").read_text())
    section = raw
    for name in key[:-1]:
        section = section.setdefault(name, {})
    section[key[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(raw))
        if argv == ["plotdata"]:
            trace = Path(tmp) / "trace.csv"
            trace.write_bytes(_e1_trace())
            argv = ["plotdata", trace, "--quantity", "beta-rel",
                    "--config", config, "--out", out]
        else:
            argv = [argv[0], "--config", config, "--out", out, *argv[1:]]
        err = io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stderr(err),
              contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("ignore")
            rc = run_cli(*argv)
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if rc == 2:
            assert err.getvalue().startswith("error: ")
            assert not (out / "trace.csv").exists()
            assert not out.is_file()
        elif (out / "summary.json").exists():
            _strict_summary(out)


def _run_config_text(tmp: Path, text: str, argv) -> tuple[int, str]:
    """(exit code, stderr) of the command in `argv`, one of COMMANDS, on a
    config of that text, writing to tmp/out; plotdata reads the config for
    the beta_off of e1's trace."""
    config, out = tmp / "config.json", tmp / "out"
    config.write_text(text)
    if argv == ["plotdata"]:
        trace = tmp / "trace.csv"
        trace.write_bytes(_e1_trace())
        argv = ["plotdata", trace, "--quantity", "beta-rel",
                "--config", config, "--out", out]
    else:
        argv = [argv[0], "--config", config, "--out", out, *argv[1:]]
    err = io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(io.StringIO())):
        warnings.simplefilter("ignore")
        rc = run_cli(*argv)
    return rc, err.getvalue()


def _e1_text_with(key: tuple, value) -> str:
    """configs/e1.json, as text, with the key at path `key` set to `value`."""
    raw = json.loads((CONFIG_DIR / "e1.json").read_text())
    section = raw
    for name in key[:-1]:
        section = section.setdefault(name, {})
    section[key[-1]] = value
    return json.dumps(raw)


NUMBER_KEYS = [key for key in config_mod.KEYS if key.takes in (float, "n", "m")]
COMMANDS = [["run"], ["run", "--discrete"], ["analyze"], ["plotdata"]]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("key, entry", [
    (key, False) for key in NUMBER_KEYS] + [
    (key, True) for key in NUMBER_KEYS if key.takes in ("n", "m")],
    ids=lambda v: v.path if isinstance(v, config_mod.Key) else
    ("entry" if v else "scalar"))
def test_integer_too_large_for_a_float_exits_2(tmp_path, key, entry, sign,
                                               argv):
    # a 401-digit integer passed the number type test, and float() ended in
    # an OverflowError traceback; it reads as +-inf, which no rule admits
    value = sign * 10**400
    text = _e1_text_with(tuple(key.path.split(".")), [value, 1.0] if entry
                         else value)
    rc, err = _run_config_text(tmp_path, text, argv)
    assert rc == 2
    if key.takes in ("n", "m"):
        assert err == f"error: config.{key.path}: entries must be {key.rule}\n"
    else:
        assert err == (f"error: config.{key.path}: must be {key.rule}, got "
                       f"{sign * math.inf}\n")
    assert not (tmp_path / "out" / "trace.csv").exists()


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_integer_past_the_json_digit_limit_exits_2(tmp_path, argv):
    # json.loads raised a ValueError that is no JSONDecodeError: a traceback
    text = _e1_text_with(("k",), "K").replace('"K"', "9" * 5000)
    rc, err = _run_config_text(tmp_path, text, argv)
    assert rc == 2
    assert err.startswith("error: config: not valid JSON (Exceeds the limit "
                          "(4300 digits) for integer string conversion")
    assert err.count("\n") == 1
