"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1-5 share a battery of 100 random strongly connected scenarios
(n in [2, 8], k in [0.05, 1], omega_u in [0.95, 1.05]^n, feasible offsets,
q = 0); the battery is computed once and timed.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from bittide_sim import (IntegratorSettings, ReframeSchedule, Topology,
                         make_system_params, matrix_exponential,
                         predict_beta_ss, predict_omega_ss, prepare, run,
                         steady_state_correction)
from bittide_sim.cli import main as cli_main
from bittide_sim.framesim import fault_report, run_discrete
from bittide_sim.verify import make_infeasible_scenario, make_random_scenario

BATTERY_SIZE = 100


def criterion(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status}"
          + (f" - {detail}" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@dataclass
class BatteryEntry:
    scenario: object
    params: object
    clm: object
    sd: object
    omega_pre: np.ndarray       # at the reframe instant, pre mode
    beta_pre: np.ndarray
    omega_post: np.ndarray      # terminal, one horizon after the reframe
    beta_post: np.ndarray


@pytest.fixture(scope="session")
def battery():
    t0 = time.perf_counter()
    entries = []
    for i in range(BATTERY_SIZE):
        sc = make_random_scenario(i)
        system = prepare(sc.topology, sc.params, sc.theta0)
        params, clm, sd = system.params, system.clm, system.sd
        horizon = sd.horizon()
        trace = run(system,
                    schedule=ReframeSchedule(mode="fixed-time", T1=horizon),
                    settings=IntegratorSettings(horizon=horizon, post_horizon=horizon,
                                                sample_interval=horizon / 8))
        j = trace.mode.index("post-reframe")
        entries.append(BatteryEntry(
            scenario=sc, params=params, clm=clm, sd=sd,
            omega_pre=trace.omega[j - 1], beta_pre=trace.occupancy[j - 1],
            omega_post=trace.omega[-1], beta_post=trace.occupancy[-1]))
    elapsed = time.perf_counter() - t0
    return entries, elapsed


def test_criterion_1_frequency_consensus(battery):
    entries, elapsed = battery
    worst = 0.0
    for e in entries:
        tol_scale = np.abs(e.params.omega_u).max()
        consensus = predict_omega_ss(e.sd, e.params)
        worst = max(worst, np.abs(e.omega_pre - consensus).max() / tol_scale)
    criterion(1, "frequency consensus", worst <= 1e-8 and elapsed < 10.0,
              f"worst relative gap {worst:.3e} <= 1e-8, "
              f"battery time {elapsed:.2f}s < 10s")


def test_criterion_2_pre_reframe_buffer_limit(battery):
    entries, _ = battery
    worst = 0.0
    for e in entries:
        pred = predict_beta_ss(e.sd, e.clm, e.params)
        worst = max(worst, np.abs(e.beta_pre - pred).max())
    criterion(2, "pre-reframe buffer limit", worst <= 1e-8,
              f"worst gap {worst:.3e} frames <= 1e-8")


def test_criterion_3_reframe_fixed_point(battery):
    entries, _ = battery
    worst_fix = 0.0
    worst_freq = 0.0
    for e in entries:
        n = e.clm.n
        f0 = steady_state_correction(e.sd, e.clm, e.params, q=np.zeros(n))
        ff0 = steady_state_correction(e.sd, e.clm, e.params, q=f0)
        target = (e.sd.W - np.eye(n)) @ e.params.omega_u
        worst_fix = max(worst_fix, np.abs(ff0 - target).max())
        rel = np.abs(e.omega_post - e.omega_pre).max() / np.abs(e.omega_pre).max()
        worst_freq = max(worst_freq, rel)
    criterion(3, "reframe fixed point",
              worst_fix <= 1e-10 and worst_freq <= 1e-9,
              f"F(F(0)) residual {worst_fix:.3e} <= 1e-10, "
              f"pre/post frequency gap {worst_freq:.3e} <= 1e-9")


def test_criterion_4_buffer_centering(battery):
    entries, _ = battery
    worst = max(np.abs(e.beta_post - e.params.beta_off).max() for e in entries)
    uncentered = 0
    for i in range(100):
        sc = make_infeasible_scenario(5000 + i)
        system = prepare(sc.topology, sc.params, sc.theta0)
        params, sd = system.params, system.sd
        horizon = sd.horizon()
        trace = run(system,
                    schedule=ReframeSchedule(mode="fixed-time", T1=horizon),
                    settings=IntegratorSettings(horizon=horizon, post_horizon=horizon,
                                                sample_interval=horizon / 4))
        if np.abs(trace.occupancy[-1] - params.beta_off).max() > 1e-3:
            uncentered += 1
    criterion(4, "buffer centering", worst <= 1e-6 and uncentered >= 90,
              f"worst centered gap {worst:.3e} <= 1e-6; "
              f"{uncentered}/100 infeasible controls stayed uncentered (>= 90)")


def test_criterion_5_spectral_identities(battery):
    entries, _ = battery
    worst_alg = 0.0
    worst_row = 0.0
    worst_neg = 0.0
    for e in entries:
        A, z, W = e.clm.A, e.sd.z, e.sd.W
        scale = max(1.0, np.abs(A).max())
        worst_alg = max(worst_alg,
                        np.abs(z @ A).max() / scale,
                        np.abs(W @ W - W).max(),
                        np.abs(W @ A).max() / scale,
                        np.abs(A @ W).max() / scale)
        for s in (0.1, 1.0, 10.0):
            E = matrix_exponential(e.clm, s / e.sd.decay_rate())
            worst_row = max(worst_row, np.abs(E.sum(axis=1) - 1.0).max())
            worst_neg = min(worst_neg, E.min())
    ok = worst_alg <= 1e-10 and worst_row <= 1e-10 and worst_neg >= -1e-12
    criterion(5, "spectral identities", ok,
              f"identities {worst_alg:.3e} <= 1e-10, row sums {worst_row:.3e} "
              f"<= 1e-10, min entry {worst_neg:.3e} >= -1e-12")


def test_criterion_6_hand_oracle_e1():
    topology = Topology(n=2, edges=[(1, 2), (2, 1)])
    params = make_system_params(topology, k=0.1, omega_u=[1.00, 1.02], lam=10.0)
    trace = run(prepare(topology, params, 0.0),
                schedule=ReframeSchedule(mode="fixed-time", T1=250.0),
                settings=IntegratorSettings(horizon=250.0, post_horizon=250.0,
                                            sample_interval=25.0))
    j = trace.mode.index("post-reframe")
    checks = {
        "omega_ss": np.abs(trace.omega[j - 1] - 1.01).max() <= 1e-9,
        "beta_ss_pre": np.abs(trace.occupancy[j - 1] - [9.9, 10.1]).max() <= 1e-8,
        "beta_post": np.abs(trace.occupancy[-1] - [10.0, 10.0]).max() <= 1e-6,
        "payload": np.abs(trace.reframe_payload - [0.01, -0.01]).max() <= 1e-9,
    }
    criterion(6, "hand-oracle scenario E1", all(checks.values()),
              ", ".join(f"{k} {'ok' if v else 'BAD'}" for k, v in checks.items()))


def _series_blocks(text):
    blocks = [b for b in text.split("\n\n") if b.strip()]
    series = {}
    marker = None
    for b in blocks:
        lines = b.splitlines()
        label = lines[0]
        if label.startswith("# reframe"):
            marker = float(label.split("t=")[1])
            continue
        data = np.array([[float(x) for x in ln.split()] for ln in lines[1:]])
        series[label] = data
    return series, marker


def test_criterion_7_figure_shape(tmp_path):
    t0 = time.perf_counter()
    config = tmp_path / "eight.json"
    config.write_text(json.dumps({
        "topology": "random-strong", "n": 8, "topology_seed": 42,
        "extra_edge_fraction": 0.3, "k": 0.2,
        "omega_u": [0.96, 1.01, 0.99, 1.04, 1.00, 0.97, 1.03, 1.02],
        "controller": "reframing", "reframe": {"mode": "auto"}}))
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert cli_main(["plotdata", str(tmp_path / "trace.csv"), "--quantity",
                     "omega", "--out", str(tmp_path / "omega.txt")]) == 0
    assert cli_main(["plotdata", str(tmp_path / "trace.csv"), "--quantity",
                     "beta-rel", "--config", str(config),
                     "--out", str(tmp_path / "rel.txt")]) == 0

    omega_u = np.array([0.96, 1.01, 0.99, 1.04, 1.00, 0.97, 1.03, 1.02])
    series, marker = _series_blocks((tmp_path / "omega.txt").read_text())
    assert len(series) == 8 and marker is not None
    start = np.array([series[f"# omega node={i}"][0, 1] for i in range(1, 9)])
    spread_ok = abs(np.ptp(start) - np.ptp(omega_u)) <= 1e-9

    node1 = series["# omega node=1"]
    pre_idx = np.flatnonzero(node1[:, 0] == marker)[0]
    pre_vals = np.array([series[f"# omega node={i}"][pre_idx, 1]
                         for i in range(1, 9)])
    converged_pre = np.ptp(pre_vals) <= 1e-8
    jumps = np.array([series[f"# omega node={i}"][pre_idx + 1, 1]
                      - series[f"# omega node={i}"][pre_idx, 1]
                      for i in range(1, 9)])
    jump_ok = np.abs(jumps).max() > 1e-3
    end_vals = np.array([series[f"# omega node={i}"][-1, 1]
                         for i in range(1, 9)])
    reconverged = np.abs(end_vals - pre_vals.mean()).max() <= 1e-9

    rel_series, _ = _series_blocks((tmp_path / "rel.txt").read_text())
    plateaus = np.array([s[pre_idx, 1] for s in rel_series.values()])
    plateau_ok = np.abs(plateaus).max() > 1e-3
    tails = np.array([s[-1, 1] for s in rel_series.values()])
    tail_ok = np.abs(tails).max() <= 1e-6
    elapsed = time.perf_counter() - t0

    ok = (spread_ok and converged_pre and jump_ok and reconverged
          and plateau_ok and tail_ok and elapsed < 5.0)
    criterion(7, "figure-shape qualitative reproduction", ok,
              f"spread={spread_ok} converge={converged_pre} jump={jump_ok} "
              f"reconverge={reconverged} plateaus={plateau_ok} tail={tail_ok} "
              f"time {elapsed:.2f}s < 5s")


def test_criterion_8_discrete_mode():
    from bittide_sim.config import parse_config
    from pathlib import Path

    cfg = parse_config(Path(__file__).resolve().parent.parent
                       / "configs" / "e1_discrete.json")
    scenario = cfg.discrete_scenario(cfg.system())
    trace = run_discrete(scenario)
    no_faults = fault_report(trace) == [] and not trace.aborted
    terminal_ok = np.abs(trace.occupancy[-1] - 10.0).max() <= 2.0  # 1 + 1 frames

    cont = run(scenario.system,
               schedule=ReframeSchedule(mode="fixed-time", T1=250.0),
               settings=IntegratorSettings(horizon=250.0, post_horizon=250.0,
                                           sample_interval=scenario.step_size()))
    worst_gap = 0.0
    for phase in ("pre-reframe", "post-reframe"):
        di = [i for i, m in enumerate(trace.mode) if m == phase]
        ci = [i for i, m in enumerate(cont.mode) if m == phase]
        for e in range(2):
            ref = np.interp(trace.times[di], cont.times[ci],
                            cont.occupancy[ci, e])
            worst_gap = max(worst_gap,
                            np.abs(trace.occupancy[di, e] - ref).max())
    criterion(8, "discrete mode", no_faults and terminal_ok and worst_gap <= 2.0,
              f"faults empty={no_faults}, terminal within 2 frames={terminal_ok}, "
              f"continuous gap {worst_gap:.3g} <= 2 frames")


def test_criterion_9_determinism(tmp_path):
    from pathlib import Path

    config = Path(__file__).resolve().parent.parent / "configs" / "e1.json"
    for sub in ("a", "b"):
        assert cli_main(["run", "--config", str(config),
                         "--out", str(tmp_path / sub)]) == 0
    identical = ((tmp_path / "a/trace.csv").read_bytes()
                 == (tmp_path / "b/trace.csv").read_bytes())
    criterion(9, "byte-identical reruns", identical,
              "trace.csv bytes equal across repeated runs")
