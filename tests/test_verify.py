import json
import warnings

import numpy as np
import pytest

from bittide_sim import (IntegratorSettings, ReframeSchedule, Topology,
                         TopologyError, build_incidence, dynamics, graph,
                         make_system_params, prepare, run)
from bittide_sim.verify import (ALL_CHECKS, Scenario, check_correction_limit,
                                check_feasible_residual, check_occupancy_limit,
                                check_projector_limit, check_reframe_centering,
                                check_reframe_frequency,
                                check_spectral_identities,
                                make_infeasible_scenario, make_random_scenario,
                                run_battery)
from conftest import count_calls


@pytest.fixture
def e1_scenario():
    topology = Topology(n=2, edges=[(1, 2), (2, 1)])
    params = make_system_params(topology, k=0.1, omega_u=[1.00, 1.02], lam=10.0)
    return Scenario(topology=topology, params=params, theta0=np.zeros(2), seed=1)


@pytest.fixture
def reducible_scenario():
    topology = Topology(n=2, edges=[(1, 2)])
    params = make_system_params(topology, k=0.1, omega_u=1.0, beta_off=10.0)
    return Scenario(topology=topology, params=params, theta0=np.zeros(2), seed=2)


def test_feasibility_passes_with_zero_residual(e1_scenario):
    v = check_feasible_residual(e1_scenario)
    assert v.status == "pass"
    assert v.residual <= 1e-13  # theta0 in span(1) gives r = 0 exactly


def test_feasibility_passes_for_random_start():
    v = check_feasible_residual(make_random_scenario(17))
    assert v.status == "pass"


def test_feasibility_not_applicable_for_infeasible_offsets():
    v = check_feasible_residual(make_infeasible_scenario(17))
    assert v.status == "not-applicable"
    assert "infeasible" in v.detail


def test_projector_limit_two_node(e1_scenario):
    v = check_projector_limit(e1_scenario, horizon=250.0)  # 50 / 0.2
    assert v.status == "pass"


def test_projector_limit_ring():
    topology = Topology(n=3, edges=[(1, 2), (2, 3), (3, 1)])
    params = make_system_params(topology, k=1.0, omega_u=1.0)
    v = check_projector_limit(Scenario(topology, params, np.zeros(3)))
    assert v.status == "pass"


def test_reducible_scenario_reported_invalid(reducible_scenario):
    for chk in (check_projector_limit, check_correction_limit,
                check_occupancy_limit, check_reframe_frequency,
                check_reframe_centering, check_spectral_identities):
        v = chk(reducible_scenario)
        assert v.status == "invalid-scenario"
        assert "not strongly connected" in v.detail


def test_correction_limit(e1_scenario):
    v = check_correction_limit(e1_scenario)
    assert v.status == "pass"


def test_correction_limit_uniform_clocks():
    topology = Topology(n=3, edges=[(1, 2), (2, 3), (3, 1)])
    params = make_system_params(topology, k=0.3, omega_u=1.0)
    v = check_correction_limit(Scenario(topology, params, np.zeros(3), seed=4))
    assert v.status == "pass"


def test_occupancy_limit(e1_scenario):
    assert check_occupancy_limit(e1_scenario).status == "pass"


def test_reframe_checks(e1_scenario):
    assert check_reframe_frequency(e1_scenario).status == "pass"
    assert check_reframe_centering(e1_scenario).status == "pass"


def test_infeasible_scenario_builds_no_incidence(monkeypatch):
    calls = count_calls(monkeypatch, graph.build_incidence)
    sc = make_infeasible_scenario(17)
    assert calls == []
    inc = build_incidence(sc.topology)
    bump = np.zeros(sc.topology.m)
    bump[0] = -1.0
    np.testing.assert_array_equal(
        sc.params.beta_off, inc.B.T @ sc.theta0 + sc.params.lam + bump)


def test_negative_controls_keep_clocks_forward():
    # the acceptance suite's centering controls, run as it runs them, stay in
    # the model's physical range: no clock reaches omega <= 0
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message=".*clock frequency")
        for seed in range(5000, 5100):
            sc = make_infeasible_scenario(seed)
            system = prepare(sc.topology, sc.params, sc.theta0)
            horizon = system.sd.horizon(50.0)
            run(system, schedule=ReframeSchedule(mode="fixed-time", T1=horizon),
                settings=IntegratorSettings(horizon=horizon, post_horizon=horizon,
                                            sample_interval=horizon / 4))


def test_centering_fails_without_feasibility():
    v = check_reframe_centering(make_infeasible_scenario(23))
    assert v.status == "fail"
    assert v.residual > 1e-3


def test_spectral_identities(e1_scenario):
    assert check_spectral_identities(e1_scenario).status == "pass"


def test_checks_are_deterministic(e1_scenario):
    a = check_correction_limit(e1_scenario)
    b = check_correction_limit(e1_scenario)
    assert a == b


def test_battery_small_run_passes_and_serializes():
    report = run_battery(count=6, seed=3, infeasible_count=4)
    assert report["all_pass"]
    # every named check ran on every positive scenario (6 random + defective)
    for stats in report["summary"]["checks"].values():
        assert sum(stats["statuses"].values()) == 7
    assert report["summary"]["uncentered_negative_controls"] == 4
    json.dumps(report)  # JSON-ready


def test_battery_exercises_non_diagonalizable_matrix():
    from bittide_sim.verify import _defective_scenario, _is_diagonalizable

    report = run_battery(count=1, seed=0, infeasible_count=0)
    fp = report["summary"]["non_diagonalizable"]
    assert fp != "not exercised"
    # the pinned scenario guarantees the case even if no random draw hits one
    clm = _defective_scenario().system.clm
    assert not _is_diagonalizable(clm.A)
    labels = [row["scenario"]["label"] for row in report["scenarios"]]
    assert "defective-stable-part" in labels


def test_battery_empty_run():
    report = run_battery(count=0, seed=0, infeasible_count=0)
    assert report["all_pass"]
    assert report["scenarios"] == []


def test_battery_deterministic():
    a = run_battery(count=3, seed=11, infeasible_count=2)
    b = run_battery(count=3, seed=11, infeasible_count=2)
    a["summary"].pop("elapsed_seconds")
    b["summary"].pop("elapsed_seconds")
    assert a == b


def test_battery_solves_once_per_scenario(solve_calls):
    report = run_battery(count=3, seed=0, infeasible_count=2)
    # 3 random scenarios, the pinned defective one, and 2 negative controls
    assert len(report["scenarios"]) + len(report["negative_controls"]) == 6
    assert len(solve_calls) == 6


def test_battery_simulates_each_trajectory_once(monkeypatch):
    runs = count_calls(monkeypatch, dynamics.run)
    flows = count_calls(monkeypatch, dynamics.exact_flow_operators)
    run_battery(count=3, seed=0, infeasible_count=2)
    # each of the 4 positive scenarios runs its own q, 3 random q and one
    # reframe; each of the 2 negative controls runs one reframe
    assert len(runs) == 4 * 5 + 2
    # one closed loop per scenario, and one operator pair per distinct span
    assert len(flows) <= 26


@pytest.mark.parametrize("fill, check, shared", [
    (check_reframe_centering, check_reframe_frequency, "reframed_trace"),
    (check_reframe_frequency, check_reframe_centering, "reframed_trace"),
    (check_occupancy_limit, check_correction_limit, "own_q_trace"),
    (check_correction_limit, check_occupancy_limit, "own_q_trace"),
])
def test_checks_agree_on_a_shared_trace(fill, check, shared):
    warm = make_random_scenario(5)
    fill(warm)
    assert shared in vars(warm)   # cached by the first check
    assert check(warm) == check(make_random_scenario(5))


def test_invalid_scenario_is_prepared_once(monkeypatch, reducible_scenario):
    reach = count_calls(monkeypatch, graph.is_strongly_connected)
    verdicts = [chk(reducible_scenario) for chk in ALL_CHECKS]
    assert len(reach) == 1
    assert [v.check for v in verdicts] == [
        "feasible-residual-in-range", "projector-limit", "correction-limit",
        "occupancy-limit-pre", "reframe-frequency", "reframe-centering",
        "spectral-identities"]
    assert {(v.status, v.detail) for v in verdicts} == {
        ("invalid-scenario", "topology is not strongly connected")}
    # the tracer labels the checks by these names
    assert [chk.__name__ for chk in ALL_CHECKS] == [
        "check_feasible_residual", "check_projector_limit",
        "check_correction_limit", "check_occupancy_limit",
        "check_reframe_frequency", "check_reframe_centering",
        "check_spectral_identities"]
    with pytest.raises(TopologyError, match="not strongly connected"):
        reducible_scenario.system
    assert len(reach) == 1
