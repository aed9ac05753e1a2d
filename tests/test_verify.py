import dataclasses
import hashlib
import importlib.util
import json
import warnings
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bittide_sim import (IntegratorSettings, ReframeSchedule, Topology,
                         TopologyError, build_incidence, cli, dynamics, graph,
                         make_system_params, prepare, run, verify)
from bittide_sim.spectral import matrix_exponential
from bittide_sim.verify import (ALL_CHECKS, Scenario, check_correction_limit,
                                check_feasible_residual, check_occupancy_limit,
                                check_projector_limit, check_reframe_centering,
                                check_reframe_frequency,
                                check_spectral_identities,
                                make_infeasible_scenario, make_random_scenario,
                                run_battery)
from conftest import count_calls, horizon_reframe, prepared


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), infeasible=st.booleans(),
       n_max=st.sampled_from([8, 24]))
def test_feasible_residual_misfit_is_the_least_squares_one(seed, infeasible,
                                                           n_max):
    make = make_infeasible_scenario if infeasible else make_random_scenario
    scenario = make(seed, n_range=(2, n_max))
    v = check_feasible_residual(scenario)
    clm = prepared(scenario).clm
    x, *_ = np.linalg.lstsq(clm.A, -clm.r, rcond=None)
    misfit = float(np.abs(clm.A @ x + clm.r).max())
    scale = max(1.0, float(np.abs(clm.r).max()))
    # two roundings of O(n) terms each; far below the range tolerance
    assert abs(v.residual - misfit) <= 1e-12 * scale
    assert v.tolerance == verify.TOL_RANGE * scale
    assert v.status == ("pass" if misfit <= v.tolerance
                        else "not-applicable" if infeasible else "fail")


def test_only_given_offsets_excuse_a_misfit_as_infeasible():
    # a random scenario derives its offsets at t = 0 and an infeasible
    # control gives its own; stacked, as the battery evaluates them, a
    # misfit forced over the tolerance fails the first and excuses the other
    scenarios = [make_random_scenario(3), make_infeasible_scenario(3)]
    outcomes = verify._evaluate(scenarios)
    assert [outcome.explicit_offsets for outcome in outcomes] == [False, True]
    for sc, outcome, status in zip(scenarios, outcomes,
                                   ("fail", "not-applicable")):
        vars(sc)["outcome"] = outcome._replace(range_misfit=1.0)
        assert check_feasible_residual(sc).status == status


def test_projector_limit_two_node(e1_scenario):
    v = check_projector_limit(e1_scenario)
    assert v.status == "pass" and v.detail == "horizon 250"  # 50 / 0.2


def test_projector_limit_ring():
    topology = Topology(n=3, edges=[(1, 2), (2, 3), (3, 1)])
    params = make_system_params(topology, k=1.0, omega_u=1.0)
    v = check_projector_limit(Scenario(topology, params, np.zeros(3)))
    assert v.status == "pass"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_projector_squares_the_sample_operator_to_the_horizons_bits(seed):
    # on the battery's distribution ||Ah||_1 >= 50 > 8 theta_13, so the
    # exponential at h scales A h by 2^-s with s >= 3 and squares the same
    # Pade approximant as the exponential at h/8, three more times
    scenario = make_random_scenario(seed)
    system = prepared(scenario)
    h = system.sd.horizon()
    E = matrix_exponential(system.clm, h / 8)
    for _ in range(3):
        E = E @ E
    expm_h = matrix_exponential(system.clm, h)
    assert E.tobytes() == expm_h.tobytes()
    # the one flow-operator call builds the sample operator e^{Ah/8}, the
    # check squares it, and the run steps with it: it builds none of its own
    with pytest.MonkeyPatch.context() as monkeypatch:
        flows = count_calls(monkeypatch, dynamics.exact_flow_operators)
        stacked = count_calls(monkeypatch, dynamics.run_horizon_reframes)
        v = check_projector_limit(scenario)
    (_, spans), = flows
    assert spans == [h / 8]
    (_, (phi,)), = stacked
    assert phi.tobytes() == matrix_exponential(system.clm, h / 8).tobytes()
    assert v.residual == float(np.abs(expm_h - system.sd.W).max())


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
            horizon = system.sd.horizon()
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
    clm = prepared(_defective_scenario()).clm
    assert not _is_diagonalizable(clm.A)
    labels = [row["scenario"]["label"] for row in report["scenarios"]]
    assert "defective-stable-part" in labels


def test_stacked_probe_matches_per_matrix_and_each_trace_is_freed(
        monkeypatch):
    # the battery probes diagonalizability once per n, in the residual
    # pass, before its checks: every scenario's outcome, the controls' too,
    # has its per-matrix answer, and the report names the last
    # non-diagonalizable checked one in seed order.  Every system and trace
    # the battery makes is freed before its first check, and once it has
    # run each scenario holds its fields and its outcome alone, so the
    # battery's memory stays one size's runs
    probe = verify._is_diagonalizable
    stacked = []

    def stacked_probe(A):
        flags = probe(A)
        assert A.ndim == 3 and len({len(a) for a in A}) == 1
        for matrix, flag in zip(A, flags):
            assert flag == probe(matrix)
        stacked.append(len(A))
        return flags

    evaluated, refs = [], []
    evaluate = verify._evaluate

    def keep(scenarios):
        evaluated.extend(scenarios)
        return evaluate(scenarios)

    def weakly(fn):
        # weakrefs to the systems passed in and to what comes out
        def spy(cases, *args):
            out = fn(cases, *args)
            refs.extend(weakref.ref(x) for x in [*cases, *out]
                        if not isinstance(x, (tuple, Exception)))
            return out
        return spy

    seen = []       # (seed, per-matrix flag)
    first, last = ALL_CHECKS[0], ALL_CHECKS[-1]

    def first_check(scenario):
        assert all(ref() is None for ref in refs)
        return first(scenario)

    def last_check(scenario):
        seen.append((scenario.seed, bool(probe(prepared(scenario).clm.A))))
        return last(scenario)

    monkeypatch.setattr(verify, "_is_diagonalizable", stacked_probe)
    monkeypatch.setattr(verify, "_evaluate", keep)
    for name in ("prepare_all", "run_horizon_reframes"):
        monkeypatch.setattr(verify, name, weakly(getattr(verify, name)))
    monkeypatch.setattr(verify, "ALL_CHECKS",
                        (first_check, *ALL_CHECKS[1:-1], last_check))
    report = run_battery(count=30, seed=7, infeasible_count=5)
    assert report["all_pass"]
    assert len(seen) == len(report["scenarios"]) == 31
    assert sum(stacked) == 31 + 5 and len(stacked) == len(
        {row["scenario"]["n"] for row in report["scenarios"]
         + report["negative_controls"]})
    seeds = [seed for seed, _ in seen]
    assert seeds == sorted(seeds)
    defective = [seed for seed, flag in seen if not flag]
    assert report["summary"]["non_diagonalizable"]["seed"] == defective[-1]
    # the prepared systems, the systems run with their offsets, the traces
    assert len(evaluated) == 31 + 5
    assert [sc.outcome.diagonalizable for sc in evaluated] == [
        bool(probe(prepared(sc).clm.A)) for sc in evaluated]
    assert len(refs) == 3 * len(evaluated)
    assert all(ref() is None for ref in refs)
    fields = {field.name for field in dataclasses.fields(Scenario)}
    assert all(set(vars(sc)) == fields | {"outcome"} for sc in evaluated)
    # only the controls' offsets are given; the rest derive theirs at t = 0
    assert [sc.outcome.explicit_offsets for sc in evaluated] == (
        [False] * 31 + [True] * 5)


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
    stacked = count_calls(monkeypatch, dynamics.run_horizon_reframes)
    flows = count_calls(monkeypatch, dynamics.exact_flow_operators)
    report = run_battery(count=3, seed=0, infeasible_count=2)
    # each of the 4 positive scenarios and the 2 negative controls runs its
    # own q and 3 random q, with their reframe, once: in one stacked run per
    # size n, and never through `run`
    assert not runs
    sizes = {row["scenario"]["n"] for row in report["scenarios"]
             + report["negative_controls"]}
    assert len(stacked) == len(sizes)
    assert all(len({system.inc.n for system in systems}) == 1
               and len(phis) == len(systems) for systems, phis in stacked)
    assert sum(len(systems) for systems, _ in stacked) == 4 + 2
    # one closed loop per scenario, and its one span's operator, from
    # preparing's one stacked call
    assert len(flows) == 1


def _assert_traces_equal(trace, oracle):
    for name in ("times", "theta", "correction", "reframe_payload"):
        a, b = getattr(trace, name), getattr(oracle, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert trace.mode == oracle.mode
    assert trace.reframe_time == oracle.reframe_time
    assert trace.inc is oracle.inc
    assert trace.omega_u is oracle.omega_u and trace.lam is oracle.lam


def _assert_stacked_traces_equal_run(scenarios):
    # the battery's traces, stacked by n, against `run` of each prepared
    # system with its scenario's offsets
    stacked, runner = [], dynamics.run_horizon_reframes

    def spy(systems, phis):
        traces = runner(systems, phis)
        stacked.extend(zip(systems, traces))
        return traces

    systems, preparer = [], verify.prepare_all

    def prepare_spy(cases):
        out = preparer(cases)
        systems.extend(out)
        return out

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(verify, "run_horizon_reframes", spy)
        monkeypatch.setattr(verify, "prepare_all", prepare_spy)
        verify._evaluate(scenarios)
    own = {id(system.clm): (sc, system)
           for sc, system in zip(scenarios, systems)}
    for system, trace in stacked:
        sc, bare = own.pop(id(system.clm))
        assert system == replace(bare, params=system.params)
        assert system.params.q.tobytes() == sc.offsets().tobytes()
        _assert_traces_equal(trace, run(system, **horizon_reframe(system)))
    assert not own


@settings(max_examples=30, deadline=None)
@given(seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=10),
       controls=st.lists(st.integers(0, 10**6), max_size=3))
def test_stacked_traces_equal_run_bit_for_bit(seeds, controls):
    _assert_stacked_traces_equal_run(
        [make_random_scenario(seed) for seed in seeds]
        + [make_infeasible_scenario(seed) for seed in controls]
        + [verify._defective_scenario()])


def test_stacked_traces_equal_run_at_n_16_to_64():
    # sizes the default battery never draws
    _assert_stacked_traces_equal_run(
        [make_random_scenario(7 + i, (16, 64)) for i in range(12)]
        + [make_infeasible_scenario(10_007 + i, (16, 64)) for i in range(3)])


def _assert_stacked_residuals_equal_alone(scenarios):
    # the battery's outcomes, one pass per size n, against each scenario
    # checked alone as a stack of one: every residual to the bit, and every
    # field of every verdict
    outcomes = verify._evaluate(scenarios)
    assert len({sc.topology.n for sc in scenarios}) < len(scenarios)
    for sc, stacked in zip(scenarios, outcomes):
        alone = replace(sc)     # nothing evaluated or cached yet
        assert "outcome" not in vars(alone)
        assert repr(stacked) == repr(alone.outcome)
        assert stacked._asdict() == alone.outcome._asdict()
        vars(sc)["outcome"] = stacked     # as run_battery fills it
        for check in ALL_CHECKS:
            assert repr(check(sc)) == repr(check(alone))
            assert check(sc).row() == check(alone).row()


@settings(max_examples=25, deadline=None)
@given(seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=10),
       controls=st.lists(st.integers(0, 10**6), max_size=3))
@example(seeds=[0, 2, 3, 4, 1, 6], controls=[101, 102, 103])
def test_stacked_residuals_equal_each_scenario_alone(seeds, controls):
    # mixed n, the infeasible controls and the defective scenario, which
    # shares n = 3 with the last control
    _assert_stacked_residuals_equal_alone(
        [make_random_scenario(seed) for seed in seeds]
        + [make_infeasible_scenario(seed) for seed in controls]
        + [verify._defective_scenario(), make_random_scenario(9),
           make_infeasible_scenario(105)])


def test_stacked_residuals_equal_each_scenario_alone_at_n_16_to_64():
    # sizes the default battery never draws; n = 23 and 59 come twice
    _assert_stacked_residuals_equal_alone(
        [make_random_scenario(7 + i, (16, 64)) for i in range(12)]
        + [make_infeasible_scenario(10_007 + i, (16, 64)) for i in range(3)])


def test_a_far_horizon_stacks_and_equals_run_bit_for_bit(monkeypatch):
    # at k = 6e-5 a two-node loop's horizon is 416666.67, where 8 additions
    # of h/8 land one ulp (5.8e-11) short of T1; sample 8 sits at 8 (h/8),
    # which is h exactly, so `run` keeps the 8 + 8 schedule and both systems
    # are stacked: the k = 0.1 one too, each on its own sample operator
    topology = Topology(n=2, edges=[(1, 2), (2, 1)])
    offsets = np.array([[0.0, 0.0], [0.01, -0.02], [-0.03, 0.0], [0.02, 0.01]])
    far, near = (replace(system, params=system.params.with_q(offsets))
                 for system in (prepare(topology, make_system_params(
                     topology, k=k, omega_u=[1.0, 1.02])) for k in (6e-5, 0.1)))
    horizon = far.sd.horizon()
    assert sum([horizon / 8] * 8) != horizon
    oracles = [run(system, **horizon_reframe(system))
               for system in (far, near)]
    assert [len(trace) for trace in oracles] == [18, 18]
    assert oracles[0].times[8] == oracles[0].reframe_time == horizon
    runs = count_calls(monkeypatch, dynamics.run)
    phis = dynamics.exact_flow_operators(
        [far.clm, near.clm], [horizon / 8, near.sd.horizon() / 8])
    for trace, oracle in zip(dynamics.run_horizon_reframes([far, near], phis),
                             oracles):
        _assert_traces_equal(trace, oracle)
    assert not runs


def test_battery_runs_on_the_operators_preparing_built(monkeypatch):
    # every scenario is prepared before the checks, and its run's one
    # sample operator e^{Ah/8} comes from one stacked call; the steps onto
    # the on-grid T1 = h and onto the end reuse it, so no other is built
    flows = count_calls(monkeypatch, dynamics.exact_flow_operators)
    stacked = count_calls(monkeypatch, dynamics.run_horizon_reframes)
    evaluated, evaluate = [], verify._evaluate

    def keep(scenarios):
        evaluated.extend(scenarios)
        return evaluate(scenarios)

    monkeypatch.setattr(verify, "_evaluate", keep)
    report = run_battery(count=12, seed=3, infeasible_count=4)
    assert report["all_pass"]
    assert len(flows) == 1
    assert len(evaluated) == 13 + 4
    (clms, spans), = flows
    built = {id(clm): (clm, span) for clm, span in zip(clms, spans)}
    assert len(built) == 13 + 4
    for systems, phis in stacked:
        for system, phi in zip(systems, phis):
            clm, span = built.pop(id(system.clm))
            assert span == system.sd.horizon() / 8
            assert phi.tobytes() == matrix_exponential(clm, span).tobytes()
    assert not built


@pytest.mark.parametrize("fill, check", [
    pytest.param(fill, check, id=f"{fill.__name__}-{check.__name__}-outcome")
    for fill, check in [(check_reframe_centering, check_reframe_frequency),
                        (check_reframe_frequency, check_reframe_centering),
                        (check_occupancy_limit, check_correction_limit),
                        (check_correction_limit, check_occupancy_limit)]])
def test_checks_agree_on_a_shared_trace(monkeypatch, fill, check):
    # both checks read the one outcome of the scenario's one trace
    warm = make_random_scenario(5)
    fill(warm)
    assert "outcome" in vars(warm)   # cached by the first check
    evaluations = count_calls(monkeypatch, verify._evaluate)
    assert check(warm) == check(make_random_scenario(5))
    assert len(evaluations) == 1     # the cold scenario's


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
    assert isinstance(reducible_scenario.outcome, TopologyError)
    assert str(reducible_scenario.outcome) == (
        "topology is not strongly connected")
    assert len(reach) == 1


def test_verdict_rows_are_asdict_in_field_order(e1_scenario, reducible_scenario):
    # the battery's rows skip asdict's deep copy; the JSON must not change
    verdicts = [chk(sc) for sc in (e1_scenario, reducible_scenario)
                for chk in ALL_CHECKS]
    assert any(v.residual is None for v in verdicts)
    for v in verdicts:
        assert list(v.row().items()) == list(asdict(v).items())


def _output_digests():
    """scripts/output_digests.py as a module."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", script)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    return digests


def test_battery_verdicts_keep_their_pinned_digest():
    # statuses, fingerprints and tolerances of `verify --count 20 --seed 7`:
    # a change to any of them needs a stated update of this pin
    _, _, bare = _output_digests().battery_digest(20, 7)
    assert bare == ("55463dad70e0877681db206f17d4720b"
                    "193c7bc8c9ba5c032dd017a245aa27f8")


def test_battery_residual_lines_give_each_worst_residual(tmp_path):
    digests = _output_digests()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(["verify", "--count", "2", "--seed", "0",
                         "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "battery.json").read_text())
    lines = digests.residual_lines(report)
    checks = report["summary"]["checks"]
    assert lines[:-1] == [f"{name} {check['worst_residual']:.17g}"
                          for name, check in checks.items()]
    gap = min(row["centering"]["residual"]
              for row in report["negative_controls"])
    assert lines[-1] == f"negative-controls-min-centering-gap {gap:.17g}"
    assert float(lines[-1].split()[-1]) == gap      # %.17g round-trips


def test_battery_digest_leaves_out_only_the_elapsed_time(tmp_path):
    digests = _output_digests()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(["verify", "--count", "1", "--seed", "0",
                         "--out", str(tmp_path)]) == 0
    written = (tmp_path / "battery.json").read_bytes()
    text, found = digests.ELAPSED.subn(b"", written)
    assert found == 1
    report = json.loads(written)
    del report["summary"]["elapsed_seconds"]
    assert json.loads(text) == report
    # the residual-free digest leaves out the residuals, and nothing else
    bare = digests.without_residuals(report)
    assert '"residual"' not in json.dumps(bare)
    assert '"worst_residual"' not in json.dumps(bare)
    assert report["scenarios"][0]["verdicts"][0]["residual"] is not None
    for row, kept in zip(report["scenarios"], bare["scenarios"]):
        for verdict, kept_verdict in zip(row["verdicts"], kept["verdicts"]):
            assert {**kept_verdict, "residual": verdict["residual"]} == verdict
    for name, check in report["summary"]["checks"].items():
        assert {**bare["summary"]["checks"][name],
                "worst_residual": check["worst_residual"]} == check
    bare_text = json.dumps(bare, sort_keys=True).encode()
    assert digests.battery_digest(1, 0) == (
        0, hashlib.sha256(text).hexdigest(),
        hashlib.sha256(bare_text).hexdigest())


def test_battery_digest_passes_the_n_range_to_verify(tmp_path):
    # `output_digests.py --battery COUNT SEED --n-range N_MIN N_MAX` digests
    # `verify --n-min N_MIN --n-max N_MAX`
    digests = _output_digests()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(["verify", "--count", "2", "--seed", "7",
                         "--n-min", "9", "--n-max", "10",
                         "--out", str(tmp_path)]) == 0
    written = (tmp_path / "battery.json").read_bytes()
    text = digests.ELAPSED.sub(b"", written)
    assert json.loads(text)["settings"]["n_range"] == [9, 10]
    assert digests.battery_digest(2, 7, (9, 10)) == (0, *digests._digests(text))
    assert digests.battery_digest(2, 7) != digests.battery_digest(2, 7, (9, 10))
