import json
import time
import warnings
import weakref
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from bittide_sim import (IntegratorSettings, OneShotReset, ReframeSchedule,
                         Topology, TopologyError, floatfmt, build_closed_loop, build_incidence, controller, dynamics,
                         generate_topology, init_state, make_system_params,
                         observe, predict_beta_ss, predict_omega_ss, prepare,
                         run, spectral, step)
from bittide_sim.config import parse_config, parse_config_dict
from bittide_sim.controller import POST_REFRAME, PRE_REFRAME
from bittide_sim.dynamics import stability_bound
from bittide_sim.verify import make_random_scenario
from conftest import count_calls, prepared, random_scenario, spectral_setup

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def exact_flow(params, clm, sd, dt) -> tuple:
    """The (Phi, w) of an exact step of dt, built as `run` builds them:
    Phi = e^{A dt} from `exact_flow_operators`, w from `_drift_integral`."""
    phi, = dynamics.exact_flow_operators([clm], [dt])
    return phi, dynamics._drift_integral(sd, phi, dt,
                                         dynamics._drift(clm, params))


def test_init_feasible_offsets_at_zero_phase(two_cycle):
    inc = build_incidence(two_cycle)
    params = make_system_params(two_cycle, k=0.1, omega_u=[1.0, 1.02], lam=10.0)
    theta0, params = init_state(inc, params, 0.0)
    np.testing.assert_array_equal(params.beta_off, [10.0, 10.0])
    np.testing.assert_array_equal(theta0, [0.0, 0.0])
    clm = build_closed_loop(inc, params)
    _, c, beta = observe(theta0, params, clm)
    np.testing.assert_array_equal(beta, params.beta_off)
    np.testing.assert_array_equal(c, [0.0, 0.0])


def test_init_feasible_offsets_with_phase_spread(two_cycle):
    inc = build_incidence(two_cycle)
    params = make_system_params(two_cycle, k=0.1, omega_u=[1.0, 1.02], lam=10.0)
    _, params = init_state(inc, params, [1.0, 0.0])
    np.testing.assert_array_equal(params.beta_off, [11.0, 9.0])


def test_negative_explicit_offsets_warn(two_cycle):
    inc = build_incidence(two_cycle)
    params = make_system_params(two_cycle, k=0.1, omega_u=1.0, beta_off=[-1.0, 5.0])
    with pytest.warns(UserWarning, match="negative"):
        init_state(inc, params, 0.0)


def test_single_field_updates_check_only_that_field(two_cycle, monkeypatch):
    params = make_system_params(two_cycle, k=0.1, omega_u=[1.0, 1.02],
                                beta_off=10.0)
    for name, value in (("q", np.ones((3, 2))), ("beta_off", [9.0, 11.0])):
        updated = getattr(params, f"with_{name}")(value)
        expected = replace(params, **{name: value})
        for field in ("k", "omega_u", "lam", "beta_off", "q"):
            assert _bits(getattr(updated, field)) == _bits(
                getattr(expected, field))
        assert _bits(getattr(params, name)) != _bits(getattr(updated, name))
    with pytest.raises(ValueError, match="q must be one row or a block"):
        params.with_q(np.zeros(3))
    with pytest.raises(ValueError, match="beta_off and lambda must have"):
        params.with_beta_off([1.0])
    # neither update runs the constructor's checks again
    monkeypatch.setattr(dynamics.SystemParams, "__post_init__",
                        lambda self: pytest.fail("checked again"))
    params.with_q(np.zeros(2)).with_beta_off(None)


def test_make_system_params_copies_and_broadcasts(two_cycle):
    omega_u = np.array([1.0, 1.02])
    params = make_system_params(two_cycle, k=0.1, omega_u=omega_u, lam=10.0,
                                q=0.5)
    omega_u[0] = 2.0
    np.testing.assert_array_equal(params.omega_u, [1.0, 1.02])
    np.testing.assert_array_equal(params.lam, [10.0, 10.0])
    np.testing.assert_array_equal(params.q, [0.5, 0.5])
    with pytest.raises(ValueError):
        make_system_params(two_cycle, k=0.1, omega_u=[1.0, 1.0, 1.0])


def test_feasible_residual_lies_in_range_of_A():
    topology, params, theta0 = random_scenario(7)
    inc, params, clm, _ = spectral_setup(topology, params.k, params.omega_u,
                                         lam=params.lam, theta0=theta0)
    x, residual, *_ = np.linalg.lstsq(clm.A, -clm.r, rcond=None)
    misfit = np.abs(clm.A @ x + clm.r).max()
    assert misfit <= 1e-10 * max(1.0, np.abs(clm.r).max())


def test_consensus_equilibrium_is_fixed(two_cycle):
    # uniform clocks, feasible start in span(1): nothing moves
    inc, params, clm, sd = spectral_setup(two_cycle, k=0.5, omega_u=1.0,
                                          theta0=[2.0, 2.0])
    theta = np.array([2.0, 2.0])
    new = step(theta, params, clm, dt=3.0, method="exact",
               flow=exact_flow(params, clm, sd, 3.0))
    np.testing.assert_allclose(new - theta, 3.0 * np.ones(2),
                               atol=1e-12)
    _, c, beta = observe(new, params, clm)
    np.testing.assert_allclose(c, np.zeros(2), atol=1e-12)
    np.testing.assert_allclose(beta, params.beta_off, atol=1e-12)


def test_exact_vs_rk4_agreement(e1):
    _, inc, params, clm, sd = e1
    se = np.zeros(2)
    sr = np.zeros(2)
    dt = 0.01
    flow = exact_flow(params, clm, sd, dt)
    for _ in range(10000):  # horizon 100
        se = step(se, params, clm, dt, "exact", flow)
        sr = step(sr, params, clm, dt, "rk4")
    assert np.abs(se - sr).max() <= 1e-8


def test_euler_approaches_exact(e1):
    _, inc, params, clm, sd = e1
    se = np.zeros(2)
    su = np.zeros(2)
    flow = exact_flow(params, clm, sd, 0.01)
    for _ in range(1000):
        se = step(se, params, clm, 0.01, "exact", flow)
        su = step(su, params, clm, 0.01, "euler")
    assert np.abs(se - su).max() <= 1e-3


def test_explicit_methods_enforce_stability_bound(e1):
    _, inc, params, clm, _ = e1
    theta = np.zeros(2)
    bound = stability_bound(inc, params.k)
    assert bound == 10.0
    with pytest.raises(ValueError, match="stability bound"):
        step(theta, params, clm, dt=bound * 1.01, method="euler")
    with pytest.raises(ValueError, match="stability bound"):
        step(theta, params, clm, dt=bound * 1.01, method="rk4")
    step(theta, params, clm, dt=bound, method="euler")  # at the bound is fine


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("T1, post, substeps", [(None, "0", "1e+301"),
                                                 (10.0, "10", "2e+301")])
def test_run_refuses_too_many_substeps_before_the_first(e1, monkeypatch,
                                                        method, T1, post,
                                                        substeps):
    # 10 / 1e-300 substeps of e1 ran on for as long as they took; the run
    # ends before its first substep, so a kernel call fails the test and
    # cannot hang it
    topology, _, params, _, _ = e1
    system = prepare(topology, params)

    def refused(*args, **kwargs):
        raise AssertionError("the run reached the Taylor kernel")

    monkeypatch.setattr(dynamics, "taylor_action", refused)
    schedule = None if T1 is None else ReframeSchedule(mode="fixed-time",
                                                       T1=T1)
    start = time.perf_counter()
    with pytest.raises(ValueError) as caught:
        run(system, schedule=schedule,
            settings=IntegratorSettings(method=method, dt=1e-300,
                                        horizon=10.0, sample_interval=2.5))
    assert time.perf_counter() - start < 1.0
    assert str(caught.value) == (
        f"horizon 10 and post_horizon {post} in {method} substeps of 1e-300 "
        f"make {substeps} substeps; a run takes at most "
        f"{dynamics.MAX_SAMPLES}")


@pytest.mark.parametrize("T1, post, samples", [(None, "0", "1.67e+14"),
                                               (1.0, "166.667", "3.33e+14")])
def test_run_refuses_too_many_samples_before_sizing_its_history(
        ring3, monkeypatch, T1, post, samples):
    # 1e-12 sample intervals of a 3-node ring's horizon asked numpy for
    # 1.18 PiB of history and ended in a MemoryError; the run refuses them
    # before it sizes its history, so a history fails the test
    system = prepare(ring3, make_system_params(ring3, k=0.2, omega_u=1.0))

    def refused(*args, **kwargs):
        raise AssertionError("the run sized its history")

    monkeypatch.setattr(controller.CorrectionHistory, "__init__", refused)
    schedule = None if T1 is None else ReframeSchedule(mode="fixed-time",
                                                       T1=T1)
    with pytest.raises(ValueError) as caught:
        run(system, schedule=schedule,
            settings=IntegratorSettings(sample_interval=1e-12))
    assert str(caught.value) == (
        f"horizon 166.667 and post_horizon {post} over sample_interval "
        f"1e-12 make {samples} samples; a run records at most "
        f"{dynamics.MAX_SAMPLES}")


def _euler(A, theta, v, dt):
    """euler's step written out: theta + dt (A (theta - mean theta) + v)."""
    return theta + dt * (A @ (theta - theta.mean(axis=0)) + v)


def _rk4(A, theta, v, dt):
    """rk4's four stages written out, each product on mean-removed phases."""
    def f(x):
        return A @ (x - x.mean(axis=0)) + v

    k1 = f(theta)
    k2 = f(theta + 0.5 * dt * k1)
    k3 = f(theta + 0.5 * dt * k2)
    k4 = f(theta + dt * k3)
    return theta + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), frac=st.floats(1e-6, 1.0),
       grown=st.sampled_from([0.0, 1e2, 1e6]), K=st.sampled_from([None, 3]),
       substeps=st.integers(1, 5))
def test_taylor_kernel_is_euler_and_rk4(seed, frac, grown, K, substeps):
    # the battery's scenario distribution (random-strong, n from 2 to 8),
    # phases grown by up to 1e6 and a step up to the stability bound.  On
    # theta' = A theta + v an explicit Runge-Kutta step of order p <= 4 in p
    # stages is the degree-p Taylor polynomial of e^{hM}, M = [[A, v],
    # [0, 0]] (Hairer, Norsett & Wanner, Solving ODEs I, II.1): the kernel
    # at degree 1 is euler bit for bit, and at degree 4 it is rk4 to
    # rounding, 8 eps of the scale max(|theta|, h |v|)
    system = prepared(make_random_scenario(seed))
    clm, params = system.clm, system.params
    h = frac * stability_bound(system.inc, params.k)
    theta = system.theta0 + grown
    if K is not None:
        params = params.with_q(np.random.default_rng(seed).normal(
            scale=0.01, size=(K, system.inc.n)))
        theta = np.repeat(theta[:, None], K, axis=1)
    A, v = clm.A, dynamics._drift(clm, params)
    np.testing.assert_array_equal(dynamics.taylor_action(A, theta, v, h, 1),
                                  _euler(A, theta, v, h))
    gap = np.abs(dynamics.taylor_action(A, theta, v, h, 4)
                 - _rk4(A, theta, v, h)).max()
    scale = max(np.abs(theta).max(), h * np.abs(v).max())
    assert gap <= 8 * np.finfo(float).eps * scale
    # a step of s substeps of dt / s is s steps of dt / s, as the written-out
    # reference run takes them, bit for bit
    dt = substeps * h
    for method in ("euler", "rk4"):
        one = theta
        for _ in range(substeps):
            one = step(one, params, clm, dt / substeps, method)
        np.testing.assert_array_equal(
            step(theta, params, clm, dt, method, substeps=substeps), one)


def test_single_exact_step_to_steady_state(e1):
    _, inc, params, clm, sd = e1
    new = step(np.array([0.4, -0.3]), params, clm, dt=1e6, method="exact",
               flow=exact_flow(params, clm, sd, 1e6))
    omega, _, _ = observe(new, params, clm)
    np.testing.assert_allclose(omega, predict_omega_ss(sd, params), atol=1e-9)


def test_observe_per_node_form_matches_matrix_form():
    from bittide_sim import node_views, proportional_correction

    topology, params, theta0 = random_scenario(11)
    inc, params, clm, _ = spectral_setup(topology, params.k, params.omega_u,
                                         lam=params.lam, theta0=theta0)
    rng = np.random.default_rng(0)
    theta = rng.normal(size=inc.n)
    _, c, beta = observe(theta, params, clm)
    views = node_views(topology, beta, params.beta_off, params.q)
    stacked = np.array([proportional_correction(v, params.k) for v in views])
    assert np.abs(stacked - c).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_consensus_conservation_and_cycle_invariant(seed):
    topology, params, theta0 = random_scenario(seed)
    trace = run(prepare(topology, params, theta0), schedule=None,
                settings=IntegratorSettings(sample_interval=None))
    inc, params2, clm, sd = spectral_setup(topology, params.k, params.omega_u,
                                           lam=params.lam, theta0=theta0)
    drift = float(sd.z @ (params2.omega_u + params2.q + clm.r))
    projected = trace.theta @ sd.z
    expected = projected[0] + drift * (trace.times - trace.times[0])
    assert np.abs(projected - expected).max() <= 1e-8
    # ring cycle of the generator: occupancies minus lambda telescope to zero
    rel = trace.occupancy - params2.lam
    ring_sum = rel[:, : topology.n].sum(axis=1)
    assert np.abs(ring_sum).max() <= 1e-10


def test_bidirectional_pairs_conserve_occupancy():
    # beta_{i->j} + beta_{j->i} - lambda_{i->j} - lambda_{j->i} = 0 throughout
    from bittide_sim import generate_topology

    topology = generate_topology("bidirectional-ring", 4)
    rng = np.random.default_rng(2)
    params = make_system_params(topology, k=0.3,
                                omega_u=rng.uniform(0.95, 1.05, 4),
                                lam=rng.uniform(5.0, 15.0, topology.m))
    trace = run(prepare(topology, params, rng.uniform(-1, 1, 4)), schedule=None)
    rel = trace.occupancy - params.lam
    pairs = {tuple(e): i for i, e in enumerate(topology.edges)}
    for (s, d), i in pairs.items():
        j = pairs[(d, s)]
        assert np.abs(rel[:, i] + rel[:, j]).max() <= 1e-10


def test_run_converges_to_spectral_predictions():
    topology, params, theta0 = random_scenario(23)
    inc, params2, clm, sd = spectral_setup(topology, params.k, params.omega_u,
                                           lam=params.lam, theta0=theta0)
    trace = run(prepare(topology, params, theta0), schedule=None)
    omega_end, beta_end = trace.omega[-1], trace.occupancy[-1]
    w_pred = predict_omega_ss(sd, params2)
    assert np.abs(omega_end - w_pred).max() <= 1e-6 * np.abs(params.omega_u).max()
    assert np.abs(beta_end - predict_beta_ss(sd, clm, params2)).max() <= 1e-6


def test_uniform_clocks_flat_traces(ring3):
    params = make_system_params(ring3, k=0.2, omega_u=1.0)
    trace = run(prepare(ring3, params, 0.0), schedule=None)
    assert np.abs(trace.correction).max() <= 1e-12
    assert np.ptp(trace.omega, axis=1).max() <= 1e-12


def test_zero_horizon_single_sample(two_cycle):
    params = make_system_params(two_cycle, k=0.1, omega_u=[1.0, 1.02])
    trace = run(prepare(two_cycle, params), schedule=None,
                settings=IntegratorSettings(horizon=0.0, sample_interval=1.0))
    assert len(trace) == 1
    assert trace.mode == [PRE_REFRAME]


def test_run_records_reframe_sample_twice(e1):
    topology, _, params, _, _ = e1
    schedule = ReframeSchedule(mode="fixed-time", T1=250.0)
    trace = run(prepare(topology, params), schedule=schedule,
                settings=IntegratorSettings(horizon=250.0, sample_interval=12.5))
    assert trace.reframe_time == pytest.approx(250.0)
    i = trace.mode.index(POST_REFRAME)
    assert trace.times[i] == trace.times[i - 1]
    assert trace.mode[i - 1] == PRE_REFRAME
    # the correction is discontinuous across the pair, theta is not
    assert np.abs(trace.correction[i] - trace.correction[i - 1]).max() > 5e-3
    np.testing.assert_array_equal(trace.theta[i], trace.theta[i - 1])


def test_run_reframing_restores_frequency_and_centers_buffers(e1):
    topology, _, params, clm, sd = e1
    schedule = ReframeSchedule(mode="fixed-time", T1=250.0)
    trace = run(prepare(topology, params), schedule=schedule,
                settings=IntegratorSettings(horizon=250.0, sample_interval=25.0))
    omega_end, beta_end = trace.omega[-1], trace.occupancy[-1]
    np.testing.assert_allclose(omega_end, [1.01, 1.01], atol=1e-9)
    np.testing.assert_allclose(beta_end, [10.0, 10.0], atol=1e-6)
    np.testing.assert_allclose(trace.reframe_payload, [0.01, -0.01], atol=1e-9)


def test_run_rejects_reducible_topology():
    from bittide_sim import Topology
    topo = Topology(n=2, edges=[(1, 2)])
    params = make_system_params(topo, k=0.1, omega_u=1.0)
    with pytest.raises(ValueError, match="not strongly connected"):
        run(prepare(topo, params), schedule=None)


def test_trace_deterministic_across_runs():
    topology, params, theta0 = random_scenario(31)
    kwargs = dict(schedule=ReframeSchedule(mode="auto"),
                  settings=IntegratorSettings(sample_interval=None))
    a = run(prepare(topology, params, theta0), **kwargs)
    b = run(prepare(topology, params, theta0), **kwargs)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.omega, b.omega)
    np.testing.assert_array_equal(a.occupancy, b.occupancy)
    assert a.mode == b.mode


def test_disabled_controller_has_no_closed_loop(two_cycle):
    # k = 0 is valid for the discrete mode only; the continuous run refuses it
    params = make_system_params(two_cycle, k=0.0, omega_u=1.0)
    system = prepare(two_cycle, params)
    assert system.clm is None and system.sd is None
    with pytest.raises(ValueError, match="k must be positive"):
        run(system)


def test_a_replaced_q_runs_as_a_system_prepared_with_it(two_cycle):
    # the closed loop does not read q, so a prepared system takes another q
    # by `replace`, as the battery's runs take their offsets
    params = make_system_params(two_cycle, k=0.1, omega_u=[1.00, 1.02])
    settings = IntegratorSettings(horizon=10.0, sample_interval=1.0)
    q = np.array([0.01, -0.01])
    reference = run(prepare(two_cycle, replace(params, q=q)),
                    settings=settings)
    system = prepare(two_cycle, params)
    trace = run(replace(system, params=replace(system.params, q=q)),
                settings=settings)
    np.testing.assert_array_equal(trace.theta, reference.theta)
    np.testing.assert_array_equal(trace.occupancy, reference.occupancy)


def test_negative_frequency_warns_once():
    # one frame of offset error of 20 on each edge out of node 1 drives
    # nodes 2..6 to omega = 1 - 20 at t = 0
    topology = generate_topology("complete", 6)
    params = make_system_params(topology, k=1.0, omega_u=1.0, lam=10.0,
                                beta_off=[30.0] * 5 + [10.0] * (topology.m - 5))
    with pytest.warns(UserWarning) as caught:
        trace = run(prepare(topology, params))
    messages = [str(w.message) for w in caught]
    assert messages == ["node 2 has clock frequency -19 <= 0 at t = 0"]
    np.testing.assert_array_equal(trace.omega[0, 1:], -19.0)
    assert trace.times[-1] == pytest.approx(prepare(topology, params).sd.horizon())


def test_positive_frequencies_do_not_warn(e1):
    topology, _, params, _, _ = e1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(prepare(topology, params))


def test_unclipped_samples_share_one_flow_operator(monkeypatch, e1):
    # sample j sits at j 0.1, and the difference of two such times drifts
    # in its last bits from sample to sample; the step still spans
    # sample_dt, so one operator serves the whole run
    topology, _, params, _, _ = e1
    flows = count_calls(monkeypatch, dynamics.exact_flow_operators)
    trace = run(prepare(topology, params),
                settings=IntegratorSettings(horizon=10.0, sample_interval=0.1))
    assert len(flows) == 1 and len(trace) == 101
    np.testing.assert_array_equal(trace.times, [j * 0.1 for j in range(101)])
    assert len(set(np.diff(trace.times))) > 1


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_substep_samples_sit_on_the_grid(monkeypatch, e1, method):
    # a sample interval of 0.1 in substeps of at most 0.04 takes three of
    # h = 0.1 / 3, which is inexact: three additions of h drift from the
    # grid, and the samples are still stamped j 0.1.  Each sample reaches
    # the Taylor kernel once, for its three substeps
    topology, _, params, _, _ = e1
    kernel = count_calls(monkeypatch, dynamics.taylor_action)
    trace = run(prepare(topology, params),
                settings=IntegratorSettings(method=method, dt=0.04,
                                            sample_interval=0.1, horizon=1.0))
    h, degree = 0.1 / 3, {"euler": 1, "rk4": 4}[method]
    assert [args[3:] for args in kernel] == [(h, degree, 3)] * 10
    np.testing.assert_array_equal(trace.times, [j * 0.1 for j in range(11)])
    assert any(after != before + h + h + h
               for before, after in zip(trace.times, trace.times[1:]))


def test_run_ends_without_a_near_duplicate_sample(monkeypatch, e1):
    # 1000 steps of 0.1 add up to 100 - 1.4e-12: the run ends there, with no
    # step of 1.4e-12 to a second sample at t = 100 and no operator for it
    topology, _, params, _, _ = e1
    flows = count_calls(monkeypatch, dynamics.exact_flow_operators)
    trace = run(prepare(topology, params),
                settings=IntegratorSettings(horizon=100.0, sample_interval=0.1))
    assert len(flows) == 1 and len(trace) == 1001
    assert abs(trace.times[-1] - 100.0) <= 1e-9 * 0.1
    assert np.diff(trace.times).min() > 0.1 * (1 - 1e-9)


def test_step_clipped_to_the_end_by_a_hair_reuses_the_sample_operator(
        monkeypatch, e1):
    # 0.2 + 0.1 overshoots 0.3, so the last step is clipped to a span of
    # 0.09999999999999998: it takes the one 0.1 operator and lands on 0.3
    topology, _, params, _, _ = e1
    system = prepare(topology, params)
    exponentials = count_calls(monkeypatch, spectral.matrix_exponential)
    trace = run(system,
                settings=IntegratorSettings(horizon=0.3, sample_interval=0.1))
    assert [t for _, t in exponentials] == [0.1]
    np.testing.assert_array_equal(trace.times, [0.0, 0.1, 0.2, 0.3])
    last = step(trace.theta[-2], system.params, system.clm, 0.1,
                flow=exact_flow(system.params, system.clm, system.sd, 0.1))
    np.testing.assert_array_equal(trace.theta[-1], last)


@pytest.mark.parametrize("post_horizon", [0.3, 2.05])
def test_each_sample_is_one_step_from_the_last(post_horizon):
    # the run keeps w per span while q holds; every row must still
    # be what step builds from scratch out of the row before, bit for bit,
    # and every correction what observe gives.  T1 = 2.55 lies off the 0.1
    # grid, so the step onto it spans the gap and the rows after the
    # freeze need the new q; after it sample j sits at T1 + j 0.1, and the
    # run's end, T1 + post_horizon, is sample 3 itself (0.3) or clips the
    # last step to half a sample (2.05)
    system = parse_config(CONFIG_DIR / "eight_node.json").system()
    sample_dt, T1 = 0.1, 2.55
    trace = run(system, schedule=ReframeSchedule(mode="fixed-time", T1=T1),
                settings=IntegratorSettings(horizon=4.0, sample_interval=sample_dt,
                                            post_horizon=post_horizon))
    times, theta = trace.times, trace.theta
    assert trace.reframe_time == T1 and times[-1] == T1 + post_horizon
    params, frozen = system.params, replace(system.params,
                                            q=trace.reframe_payload)
    base, j, off_grid = 0.0, 0, []
    for i, mode in enumerate(trace.mode):
        row_params = params if mode == PRE_REFRAME else frozen
        _, c, _ = observe(theta[i], row_params, system.clm)
        np.testing.assert_array_equal(trace.correction[i], c)
        if i + 1 == len(trace):
            break
        gap = times[i + 1] - times[i]
        if gap == 0:    # the reframe instant: the pre row, then the post row
            np.testing.assert_array_equal(theta[i + 1], theta[i])
            base, j = times[i + 1], 0
            continue
        # a step onto sample j at base + j sample_dt spans sample_dt, and so
        # does a step clipped within 1e-9 sample intervals of it; any other
        # step spans the gap
        j += 1
        on_grid = times[i + 1] == base + j * sample_dt
        if not on_grid:
            off_grid.append(times[i + 1])
        if on_grid or abs(gap - sample_dt) <= 1e-9 * sample_dt:
            gap = sample_dt
        new = step(theta[i], row_params, system.clm, gap,
                   flow=exact_flow(row_params, system.clm, system.sd, gap))
        np.testing.assert_array_equal(theta[i + 1], new)
    assert off_grid == [T1] + [T1 + post_horizon] * (post_horizon == 2.05)


def test_eight_node_ends_without_a_near_duplicate_sample():
    cfg = parse_config(CONFIG_DIR / "eight_node.json")
    system = cfg.system()
    sample_dt = system.sd.horizon() / 200.0
    trace = run(system, schedule=cfg.schedule(), settings=cfg.integrator)
    t_end = trace.reframe_time + system.sd.horizon()
    assert abs(trace.times[-1] - t_end) <= 1e-9 * sample_dt
    gaps = np.diff(trace.times)
    assert gaps[-1] > 1e-9 * sample_dt
    # the only gap below a sample interval is the reframe instant's 0
    assert np.count_nonzero(gaps < sample_dt * (1 - 1e-9)) == 1


def test_a_far_on_grid_T1_is_sampled_on_the_grid(monkeypatch):
    # 2000 additions of 0.2 miss T1 = 400 by 1.4e-11, beyond the 1e-12
    # slack of the T1 test; sample 2000 sits at 2000 * 0.2, which is 400,
    # so the run takes no near-duplicate row and no second operator
    raw = json.loads((CONFIG_DIR / "e1.json").read_text())
    raw["reframe"]["T1"] = 400.0
    raw["integrator"].update(horizon=400.0, post_horizon=10.0,
                             sample_interval=0.2)
    cfg = parse_config_dict(raw)
    assert sum([0.2] * 2000) != 400.0 == 2000 * 0.2
    flows = count_calls(monkeypatch, dynamics.exact_flow_operators)
    trace = run(cfg.system(), schedule=cfg.schedule(), settings=cfg.integrator)
    assert len(flows) == 1 and len(trace) == 2052
    assert trace.reframe_time == 400.0 and trace.times[-1] == 410.0
    gaps = np.diff(trace.times)
    # the only gap below a sample interval is the reframe instant's 0
    assert np.flatnonzero(gaps < 0.2 * (1 - 1e-9)).tolist() == [2000]
    assert gaps[2000] == 0.0


@settings(max_examples=100, deadline=None)
@given(horizon=st.floats(0.5, 1e4), per=st.floats(1.5, 40.0),
       post=st.floats(0.1, 2.0), where=st.sampled_from(["on", "off"]),
       data=st.data())
def test_unclipped_samples_sit_at_base_plus_j_dt(horizon, per, post, where,
                                                 data):
    # each phase's sample j sits at base + j dt, base 0 or the freeze's T1;
    # only a row at T1 or at the end may leave the grid
    topology = Topology(n=2, edges=[(1, 2), (2, 1)])
    params = make_system_params(topology, k=0.1, omega_u=[1.00, 1.02])
    dt = horizon / per
    if where == "on":
        T1 = data.draw(st.integers(1, int(per))) * dt
    else:
        T1 = data.draw(st.floats(0.0, horizon))
    trace = run(prepare(topology, params),
                schedule=ReframeSchedule(mode="fixed-time", T1=T1),
                settings=IntegratorSettings(horizon=horizon, sample_interval=dt,
                                            post_horizon=post * horizon))
    # the t = 0 row reaches a T1 within the 1e-12 slack of it
    T1 = T1 if T1 > 1e-12 else 0.0
    assert trace.reframe_time == T1
    t_end = T1 + post * horizon
    assert trace.times[-1] == t_end
    base, j = 0.0, 0
    for i, t in enumerate(trace.times[1:], 1):
        if trace.mode[i] != trace.mode[i - 1]:
            base, j = t, 0      # the post row at T1
            continue
        j += 1
        assert t == base + j * dt or t in (T1, t_end), (i, t)
        if t == T1:
            assert trace.mode[i + 1] == POST_REFRAME


@pytest.mark.parametrize("T1", [0.0, -1.0])
def test_reframe_at_or_before_zero_records_two_rows_at_zero(e1, T1):
    topology, _, params, _, _ = e1
    trace = run(prepare(topology, params),
                schedule=ReframeSchedule(mode="fixed-time", T1=T1),
                settings=IntegratorSettings(horizon=5.0, sample_interval=1.0))
    assert list(trace.times[:3]) == [0.0, 0.0, 1.0]
    assert trace.mode[:3] == [PRE_REFRAME, POST_REFRAME, POST_REFRAME]
    assert trace.reframe_time == 0.0


@pytest.mark.parametrize("T1, node, last_mode", [
    (600.0, 1, PRE_REFRAME), ([2.0, 600.0], 2, "staggered-1/2")])
def test_unreached_fixed_T1_warns_once_naming_the_first_unfrozen_node(
        e1, T1, node, last_mode):
    topology, _, params, _, _ = e1
    with pytest.warns(UserWarning) as caught:
        trace = run(prepare(topology, params),
                    schedule=ReframeSchedule(mode="fixed-time", T1=T1),
                    settings=IntegratorSettings(horizon=5.0, sample_interval=1.0))
    assert trace.reframe_time is None and trace.mode[-1] == last_mode
    assert [str(w.message) for w in caught] == [
        f"fixed-time reframe never fired: node {node} has T1 = 600, past the "
        "last sample at t = 10"]


def test_reached_fixed_T1_does_not_warn(e1):
    topology, _, params, _, _ = e1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run(prepare(topology, params),
                    schedule=ReframeSchedule(mode="fixed-time", T1=5.0),
                    settings=IntegratorSettings(horizon=5.0, sample_interval=1.0))
    assert trace.reframe_time == 5.0


def _augmented_flow(A, dt):
    """(e^{A dt}, integral_0^dt e^{As} ds) from one 2n x 2n exponential."""
    n = A.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = A
    aug[:n, n:] = np.eye(n)
    E = la.expm(aug * dt)
    return E[:n, :n], E[:n, n:]


FLOW_DTS = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6)


def _check_flow_operators(clm, sd, dt):
    """e^{A dt}, and the drift integral w of a 1-D drift and of an (n, 3)
    block, against the augmented exponential's (Phi, Psi) and Psi v.  An
    entry of Psi v is off by at most the largest entry error of Psi times
    the 1-norm of v's column, so w's bound is Psi's times that norm."""
    phi, = dynamics.exact_flow_operators([clm], [dt])
    phi_ref, psi_ref = _augmented_flow(clm.A, dt)
    W, G = sd.W, sd.group_inverse
    psi_scale = dt + np.abs(G).max()
    # the reference's own error grows with the square of |A dt|
    s = max(1.0, np.abs(clm.A).max() * dt)
    assert np.abs(phi - phi_ref).max() <= 1e-13 * s ** 2
    # converged, where the exact values are W and dt (z.v) 1 - G v
    converged = sd.decay_rate() * dt >= 50.0
    if converged:
        assert np.abs(phi - W).max() <= 1e-12 * s
    rng = np.random.default_rng(clm.n)
    for v in (rng.uniform(0.95, 1.05, clm.n),
              rng.normal(scale=0.5, size=(clm.n, 3))):
        w = dynamics._drift_integral(sd, phi, dt, v)
        assert w.shape == v.shape
        norm = np.abs(v).sum(axis=0).max()
        assert (np.abs(w - psi_ref @ v).max()
                <= 1e-13 * psi_scale * s ** 2 * norm)
        if converged:
            assert (np.abs(w - (dt * (sd.z @ v) - G @ v)).max()
                    <= 1e-12 * psi_scale * s * norm)


@pytest.mark.parametrize("dt", FLOW_DTS)
def test_flow_operators_match_augmented_exponential_defective(ring3_chord, dt):
    _, _, clm, sd = spectral_setup(ring3_chord, k=1.0, omega_u=1.0)
    _check_flow_operators(clm, sd, dt)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), dt=st.sampled_from(FLOW_DTS))
def test_flow_operators_match_augmented_exponential(seed, dt):
    topology, params, theta0 = random_scenario(seed)
    _, _, clm, sd = spectral_setup(topology, params.k, params.omega_u,
                                   lam=params.lam, theta0=theta0)
    _check_flow_operators(clm, sd, dt)


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=8),
       data=st.data())
def test_stacked_flow_operators_equal_one_item_calls_bit_for_bit(seeds, data):
    # battery closed loops of mixed sizes, a closed loop more than once, each
    # at its own span: every operator has the bits of the loop's one-item
    # call
    systems = [prepared(make_random_scenario(seed)) for seed in seeds]
    systems += systems[:data.draw(st.integers(0, len(systems)))]
    dts = [data.draw(st.sampled_from(FLOW_DTS)) for _ in systems]
    phis = dynamics.exact_flow_operators([s.clm for s in systems], dts)
    assert len(phis) == len(systems)
    for system, dt, phi in zip(systems, dts, phis):
        own, = dynamics.exact_flow_operators([system.clm], [dt])
        assert phi.tobytes() == own.tobytes()


def test_non_finite_flow_operator_is_a_spectral_error(two_cycle):
    # e^{A dt} overflows in its squarings at k = 1e300
    system = prepare(two_cycle, make_system_params(two_cycle, k=1e300,
                                                   omega_u=[1.0, 1.02]))
    # the error reports the overflow: numpy warns of none of it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(spectral.SpectralError, match="not finite"):
            dynamics.exact_flow_operators([system.clm], [2.5])
        with pytest.raises(spectral.SpectralError, match="not finite"):
            run(system, settings=IntegratorSettings(horizon=10.0,
                                                    sample_interval=2.5))


def test_prepare_all_gives_each_case_its_system_or_error(two_cycle):
    cases = [(two_cycle, make_system_params(two_cycle, k=0.1,
                                            omega_u=[1.0, 1.02]), 0.0),
             (Topology(n=2, edges=[(1, 2)]),
              make_system_params(Topology(n=2, edges=[(1, 2)]), k=0.1,
                                 omega_u=1.0), 0.0),
             (two_cycle, make_system_params(two_cycle, k=0.0, omega_u=1.0),
              0.0)]
    first, stranded, disabled = dynamics.prepare_all(cases)
    assert isinstance(stranded, TopologyError)
    assert disabled.clm is None and disabled.sd is None
    alone = prepare(*cases[0])
    assert first.sd.group_inverse.tobytes() == \
        alone.sd.group_inverse.tobytes()
    assert first.params.beta_off.tobytes() == alone.params.beta_off.tobytes()


def test_a_rejected_case_keeps_no_other_cases_system(two_cycle):
    # a SpectralError's traceback held prepare_all's frame, and through it
    # every system of the batch, until the cyclic collector ran; a battery
    # scenario keeps its error as its outcome
    cases = [(two_cycle, make_system_params(two_cycle, k=k, omega_u=1.0), 0.0)
             for k in (0.1, 1e-300)]
    system, error = dynamics.prepare_all(cases)
    assert isinstance(error, spectral.SpectralError)
    assert "too small" in str(error)
    ref = weakref.ref(system)
    del system
    assert ref() is None


def test_fixed_time_T1_on_the_grid_takes_the_sample_operator(e1,
                                                             monkeypatch):
    # three steps of 0.1 add up to 0.30000000000000004, so the step onto
    # T1 = 0.3 spans 0.09999999999999998: it takes the one 0.1 operator and
    # lands on T1, as a step clipped to the end does
    topology, _, params, _, _ = e1
    system = prepare(topology, params)
    assert 0.1 + 0.1 + 0.1 != 0.3
    flows = count_calls(monkeypatch, dynamics.exact_flow_operators)
    trace = run(system, schedule=ReframeSchedule(mode="fixed-time", T1=0.3),
                settings=IntegratorSettings(horizon=0.3, post_horizon=0.3,
                                            sample_interval=0.1))
    assert [dts for _, dts in flows] == [[0.1]]
    assert trace.reframe_time == 0.3
    assert list(trace.times[3:5]) == [0.3, 0.3]
    assert trace.mode[3:5] == [PRE_REFRAME, POST_REFRAME]
    last = step(trace.theta[2], system.params, system.clm, 0.1,
                flow=exact_flow(system.params, system.clm, system.sd, 0.1))
    np.testing.assert_array_equal(trace.theta[3], last)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _oracle_run(monkeypatch, system, **kwargs):
    """The trace and, for each row, the q in force when it was recorded:
    freeze's result holds from the row recorded after it."""
    switches = []
    freeze = OneShotReset.freeze

    def spy(self, q, firing):
        q = freeze(self, q, firing)
        switches.append((len(self.history), q))
        return q

    monkeypatch.setattr(OneShotReset, "freeze", spy)
    trace = run(system, **kwargs)
    qs, q = [], system.params.q
    for i in range(len(trace)):
        while switches and switches[0][0] == i:
            q = switches.pop(0)[1]
        qs.append(q)
    return trace, qs


def _config_case(path, **overrides):
    cfg = parse_config(path)
    return cfg.system(), {"schedule": cfg.schedule(),
                          "settings": cfg.integrator, **overrides}


def _spread_case():
    # phases of both signs and n > 8: centering rounds, and the mean is a
    # pairwise sum, so a row-wise mean that reduced otherwise would show
    topology = generate_topology("random-strong", 12, seed=5,
                                 extra_edge_fraction=0.3)
    rng = np.random.default_rng(5)
    params = make_system_params(topology, k=0.3,
                                omega_u=rng.uniform(0.95, 1.05, size=12))
    system = prepare(topology, params, rng.uniform(-1.0, 1.0, size=12))
    return system, {"schedule": ReframeSchedule(mode="fixed-time", T1=3.0),
                    "settings": IntegratorSettings(horizon=6.0,
                                                   sample_interval=0.05)}


_ORACLE_CASES = {
    **{f"config-{p.stem}": partial(_config_case, p)
       for p in sorted(CONFIG_DIR.glob("*.json"))},
    "staggered": partial(_config_case, CONFIG_DIR / "eight_node.json",
                         schedule=ReframeSchedule(
                             mode="fixed-time", T1=np.linspace(20.0, 55.0, 8))),
    "rk4": partial(_config_case, CONFIG_DIR / "e1.json",
                   settings=IntegratorSettings(method="rk4", horizon=250.0,
                                               post_horizon=50.0,
                                               sample_interval=2.5)),
    "spread-phases": _spread_case,
}


@pytest.mark.parametrize("name", list(_ORACLE_CASES))
def test_derived_rows_equal_observe_bit_for_bit(monkeypatch, name):
    # the trace keeps theta and c; omega and beta are derived from them, in
    # whole and in the writer's row chunks, and must be observe's values
    system, kwargs = _ORACLE_CASES[name]()
    trace, qs = _oracle_run(monkeypatch, system, **kwargs)
    n, m = system.inc.n, system.inc.m
    chunks = floatfmt.row_chunks(len(trace), 2 + 2 * n + m)
    blocks = [np.vstack(parts) for parts in
              zip(*(trace.rows(rows) for rows in chunks))]
    whole = (trace.omega, trace.correction, trace.occupancy)
    if name == "staggered":
        assert any(mode.startswith("staggered-") for mode in trace.mode)
    assert len({_bits(q) for q in qs}) > 1       # the reframe moved q
    for i, (theta, q) in enumerate(zip(trace.theta, qs)):
        omega, c, beta = observe(theta, replace(system.params, q=q),
                                 system.clm)
        for arrays in (whole, blocks):
            for array, value in zip(arrays, (omega, c, beta)):
                assert _bits(array[i]) == _bits(value), i


def _assert_offset_rows_close(block, runs, omega_u):
    """Each offset's rows of the block run agree with its own run within
    1e-12 relative: the phases of their own scale, the corrections of the
    clock frequencies' (as the battery's tolerances scale them), since an
    n x K product need not sum as K matvecs do."""
    for i, one in enumerate(runs):
        np.testing.assert_array_equal(block.times, one.times)
        for values, rows, scale in (
                (block.theta, one.theta, np.abs(one.theta).max()),
                (block.correction, one.correction, np.abs(omega_u).max())):
            np.testing.assert_allclose(values[:, i], rows, rtol=1e-12,
                                       atol=1e-12 * float(scale))


def _offset_runs(system, qs, settings, schedule=None):
    """One run of the (K, n) offsets qs and K one-offset runs, one per row."""
    block = run(replace(system, params=replace(system.params, q=qs)),
                schedule=schedule, settings=settings)
    return block, [run(replace(system, params=replace(system.params, q=q)),
                       schedule=schedule, settings=settings) for q in qs]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), K=st.integers(1, 5))
def test_offset_block_run_matches_one_run_per_offset(seed, K):
    # the battery's scenario distribution: random-strong, n from 2 to 8
    system = prepared(make_random_scenario(seed))
    n = system.inc.n
    qs = np.random.default_rng(seed).normal(scale=0.01, size=(K, n))
    horizon = system.sd.horizon()
    block, runs = _offset_runs(system, qs, IntegratorSettings(
        horizon=horizon, sample_interval=horizon / 8))
    assert block.theta.shape == block.correction.shape == (len(block), K, n)
    assert block.occupancy.shape == (len(block), K, system.inc.m)
    _assert_offset_rows_close(block, runs, system.params.omega_u)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), K=st.integers(1, 5))
def test_offset_block_reframe_matches_one_reframe_per_offset(seed, K):
    # the battery's run: a fixed-time reframe at the horizon freezes each
    # offset's own correction
    system = prepared(make_random_scenario(seed))
    n = system.inc.n
    qs = np.random.default_rng(seed).normal(scale=0.01, size=(K, n))
    horizon = system.sd.horizon()
    block, runs = _offset_runs(
        system, qs, IntegratorSettings(horizon=horizon, post_horizon=horizon,
                                       sample_interval=horizon / 8),
        ReframeSchedule(mode="fixed-time", T1=horizon))
    assert block.mode == runs[0].mode
    assert block.reframe_time == runs[0].reframe_time == horizon
    _assert_offset_rows_close(block, runs, system.params.omega_u)
    scale = float(np.abs(system.params.omega_u).max())
    for payload, one in zip(block.reframe_payload, runs):
        np.testing.assert_allclose(payload, one.reframe_payload, rtol=1e-12,
                                   atol=1e-12 * scale)


def _corrections_per_sample(trace, system):
    """Each sample's correction formed alone: observe's for one offset; for
    K offsets, A times the sample's C-contiguous (n, K) phase block centred
    by its column means."""
    A, r, n = system.clm.A, system.clm.r, system.inc.n
    rows = []
    for theta, mode in zip(trace.theta, trace.mode):
        q = system.params.q if mode == PRE_REFRAME else trace.reframe_payload
        if theta.ndim == 1:
            rows.append(observe(theta, replace(system.params, q=q),
                                system.clm)[1])
            continue
        block = np.ascontiguousarray(theta.T)
        rows.append((A @ (block - np.add.reduce(block) / n)).T + q + r)
    return rows


@pytest.mark.parametrize("K", [None, 1, 4])
@pytest.mark.parametrize("n", range(2, 13))
def test_block_formed_corrections_equal_per_sample_ones(n, K):
    # n >= 8 makes a 1-D mean a pairwise sum and leaves a column mean a
    # sequential one; the batched reduce must keep each
    topology = generate_topology("random-strong", n, seed=n,
                                 extra_edge_fraction=0.3)
    rng = np.random.default_rng(n)
    q = np.zeros(n) if K is None else rng.normal(scale=0.01, size=(K, n))
    params = make_system_params(topology, k=0.3,
                                omega_u=rng.uniform(0.95, 1.05, size=n))
    system = prepare(topology, params, rng.uniform(-1.0, 1.0, size=n))
    system = replace(system, params=replace(system.params, q=q))
    trace = run(system, schedule=ReframeSchedule(mode="fixed-time", T1=3.0),
                settings=IntegratorSettings(horizon=6.0, sample_interval=0.25))
    assert POST_REFRAME in trace.mode
    for i, c in enumerate(_corrections_per_sample(trace, system)):
        assert _bits(trace.correction[i]) == _bits(c), i


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_offset_block_run_steps_each_column_with_fixed_steps(e1, method):
    topology, _, params, _, _ = e1
    system = prepare(topology, params)
    qs = np.array([[0.0, 0.0], [0.01, -0.02], [-0.005, 0.0]])
    block, runs = _offset_runs(system, qs, IntegratorSettings(
        method=method, horizon=20.0, sample_interval=2.5))
    _assert_offset_rows_close(block, runs, params.omega_u)


def test_offset_block_run_takes_no_auto_schedule(e1):
    # the auto trigger compares single correction rows; a fixed time runs
    topology, _, params, _, _ = e1
    system = prepare(topology, replace(params, q=np.zeros((2, 2))))
    settings = IntegratorSettings(horizon=10.0)
    with pytest.raises(ValueError, match="one offset per node"):
        run(system, schedule=ReframeSchedule(mode="auto"), settings=settings)
    trace = run(system, schedule=ReframeSchedule(mode="fixed-time", T1=5.0),
                settings=settings)
    assert trace.reframe_time == 5.0
    assert trace.reframe_payload.shape == (2, 2)


def _per_sample_run(system, schedule, settings):
    """The continuous run loop as one Python iteration per sample: record
    the sample, ask `firing` on it and, when nodes fire, freeze them and
    record the post row.  The corrections of the rows recorded so far are
    formed where something reads them: on every row while the auto trigger
    watches, at a freeze and at the end.  The reference for `run`, which
    advances from one decision to the next at once.  Returns the reset and
    the last params."""
    inc, params, clm = system.inc, system.params, system.clm
    horizon, post_horizon, sample_dt = settings.spans(
        system, schedule is not None)
    t_end = horizon + (post_horizon if schedule is not None else 0.0)
    reset = OneShotReset(schedule, params, inc, default_T1=horizon,
                         width=params.q.shape)
    history, ops, held = reset.history, {}, {}
    A, r, n = clm.A, clm.r, inc.n
    K = len(params.q) if params.q.ndim > 1 else 1
    formed = 0

    def form():
        nonlocal formed
        rows = history.rows[formed:]
        theta = np.ascontiguousarray(rows.reshape(-1, K, n).transpose(0, 2, 1))
        c = A @ (theta - np.add.reduce(theta, axis=1, keepdims=True) / n)
        out = history.corrections[formed:]
        np.add(c.transpose(0, 2, 1).reshape(rows.shape), params.q, out=out)
        out += r
        formed = len(history)

    t, theta, base, j = 0.0, system.theta0, 0.0, 0
    tol = 1e-9 * sample_dt
    if params.q.ndim > 1:
        theta = np.repeat(theta[:, None], K, axis=1)
    while True:
        reset.record_rows([t], 0.0, theta.T)
        if reset.pending and reset.detector is not None:
            form()
        firing = reset.firing(t)
        if firing is not None:
            form()
            params = params.with_q(reset.freeze(params.q, firing))
            held.clear()
            base, j = t, 0
            if reset.time is not None:
                t_end = t + post_horizon
            reset.record_rows([t], 0.0, theta.T)
        if t >= t_end - tol:
            break
        # sample j sits at base + j sample_dt, at t_end within tol of it,
        # and at the next T1 once it reaches it
        j += 1
        grid = base + j * sample_dt
        t_next = grid if grid < t_end - tol else t_end
        if reset.events and reset.events[0] <= t_next + 1e-12:
            t_next = reset.events[0]
        span = t_next - t
        if t_next == grid or abs(span - sample_dt) <= tol:
            span = sample_dt
        if settings.method == "exact":
            if span not in held:
                if span not in ops:
                    ops[span], = dynamics.exact_flow_operators([clm], [span])
                held[span] = ops[span], dynamics._drift_integral(
                    system.sd, ops[span], span, dynamics._drift(clm, params))
            theta = step(theta, params, clm, span, "exact", flow=held[span])
        else:
            sub = settings.dt or stability_bound(inc, clm.k) / 8.0
            steps = max(1, int(np.ceil(span / sub - 1e-12)))
            steps += (span / steps > sub)
            for _ in range(steps):
                theta = step(theta, params, clm, span / steps,
                             settings.method)
        t = t_next
    form()
    reset.finish()
    return reset, params


@st.composite
def continuous_runs(draw):
    """(system, schedule, settings) of a small run.  At the time scale 1e4
    one ulp of a sample time exceeds the 1e-12 slack of a T1 test."""
    n = draw(st.integers(2, 5))
    topology = generate_topology(
        draw(st.sampled_from(["bidirectional-ring", "random-strong"])), n,
        seed=draw(st.integers(0, 100)), extra_edge_fraction=0.3)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e4]))
    k = draw(st.sampled_from([0.05, 0.3, 1.0])) / scale
    params = make_system_params(topology, k=k,
                                omega_u=rng.uniform(0.95, 1.05, size=n))
    system = prepare(topology, params,
                     rng.uniform(-1.0, 1.0, size=n) if draw(st.booleans())
                     else 0.0)
    kind = draw(st.sampled_from(["none", "fixed", "per-node", "auto"]))
    K = None if kind == "auto" else draw(st.sampled_from([None, 1, 4]))
    if K is not None:
        system = replace(system, params=system.params.with_q(
            rng.normal(scale=0.01, size=(K, n))))
    horizon = scale * draw(st.sampled_from([2.0, 5.0, 7.3]))
    sample_dt = horizon / draw(st.floats(2.5, 12.0))
    method = draw(st.sampled_from(["exact", "rk4", "euler"]))
    dt = None
    if method != "exact":
        dt = stability_bound(system.inc, k) * draw(
            st.sampled_from([0.37, 1.0]))
    settings = IntegratorSettings(
        method=method, dt=dt, horizon=horizon, sample_interval=sample_dt,
        post_horizon=draw(st.sampled_from([None, 0.5 * horizon])))
    grid = np.arange(1, 15) * sample_dt         # sample j at j sample_dt

    def T1():
        where = draw(st.sampled_from(["at-or-before-0", "on-grid", "near-grid",
                                      "off-grid"]))
        if where == "at-or-before-0":
            return draw(st.sampled_from([0.0, -0.3 * scale]))
        if where == "off-grid":
            return horizon * draw(st.floats(0.01, 2.5))
        on = float(grid[draw(st.integers(0, 13))])
        return on if where == "on-grid" else on + draw(
            st.sampled_from([-2e-12, -1e-13, 1e-13, 2e-12]))

    schedule = {
        "none": lambda: None,
        "fixed": lambda: ReframeSchedule(mode="fixed-time", T1=T1()),
        "per-node": lambda: ReframeSchedule(
            mode="fixed-time", T1=np.array([T1() for _ in range(n)])),
        "auto": lambda: ReframeSchedule(
            mode="auto", epsilon=draw(st.sampled_from([1e-4, 1e-3, 1e-2])),
            window=scale * draw(st.sampled_from([0.5, 1.0, 2.0]))),
    }[kind]()
    return system, schedule, settings


@settings(max_examples=300, deadline=None)
@given(case=continuous_runs())
def test_run_matches_the_per_sample_loop_bit_for_bit(case):
    system, schedule, settings = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # a dt at the stability bound takes no substep a hair over it
        trace = run(system, schedule=schedule, settings=settings)
        ran = len(caught)
        reset, params = _per_sample_run(system, schedule, settings)
    never = [[str(w.message) for w in ws if "never fired" in str(w.message)]
             for ws in (caught[:ran], caught[ran:])]
    assert never[0] == never[1]
    history = reset.history
    assert _bits(trace.times) == _bits(history.times)
    assert _bits(trace.theta) == _bits(history.rows)
    assert _bits(trace.correction) == _bits(history.corrections)
    assert trace.mode == reset.modes
    assert trace.reframe_time == reset.time
    if reset.time is not None:
        assert _bits(trace.reframe_payload) == _bits(params.q)
