import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from bittide_sim import (IntegratorSettings, ReframeSchedule, SimState,
                         build_closed_loop, build_incidence, dynamics,
                         generate_topology, init_state, make_system_params,
                         observe, predict_beta_ss, predict_omega_ss, prepare,
                         run, step)
from bittide_sim.controller import POST_REFRAME, PRE_REFRAME
from bittide_sim.dynamics import stability_bound
from conftest import count_calls, random_scenario, spectral_setup


def test_init_feasible_offsets_at_zero_phase(two_cycle):
    inc = build_incidence(two_cycle)
    params = make_system_params(two_cycle, k=0.1, omega_u=[1.0, 1.02], lam=10.0)
    state, params = init_state(inc, params, 0.0)
    np.testing.assert_array_equal(params.beta_off, [10.0, 10.0])
    assert state.t == 0.0 and state.mode == PRE_REFRAME
    clm = build_closed_loop(inc, params)
    _, c, beta = observe(state, params, clm)
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
    state = SimState(t=0.0, theta=np.array([2.0, 2.0]))
    new = step(state, params, clm, dt=3.0, method="exact", sd=sd)
    np.testing.assert_allclose(new.theta - state.theta, 3.0 * np.ones(2),
                               atol=1e-12)
    _, c, beta = observe(new, params, clm)
    np.testing.assert_allclose(c, np.zeros(2), atol=1e-12)
    np.testing.assert_allclose(beta, params.beta_off, atol=1e-12)


def test_exact_vs_rk4_agreement(e1):
    _, inc, params, clm, sd = e1
    theta_e = np.zeros(2)
    theta_r = np.zeros(2)
    se = SimState(t=0.0, theta=theta_e)
    sr = SimState(t=0.0, theta=theta_r)
    dt = 0.01
    for _ in range(10000):  # horizon 100
        se = step(se, params, clm, dt, "exact", sd=sd)
        sr = step(sr, params, clm, dt, "rk4")
    assert np.abs(se.theta - sr.theta).max() <= 1e-8


def test_euler_approaches_exact(e1):
    _, inc, params, clm, sd = e1
    se = SimState(t=0.0, theta=np.zeros(2))
    su = SimState(t=0.0, theta=np.zeros(2))
    for _ in range(1000):
        se = step(se, params, clm, 0.01, "exact", sd=sd)
        su = step(su, params, clm, 0.01, "euler")
    assert np.abs(se.theta - su.theta).max() <= 1e-3


def test_explicit_methods_enforce_stability_bound(e1):
    _, inc, params, clm, _ = e1
    state = SimState(t=0.0, theta=np.zeros(2))
    bound = stability_bound(inc, params.k)
    assert bound == 10.0
    with pytest.raises(ValueError, match="stability bound"):
        step(state, params, clm, dt=bound * 1.01, method="euler")
    with pytest.raises(ValueError, match="stability bound"):
        step(state, params, clm, dt=bound * 1.01, method="rk4")
    step(state, params, clm, dt=bound, method="euler")  # at the bound is fine


def test_single_exact_step_to_steady_state(e1):
    _, inc, params, clm, sd = e1
    state = SimState(t=0.0, theta=np.array([0.4, -0.3]))
    new = step(state, params, clm, dt=1e6, method="exact", sd=sd)
    omega, _, _ = observe(new, params, clm)
    np.testing.assert_allclose(omega, predict_omega_ss(sd, params), atol=1e-9)


def test_observe_per_node_form_matches_matrix_form():
    from bittide_sim import node_views, proportional_correction

    topology, params, theta0 = random_scenario(11)
    inc, params, clm, _ = spectral_setup(topology, params.k, params.omega_u,
                                         lam=params.lam, theta0=theta0)
    rng = np.random.default_rng(0)
    theta = rng.normal(size=inc.n)
    state = SimState(t=0.0, theta=theta)
    _, c, beta = observe(state, params, clm)
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


def test_flow_operators_are_shared_by_runs_of_one_closed_loop(monkeypatch,
                                                              two_cycle):
    flows = count_calls(monkeypatch, dynamics.exact_flow_operators)
    params = make_system_params(two_cycle, k=0.1, omega_u=[1.00, 1.02])
    settings = IntegratorSettings(horizon=10.0, sample_interval=1.0)
    # prepare keeps no operators: each run builds and frees its own
    own = prepare(two_cycle, replace(params, q=np.array([0.01, -0.01])))
    reference = run(own, settings=settings)
    assert own.flow_ops is None and len(flows) > 0
    shared = replace(prepare(two_cycle, params), flow_ops={})
    run(shared, settings=settings)
    built = len(flows)
    # another q is another drift, not another A: no new operator is built
    moved = replace(shared, params=replace(shared.params, q=own.params.q))
    trace = run(moved, settings=settings)
    assert len(flows) == built
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
    phi, psi = dynamics.exact_flow_operators(clm, sd, dt)
    phi_ref, psi_ref = _augmented_flow(clm.A, dt)
    W, G = sd.W, sd.group_inverse
    psi_scale = dt + np.abs(G).max()
    # the reference's own error grows with the square of |A dt|
    s = max(1.0, np.abs(clm.A).max() * dt)
    assert np.abs(phi - phi_ref).max() <= 1e-13 * s ** 2
    assert np.abs(psi - psi_ref).max() <= 1e-13 * psi_scale * s ** 2
    if sd.decay_rate() * dt >= 50.0:
        # converged, where the exact values are W and dt W - G
        assert np.abs(phi - W).max() <= 1e-12 * s
        assert np.abs(psi - (dt * W - G)).max() <= 1e-12 * psi_scale * s


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
