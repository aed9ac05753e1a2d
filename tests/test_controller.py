import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bittide_sim import (IntegratorSettings, NodeView, OneShotReset, ReframeError,
                         ReframeSchedule, Topology, auto_reframe_trigger,
                         build_incidence, make_system_params, node_views,
                         prepare, proportional_correction, run)
from bittide_sim.controller import CorrectionHistory, proportional_corrections
from conftest import random_scenario, spectral_setup


def view(occ, off, q=0.0):
    occ = np.atleast_1d(np.asarray(occ, float))
    return NodeView(node=1, in_edges=tuple(range(1, len(occ) + 1)),
                    occupancies=occ,
                    offsets=np.broadcast_to(np.asarray(off, float), occ.shape),
                    q=q)


def test_correction_zero_at_offsets():
    assert proportional_correction(view([10.0, 10.0], 10.0), k=0.3) == 0.0


def test_correction_single_edge():
    assert proportional_correction(view([10.1], 10.0), k=0.1) == pytest.approx(0.01)


def test_correction_cancellation_is_gain_independent():
    for k in (0.05, 0.5, 5.0):
        assert proportional_correction(view([12.0, 8.0], 10.0), k=k) == 0.0


def test_correction_includes_local_offset():
    assert proportional_correction(view([10.0], 10.0, q=0.25), k=1.0) == 0.25


def test_node_views_partition_by_destination():
    topology, params, theta0 = random_scenario(3)
    inc, params, clm, _ = spectral_setup(topology, params.k, params.omega_u,
                                         lam=params.lam, theta0=theta0)
    beta = np.arange(topology.m, dtype=float)
    views = node_views(topology, beta, params.beta_off, params.q)
    seen = []
    for v in views:
        for eid in v.in_edges:
            assert topology.edges[eid - 1][1] == v.node
            seen.append(eid)
    assert sorted(seen) == list(range(1, topology.m + 1))


def test_node_views_of_chosen_nodes_match_full_partition():
    topology, params, theta0 = random_scenario(3)
    _, params, _, _ = spectral_setup(topology, params.k, params.omega_u,
                                     lam=params.lam, theta0=theta0)
    beta = np.arange(topology.m, dtype=float)
    every = node_views(topology, beta, params.beta_off, params.q)
    nodes = [topology.n - 1, 0]
    chosen = node_views(topology, beta, params.beta_off, params.q, nodes=nodes)
    assert [v.node for v in chosen] == [i + 1 for i in nodes]
    for v, i in zip(chosen, nodes):
        assert v.in_edges == every[i].in_edges
        np.testing.assert_array_equal(v.occupancies, every[i].occupancies)
        np.testing.assert_array_equal(v.offsets, every[i].offsets)
        assert v.q == every[i].q


def test_node_views_with_prebuilt_in_edges_match():
    topology, params, theta0 = random_scenario(4)
    inc, params, _, _ = spectral_setup(topology, params.k, params.omega_u,
                                       lam=params.lam, theta0=theta0)
    beta = np.arange(topology.m, dtype=float)
    built = node_views(topology, beta, params.beta_off, params.q)
    given = node_views(topology, beta, params.beta_off, params.q,
                       in_edges=inc.in_edges)
    for a, b in zip(built, given, strict=True):
        assert (a.node, a.in_edges, a.q) == (b.node, b.in_edges, b.q)
        assert all(type(e) is int for e in b.in_edges)
        np.testing.assert_array_equal(a.occupancies, b.occupancies)
        np.testing.assert_array_equal(a.offsets, b.offsets)


@st.composite
def in_degree_multigraphs(draw):
    """A multigraph whose nodes have 1..20 in-edges each, in shuffled edge
    order, so that rows of 8 and more (pairwise summation) occur."""
    n = draw(st.integers(2, 6))
    edges = [(draw(st.sampled_from([j for j in range(1, n + 1) if j != i])), i)
             for i in range(1, n + 1) for _ in range(draw(st.integers(1, 20)))]
    order = draw(st.permutations(range(len(edges))))
    return Topology(n=n, edges=[edges[e] for e in order])


@settings(max_examples=150, deadline=None)
@given(topology=in_degree_multigraphs(), quantum=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_batched_law_is_bit_identical_to_node_views(topology, quantum, seed):
    rng = np.random.default_rng(seed)
    inc = build_incidence(topology)
    beta = (quantum * (rng.integers(-5, 40, topology.m) // quantum)).astype(float)
    beta_off = rng.uniform(0.0, 30.0, topology.m)
    q = rng.normal(0.0, 0.05, topology.n)
    k = float(rng.uniform(0.001, 1.0))
    due = rng.random(topology.n) < 0.5
    held = rng.normal(size=topology.n)
    out = held.copy()
    proportional_corrections(inc.in_blocks, beta, beta_off, q, k, due, out)
    expected = held.copy()
    for v in node_views(topology, beta, beta_off, q, nodes=np.flatnonzero(due)):
        expected[v.node - 1] = proportional_correction(v, k)
    # compared as bits: every node's value, and held values where not due
    assert out.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_view_exposes_no_global_state():
    # the control law's entire input surface: own incoming edges, their
    # measured occupancies and offsets, and the local q; no time, no theta
    import dataclasses

    fields = {f.name for f in dataclasses.fields(NodeView)}
    assert fields == {"node", "in_edges", "occupancies", "offsets", "q"}


def test_locality_correction_ignores_other_nodes():
    # same view, different data everywhere else: identical output
    topology, params, theta0 = random_scenario(5)
    _, params, _, _ = spectral_setup(topology, params.k, params.omega_u,
                                     lam=params.lam, theta0=theta0)
    rng = np.random.default_rng(0)
    beta_a = rng.normal(10.0, 1.0, size=topology.m)
    beta_b = beta_a.copy()
    target = node_views(topology, beta_a, params.beta_off, params.q)[0]
    foreign = [e for e, (_, dst) in enumerate(topology.edges) if dst != target.node]
    beta_b[foreign] += rng.normal(size=len(foreign))  # perturb what node 1 can't see
    va = node_views(topology, beta_a, params.beta_off, params.q)[0]
    vb = node_views(topology, beta_b, params.beta_off, params.q)[0]
    assert proportional_correction(va, params.k) == proportional_correction(vb, params.k)


def _reset(topology, schedule):
    params = make_system_params(topology, k=0.1, omega_u=[1.0, 1.02])
    return OneShotReset(schedule, params, build_incidence(topology),
                        default_T1=None)


def test_reframe_freezes_correction(two_cycle):
    # each node freezes the correction last recorded at its own T1
    reset = _reset(two_cycle, ReframeSchedule(mode="fixed-time", T1=[5.0, 7.0]))
    reset.history.append(4.0, np.array([0.5, 0.5]))
    assert reset.firing(4.0) is None
    reset.history.append(5.0, np.array([0.02, 0.013]))
    firing = reset.firing(5.0)
    np.testing.assert_array_equal(firing, [True, False])
    q = reset.freeze(np.zeros(2), firing)
    assert q.tolist() == [0.02, 0.0]
    assert reset.mode == "staggered-1/2" and reset.time is None
    reset.history.append(7.0, np.array([0.04, 0.013]))
    q = reset.freeze(q, reset.firing(7.0))
    assert q.tolist() == [0.02, 0.013]
    assert reset.mode == "post-reframe" and reset.time == 7.0
    assert reset.firing(8.0) is None


def test_double_reframe_rejected(two_cycle):
    reset = _reset(two_cycle, ReframeSchedule(mode="auto"))
    reset.history.append(0.0, np.array([0.01, 0.02]))
    q = reset.freeze(np.zeros(2), np.array([True, False]))
    with pytest.raises(ReframeError, match="node 1 already reframed"):
        reset.freeze(q, np.array([True, True]))


def test_reframe_at_centered_buffers_keeps_dynamics(e1):
    # if beta == beta_off at T1 the frozen correction is the previous q (zero)
    topology, _, params, _, _ = e1
    uniform = make_system_params(topology, k=0.1, omega_u=1.0)
    trace = run(prepare(topology, uniform),
                schedule=ReframeSchedule(mode="fixed-time", T1=50.0),
                settings=IntegratorSettings(horizon=50.0, sample_interval=5.0))
    np.testing.assert_allclose(trace.reframe_payload, np.zeros(2), atol=1e-12)
    np.testing.assert_allclose(trace.occupancy[-1], uniform.lam, atol=1e-10)


def test_reframe_payload_matches_spectral_fixed_point(e1):
    from bittide_sim import steady_state_correction

    topology, _, params, clm, sd = e1
    trace = run(prepare(topology, params),
                schedule=ReframeSchedule(mode="fixed-time", T1=250.0),
                settings=IntegratorSettings(horizon=250.0, sample_interval=25.0))
    f0 = steady_state_correction(sd, clm, params, q=np.zeros(2))
    np.testing.assert_allclose(trace.reframe_payload, f0, atol=1e-9)
    # post-reframe the correction settles back to the frozen value
    np.testing.assert_allclose(trace.correction[-1], trace.reframe_payload,
                               atol=1e-9)


def test_trigger_true_for_constant_correction():
    times = np.linspace(0.0, 20.0, 41)
    c = np.tile([0.01, -0.01], (41, 1))
    assert auto_reframe_trigger(times, c, epsilon=1e-12, window=5.0)


def test_trigger_false_before_full_window():
    times = np.linspace(0.0, 3.0, 7)
    c = np.zeros((7, 2))
    assert not auto_reframe_trigger(times, c, epsilon=1.0, window=5.0)


def test_trigger_false_for_oscillation_above_epsilon():
    times = np.linspace(0.0, 50.0, 501)
    c = np.column_stack([np.sin(times), np.cos(times)])
    assert not auto_reframe_trigger(times, c, epsilon=0.5, window=10.0)


def _mask_trigger(times, corrections, epsilon, window):
    # the trigger's former whole-history formula, kept as the reference
    if len(times) == 0 or times[-1] - times[0] < window:
        return False
    t_lo = times[-1] - window
    in_window = times >= t_lo - 1e-12
    dev = np.abs(corrections[in_window] - corrections[-1]).max()
    return bool(dev <= epsilon)


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.sampled_from([0.0, 1e-13, 0.1, 0.25, 1.0, 3.0]),
                      min_size=1, max_size=60),
       n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       window=st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.5, 10.0]),
       epsilon=st.sampled_from([0.0, 1e-3, 0.05, 0.5, 2.0]))
def test_trigger_matches_whole_history_mask(steps, n, seed, window, epsilon):
    # non-decreasing times with repeats, as the run loops produce them
    times = np.cumsum(steps)
    rng = np.random.default_rng(seed)
    c = rng.normal(scale=0.5, size=(len(times), n))
    c[rng.random(len(times)) < 0.5] = c[-1]  # some rows settle on the last
    assert (auto_reframe_trigger(times, c, epsilon, window)
            == _mask_trigger(times, c, epsilon, window))


def test_correction_history_views_grow_in_place():
    history = CorrectionHistory(2)
    rows = np.arange(300.0).reshape(150, 2)
    for i, row in enumerate(rows):
        history.append(0.5 * i, row)
    assert len(history) == 150
    np.testing.assert_array_equal(history.times, 0.5 * np.arange(150))
    np.testing.assert_array_equal(history.corrections, rows)
    before = history.corrections
    history.append(75.0, [-1.0, -2.0])
    # the buffer has room for the row: the old view shares it, unchanged
    assert np.shares_memory(before, history.corrections)
    np.testing.assert_array_equal(before, rows)
    np.testing.assert_array_equal(history.corrections[-1], [-1.0, -2.0])


def test_auto_reframe_fires_after_transient_and_outcome_holds(e1):
    topology, _, params, _, sd = e1
    schedule = ReframeSchedule(mode="auto")  # eps = 1e-9 * 1.02, window = 100
    trace = run(prepare(topology, params), schedule=schedule,
                settings=IntegratorSettings(horizon=400.0, sample_interval=2.0))
    assert trace.reframe_time is not None
    # stability needs the transient (rate 0.2) to decay below epsilon across
    # a full window: strictly after it, well before the horizon
    assert 100.0 < trace.reframe_time < 350.0
    np.testing.assert_allclose(trace.reframe_payload, [0.01, -0.01], atol=1e-8)
    omega_end, beta_end = trace.omega[-1], trace.occupancy[-1]
    np.testing.assert_allclose(omega_end, [1.01, 1.01], atol=1e-8)
    np.testing.assert_allclose(beta_end, [10.0, 10.0], atol=1e-6)


def test_schedule_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ReframeSchedule(mode="sometimes")


def test_schedule_resolution_defaults(two_cycle):
    inc = build_incidence(two_cycle)
    params = make_system_params(two_cycle, k=0.1, omega_u=[1.0, 1.02])
    sched = ReframeSchedule(mode="auto").resolved(params, inc)
    assert sched.epsilon == pytest.approx(1.02e-9)
    assert sched.window == pytest.approx(100.0)


def test_staggered_reframe_reports_without_guarantees(e1):
    topology, _, params, _, _ = e1
    trace = run(prepare(topology, params),
                schedule=ReframeSchedule(mode="fixed-time", T1=[250.0, 260.0]),
                settings=IntegratorSettings(horizon=250.0, sample_interval=10.0))
    # all nodes eventually reframed and the run completed; terminal values are
    # reported, not asserted against the common-T1 guarantees
    assert trace.mode[-1] == "post-reframe"
    assert np.isfinite(trace.occupancy[-1]).all()
