from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bittide_sim import (IntegratorSettings, NodeView, OneShotReset, ReframeError,
                         ReframeSchedule, Topology, build_incidence,
                         make_system_params, node_views, prepare,
                         proportional_correction, run)
from bittide_sim import cli, controller, dynamics, verify
from bittide_sim.config import parse_config
from bittide_sim.controller import (CorrectionHistory, StabilityDetector,
                                    proportional_corrections)
from bittide_sim.framesim import run_discrete
from conftest import horizon_reframe, random_scenario, spectral_setup

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
        assert list(v.in_edges) == sorted(v.in_edges)     # edge order
        for eid in v.in_edges:
            assert type(eid) is int
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
    reset.history.extend([4.0], np.array([0.5, 0.5]))
    assert reset.firing(4.0) is None
    reset.history.extend([5.0], np.array([0.02, 0.013]))
    firing = reset.firing(5.0)
    np.testing.assert_array_equal(firing, [True, False])
    q = reset.freeze(np.zeros(2), firing)
    assert q.tolist() == [0.02, 0.0]
    assert reset.mode == "staggered-1/2" and reset.time is None
    reset.history.extend([7.0], np.array([0.04, 0.013]))
    q = reset.freeze(q, reset.firing(7.0))
    assert q.tolist() == [0.02, 0.013]
    assert reset.mode == "post-reframe" and reset.time == 7.0
    assert reset.firing(8.0) is None


def test_double_reframe_rejected(two_cycle):
    reset = _reset(two_cycle, ReframeSchedule(mode="auto"))
    reset.history.extend([0.0], np.array([0.01, 0.02]))
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


def window_trigger(times, corrections, epsilon, window):
    """The auto trigger as a search of the window: True once the correction
    has been stable over the trailing window, that is, max over the window of
    ||c(t) - c(t_end)||_inf <= epsilon, and False while less than a full
    window of samples has elapsed.  The window's first row is found by
    binary search in the non-decreasing times.  The reference for the
    streaming `StabilityDetector`."""
    if len(times) == 0 or times[-1] - times[0] < window:
        return False
    t_lo = times[-1] - window
    start = np.searchsorted(times, t_lo - 1e-12, side="left")
    dev = np.abs(corrections[start:] - corrections[-1]).max()
    return bool(dev <= epsilon)


def detector_decisions(times, corrections, epsilon, window, blocks=None):
    """The detector's decision at each row, fed one row at a time, or in
    blocks of the given lengths as the discrete loop feeds an advance: the
    runs of equal corrections in its rows but the last, up to the first row
    that holds, and then that row, or else the last row, alone."""
    detector = StabilityDetector(epsilon, window)
    times = np.asarray(times, dtype=float)
    decisions, row = [None] * len(times), 0
    lengths = iter(blocks or [])
    while row < len(times):
        end = min(row + next(lengths, 1), len(times))
        # as the loop feeds an advance's runs, after the history
        past = CorrectionHistory(corrections.shape[1:], size=max(row, 1))
        past.extend(times[:row], corrections[:row])
        block_t, block_c = times[row:end], corrections[row:end]
        changes = np.flatnonzero((block_c[1:] != block_c[:-1]).any(axis=1))
        start = 0
        for stop in [*(changes + 1).tolist(), len(block_t)]:
            stop = min(stop, len(block_t) - 1)
            if stop <= start:
                break
            held = detector.first(block_t, block_c, start, stop, past)
            decisions[row + start:row + held] = [False] * (held - start)
            if held < stop:
                end = row + held + 1
                break
            start = stop
        row = end - 1
        # as the loop asks its last row, in the history
        decisions[row] = detector.first(times, corrections, row,
                                        row + 1) == row
        row += 1
    return decisions


def test_trigger_true_for_constant_correction():
    times = np.linspace(0.0, 20.0, 41)
    c = np.tile([0.01, -0.01], (41, 1))
    assert detector_decisions(times, c, epsilon=1e-12, window=5.0)[-1]


def test_trigger_false_before_full_window():
    times = np.linspace(0.0, 3.0, 7)
    c = np.zeros((7, 2))
    assert not any(detector_decisions(times, c, epsilon=1.0, window=5.0))


def test_trigger_false_for_oscillation_above_epsilon():
    times = np.linspace(0.0, 50.0, 501)
    c = np.column_stack([np.sin(times), np.cos(times)])
    assert not detector_decisions(times, c, epsilon=0.5, window=10.0)[-1]


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
    assert (window_trigger(times, c, epsilon, window)
            == _mask_trigger(times, c, epsilon, window))


@st.composite
def correction_rows(draw):
    """(times, corrections, window): non-decreasing times whose steps
    include repeats and steps of exactly the window and of the window plus
    or minus 1e-12; corrections piecewise constant (as a discrete run holds
    them between fires) or new on every row (as a continuous run samples
    them), from few values, with some NaN rows."""
    window = draw(st.sampled_from([0.5, 1.0, 2.5, 7.3]))
    count = draw(st.integers(1, 50))
    steps = draw(st.lists(st.sampled_from(
        [0.0, 0.1, 0.25, 1.0, window, window - 1e-12, window + 1e-12]),
        min_size=count, max_size=count))
    times = np.cumsum([0.0] + steps[1:]) + draw(st.sampled_from([0.0, 3.7]))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(scale=0.05, size=(draw(st.integers(1, 4)), n))
    if draw(st.booleans()):
        # piecewise constant: each row holds the last, or takes a value
        pick = np.maximum.accumulate(
            np.where(rng.random(count) < 0.3, np.arange(count), 0))
        c = values[rng.integers(0, len(values), count)][pick]
    else:
        c = values[rng.integers(0, len(values), count)] + rng.choice(
            [0.0, 1e-3, 0.02], size=(count, n))
    nan = rng.random(count) < draw(st.sampled_from([0.0, 0.1]))
    c[nan, rng.integers(0, n)] = np.nan
    return times, c, window


@settings(max_examples=300, deadline=None)
@given(rows=correction_rows(),
       epsilon=st.sampled_from([0.0, 1e-3, 0.02, 0.1]),
       blocks=st.one_of(st.none(),
                        st.lists(st.integers(1, 12), min_size=1, max_size=50)))
def test_detector_matches_the_window_search_on_every_row(rows, epsilon,
                                                         blocks):
    times, c, window = rows
    expected = [window_trigger(times[:i + 1], c[:i + 1], epsilon, window)
                for i in range(len(times))]
    assert detector_decisions(times, c, epsilon, window, blocks) == expected


def test_detector_holds_a_window_after_the_last_unstable_row():
    # the window is [t - 2.0 - 1e-12, t]: a row exactly its length back is
    # inside it, one 2e-12 further back is not
    times = np.array([0.0, 1.0, 3.0, 3.0 + 2e-12])
    c = np.array([[0.0], [1.0], [0.0], [0.0]])
    assert detector_decisions(times, c, 0.5, 2.0) == [False, False, False,
                                                      True]
    assert [window_trigger(times[:i], c[:i], 0.5, 2.0)
            for i in range(1, 5)] == [False, False, False, True]
    # a NaN row never holds, and stays in the window of the rows after it
    c[1] = np.nan
    times[3] = 3.0 + 1e-13
    assert detector_decisions(times, c, 0.5, 2.0) == [False] * 4
    # epsilon 0: only an exactly held correction is stable
    assert detector_decisions([0.0, 1.0, 2.0], np.array([[0.1], [0.1], [0.1]]),
                              0.0, 1.0) == [False, True, True]


@settings(max_examples=300, deadline=None)
@given(rows=correction_rows(), epsilon=st.sampled_from([0.0, 1e-3, 0.02]),
       kind=st.sampled_from(["auto", "fixed-time", "per-node"]),
       pick=st.integers(0, 49),
       nudge=st.sampled_from([0.0, 1e-13, -1e-13, 2e-12, -2e-12, 0.05]))
def test_cut_returns_the_row_on_which_row_by_row_firing_fires(
        rows, epsilon, kind, pick, nudge):
    # the T1 is a row's time, or a hair or a step from it
    times, c, window = rows
    n = c.shape[1]
    T1 = times[pick % len(times)] + nudge
    schedule = {
        "auto": ReframeSchedule(mode="auto", epsilon=epsilon, window=window),
        "fixed-time": ReframeSchedule(mode="fixed-time", T1=T1),
        "per-node": ReframeSchedule(mode="fixed-time",
                                    T1=T1 + 0.5 * np.arange(n)[::-1]),
    }[kind]
    params = SimpleNamespace(omega_u=np.ones(n), k=0.1, q=np.zeros(n))
    inc = build_incidence(Topology(n=n))

    def fires(reset, row):
        return reset.firing(times[row]) is not None

    by_row = OneShotReset(schedule, params, inc, default_T1=None)
    expected = None
    for row in range(len(times)):
        by_row.record_rows([times[row]], c[row], None)
        if fires(by_row, row):
            expected = row
            break
    # row 0 is recorded; each run of rows that hold one correction is cut
    # ahead of the history, and the last row is left to `firing`
    ahead = OneShotReset(schedule, params, inc, default_T1=None)
    ahead.record_rows([times[0]], c[0], None)
    found = 0 if fires(ahead, 0) else None
    coming_t, coming_c, last = times[1:], c[1:], len(times) - 2
    start = 0
    while found is None and start < last:
        end = start + 1
        while end < last and (coming_c[end].tobytes()
                              == coming_c[start].tobytes()):
            end += 1
        count = ahead.cut(coming_t, coming_c, start, end)
        if count is not None:
            found = count       # the coming row count - 1, row count here
        start = end
    if found is None and len(times) > 1:
        ahead.record_rows(coming_t, coming_c, None)
        found = last + 1 if fires(ahead, last + 1) else None
    assert found == expected


def test_correction_history_views_grow_in_place():
    history = CorrectionHistory(2)
    rows = np.arange(300.0).reshape(150, 2)
    for i, row in enumerate(rows):
        history.extend([0.5 * i], row)
    assert len(history) == 150
    np.testing.assert_array_equal(history.times, 0.5 * np.arange(150))
    np.testing.assert_array_equal(history.corrections, rows)
    before = history.corrections
    history.extend([75.0], [-1.0, -2.0])
    # the buffer has room for the row: the old view shares it, unchanged
    assert np.shares_memory(before, history.corrections)
    np.testing.assert_array_equal(before, rows)
    np.testing.assert_array_equal(history.corrections[-1], [-1.0, -2.0])


def test_correction_history_rows_grow_with_the_corrections():
    history = CorrectionHistory(2, width=3)
    rows = np.arange(450.0).reshape(150, 3)
    for i, row in enumerate(rows):
        history.extend([0.5 * i], [i, -i], row)
    np.testing.assert_array_equal(history.rows, rows)
    np.testing.assert_array_equal(history.corrections[:, 1], -np.arange(150))
    assert CorrectionHistory(2).rows.shape == (0, 0)


def test_correction_history_takes_a_block():
    history = CorrectionHistory(2, width=1, size=2)
    history.extend([0.0], [0.5, 0.5], [1.0])
    history.extend([1.0, 2.0, 3.0], np.array([0.1, 0.2]), [[2.0], [3.0], [4.0]])
    np.testing.assert_array_equal(history.times, [0.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(history.corrections[1:], [[0.1, 0.2]] * 3)
    np.testing.assert_array_equal(history.rows[:, 0], [1.0, 2.0, 3.0, 4.0])
    history.extend([4.0, 5.0], np.array([[0.3, 0.4], [0.5, 0.6]]),
                   [[5.0], [6.0]])
    assert len(history) == 6
    np.testing.assert_array_equal(history.corrections[4:],
                                  [[0.3, 0.4], [0.5, 0.6]])


@pytest.mark.parametrize("mode", [[], ["--discrete"]])
def test_e1_run_never_grows_its_history(tmp_path, monkeypatch, mode):
    # each loop sizes its recorder from the samples it expects, plus two rows
    # per reframe time, so the run's rows never move to a larger buffer
    grown = []

    def recording(a, filled, size):
        grown.append(size)
        return original(a, filled, size)

    original = controller._grown
    monkeypatch.setattr(controller, "_grown", recording)
    assert cli.main(["run", "--config", str(CONFIG_DIR / "e1.json"),
                     "--out", str(tmp_path), *mode]) == 0
    assert grown == []


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
    with pytest.raises(ValueError, match="^mode: expected 'fixed-time' or "
                                         "'auto', got 'sometimes'$"):
        ReframeSchedule(mode="sometimes")


@pytest.mark.parametrize("field, value", [
    ("window", -5.0), ("window", 0.0), ("window", np.nan), ("window", np.inf),
    ("epsilon", -1.0), ("epsilon", np.nan), ("epsilon", np.inf),
    ("T1", np.nan), ("T1", np.inf), ("T1", [250.0, np.nan])])
def test_schedule_rejects_values_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"^{field}: must be finite"):
        ReframeSchedule(mode="auto", **{field: value})


def test_schedule_keeps_values_in_range():
    schedule = ReframeSchedule(mode="fixed-time", T1=[0.0, -3.0], epsilon=0.0,
                               window=1e-9)
    assert schedule.epsilon == 0.0 and schedule.window == 1e-9


def test_schedule_resolution_defaults(two_cycle):
    inc = build_incidence(two_cycle)
    params = make_system_params(two_cycle, k=0.1, omega_u=[1.0, 1.02])
    detector = OneShotReset(ReframeSchedule(mode="auto"), params, inc,
                            default_T1=None).detector
    assert detector.epsilon == pytest.approx(1.02e-9)
    assert detector.window == pytest.approx(100.0)


def test_fixed_time_reset_fills_only_its_T1(two_cycle, monkeypatch):
    # a fixed-time reset reads no correction scale: neither the in-degree
    # nor omega_u
    inc = build_incidence(two_cycle)
    monkeypatch.setattr(type(inc), "max_in_degree", None)
    params = SimpleNamespace(omega_u=None, k=None, q=np.zeros(2))
    reset = OneShotReset(ReframeSchedule(mode="fixed-time"), params, inc,
                         default_T1=7.5)
    assert reset.detector is None and reset.events == [7.5]


def test_staggered_reframe_reports_without_guarantees(e1):
    topology, _, params, _, _ = e1
    trace = run(prepare(topology, params),
                schedule=ReframeSchedule(mode="fixed-time", T1=[250.0, 260.0]),
                settings=IntegratorSettings(horizon=250.0, sample_interval=10.0))
    # all nodes eventually reframed and the run completed; terminal values are
    # reported, not asserted against the common-T1 guarantees
    assert trace.mode[-1] == "post-reframe"
    assert np.isfinite(trace.occupancy[-1]).all()


def _config_run(name, schedule):
    """A run of configs/<name> with its reframe schedule replaced, in the
    config's mode."""
    cfg = replace(parse_config(CONFIG_DIR / name), reframe=schedule)
    system = cfg.system()
    if cfg.discrete.enabled:
        return run_discrete(cfg.discrete_scenario(system))
    return run(system, schedule=cfg.schedule(),
               settings=cfg.continuous_settings(system))


@pytest.mark.parametrize("name, reframe_time", [("e1.json", 0.0),
                                                ("e1_discrete.json", 0.2)])
def test_T1_0_fires_on_the_first_row_each_mode_asks(name, reframe_time):
    # the continuous run asks its t = 0 row; the discrete run records that
    # row unasked and asks its first step
    trace = _config_run(name, ReframeSchedule(mode="fixed-time", T1=0.0))
    assert trace.reframe_time == reframe_time


@pytest.mark.parametrize("name", ["e1.json", "e1_discrete.json"])
@pytest.mark.parametrize("schedule", [
    ReframeSchedule(mode="fixed-time", T1=1e4),
    ReframeSchedule(mode="auto", epsilon=0.1, window=1e4)],
    ids=["fixed-time", "auto"])
def test_never_fired_warning_names_the_callers_file(name, schedule):
    with pytest.warns(UserWarning) as caught:
        _config_run(name, schedule)
    assert [w.filename for w in caught
            if "never fired" in str(w.message)] == [__file__]


def test_the_reset_asks_firing_once_per_decision(monkeypatch, e1):
    # `run` of a battery scenario's horizon reframe asks at its T1 and at its
    # end; the battery itself steps its runs stacked, through no reset, and
    # asks nothing; a run with no schedule asks only at its end
    asked = []
    firing = OneShotReset.firing

    def counting(self, t):
        asked.append(t)
        return firing(self, t)

    monkeypatch.setattr(OneShotReset, "firing", counting)
    scenario = verify.make_random_scenario(7)
    system = replace(scenario.system,
                     params=scenario.system.params.with_q(scenario.offsets))
    trace = run(system, **horizon_reframe(system))
    assert asked == [trace.reframe_time, trace.times[-1]]
    asked.clear()
    verify.run_battery(100, 7)
    assert asked == []
    topology, _, params, _, _ = e1
    run(prepare(topology, params), settings=IntegratorSettings(horizon=50.0))
    assert len(asked) == 1
