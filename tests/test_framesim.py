import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bittide_sim import (IntegratorSettings, OneShotReset, ReframeSchedule,
                         Topology, generate_topology, make_system_params,
                         node_views, prepare, proportional_correction, run)
from bittide_sim import controller, framesim
from bittide_sim.controller import POST_REFRAME, StabilityDetector
from bittide_sim.config import parse_config, parse_config_dict
from bittide_sim.framesim import (DiscreteFault, DiscreteScenario,
                                  DiscreteTrace, Fault, discrete_step,
                                  fault_report, init_discrete, run_discrete)
from test_controller import window_trigger

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def e1_discrete(capacity=20, k=0.1, dt=0.2, horizon=500.0, T1=250.0,
                continue_on_fault=False, lam=10.0):
    topology = Topology(n=2, edges=[(1, 2), (2, 1)])
    params = make_system_params(topology, k=k, omega_u=[1.00, 1.02], lam=lam)
    reframe = ReframeSchedule(mode="fixed-time", T1=T1) if T1 is not None else None
    return DiscreteScenario(system=prepare(topology, params, 0.0),
                            capacity=capacity, dt=dt, horizon=horizon,
                            reframe=reframe, continue_on_fault=continue_on_fault)


def test_identical_clocks_hold_offset_exactly():
    topology = Topology(n=2, edges=[(1, 2), (2, 1)])
    params = make_system_params(topology, k=0.1, omega_u=1.0, lam=10.0)
    scenario = DiscreteScenario(system=prepare(topology, params, 0.0),
                                capacity=20, horizon=200.0,
                                reframe=ReframeSchedule(mode="fixed-time", T1=50.0))
    trace = run_discrete(scenario)
    np.testing.assert_array_equal(trace.occupancy,
                                  np.full_like(trace.occupancy, 10.0))
    assert trace.faults == []


def test_initial_counters_match_feasible_offsets():
    state = init_discrete(e1_discrete())
    np.testing.assert_array_equal(state.measured, [10, 10])
    assert state.virtual


@settings(max_examples=150, deadline=None)
@given(data=st.data(), unit=st.integers(1, 3))
def test_fire_row_occupancy_is_the_quantized_counters_bit_for_bit(data, unit):
    # a fire row gathers both ends of every edge in one take at the
    # incidence's ends; its occupancy is floor(theta[src] + lambda) -
    # floor(theta[dst]), quantized, for phases and lambda up to the 2**52
    # bound and for the negative counts of virtual buffers, and the check
    # pass's counters, taken into its own array, are the same
    n = data.draw(st.integers(2, 6))
    topology = generate_topology("random-strong", n,
                                 seed=data.draw(st.integers(0, 1000)),
                                 extra_edge_fraction=0.3)
    bound = 2**52 - 1
    value = st.one_of(st.floats(-40.0, 40.0),
                      st.floats(-float(bound), float(bound)),
                      st.integers(-bound, bound).map(float))
    lam = data.draw(st.lists(value, min_size=topology.m,
                             max_size=topology.m))
    params = make_system_params(topology, k=0.0, omega_u=1.0, lam=lam)
    scenario = DiscreteScenario(system=prepare(topology, params, 0.0),
                                capacity=1, quantization=unit)
    row = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
    inc = scenario.system.inc
    occupancy = (np.floor(row[inc.src] + params.lam).astype(np.int64)
                 - np.floor(row[inc.dst]).astype(np.int64))
    expected = (unit * np.floor_divide(occupancy, unit)).astype(float)
    lead = scenario.pointer_lead
    counts = framesim._counters(inc, row, lead)
    assert (framesim._quantize(counts[0] - counts[1], unit).tobytes()
            == expected.tobytes())
    gathered = np.empty((1, 2, topology.m))
    checked = framesim._counters(inc, row[None], lead, out=gathered)
    assert checked.flags.c_contiguous
    assert checked.tobytes() == counts.tobytes()
    assert (gathered.tobytes()
            == np.array([row[inc.src], row[inc.dst]]).tobytes())


def _discrete_fixed_config(seed=7):
    """The benchmark's discrete-fixed workload: a 16-node bidirectional
    ring, dt = 0.2 and a fixed-time reframe at T1 = 400 of 800."""
    rng = np.random.default_rng(seed)
    return parse_config_dict({
        "topology": "bidirectional-ring", "n": 16, "k": 0.05,
        "omega_u": rng.uniform(0.99, 1.01, size=16).tolist(),
        "theta0": rng.uniform(0.0, 1.0, size=16).tolist(),
        "lambda": 10.0, "controller": "reframing",
        "reframe": {"mode": "fixed-time", "T1": 400.0},
        "integrator": {"dt": 0.2, "horizon": 800.0},
        "discrete": {"capacity": 20}})


@pytest.mark.parametrize("cfg, T1", [
    (lambda: parse_config(CONFIG_DIR / "e1_discrete.json"), 250.0),
    (_discrete_fixed_config, 400.0)], ids=["e1_discrete", "discrete-fixed"])
def test_an_on_grid_T1_fires_on_its_own_step(cfg, T1):
    # summing dt step by step put step 2000 at 399.99999999998585, so
    # discrete-fixed reframed one step late at 400.19999999998583, and
    # e1_discrete at 250.19999999999433; step j is now j dt
    cfg = cfg()
    trace = run_discrete(cfg.discrete_scenario(cfg.system()))
    assert trace.reframe_time == T1 and not trace.aborted
    pre = trace.mode.index(POST_REFRAME) - 1
    assert trace.times[pre] == T1 == pre * 0.2
    assert trace.times[-1] == (len(trace.times) - 2) * 0.2


def test_e1_discrete_settles_and_recenters_without_faults():
    trace = run_discrete(e1_discrete())
    assert trace.faults == [] and not trace.aborted
    assert trace.reframe_time == pytest.approx(250.0, abs=0.5)
    pre = trace.times < trace.reframe_time - 50.0
    tail_pre = pre & (trace.times > trace.reframe_time - 100.0)
    # pre-reframe plateau within one frame of the continuous limit (9.9, 10.1)
    assert np.abs(trace.occupancy[tail_pre] - [9.9, 10.1]).max() <= 1.0
    # post-reframe recentered within one frame of beta_off
    assert np.abs(trace.occupancy[-1] - 10.0).max() <= 1.0


def test_fractional_link_constants_stay_in_band():
    # non-integer lambda exercises the floor rounding in both counters; the
    # per-step frame-conservation asserts must hold and occupancy stays within
    # a frame of the continuous value
    topology = Topology(n=2, edges=[(1, 2), (2, 1)])
    params = make_system_params(topology, k=0.1, omega_u=[1.00, 1.02],
                                lam=[10.7, 9.3])
    scenario = DiscreteScenario(system=prepare(topology, params, [0.25, -0.4]),
                                capacity=22, dt=0.2,
                                horizon=300.0,
                                reframe=ReframeSchedule(mode="fixed-time",
                                                        T1=150.0))
    trace = run_discrete(scenario)
    assert trace.faults == []
    cont = run(prepare(topology, params, [0.25, -0.4]),
               schedule=ReframeSchedule(mode="fixed-time", T1=150.0),
               settings=IntegratorSettings(horizon=150.0, post_horizon=150.0,
                                           sample_interval=0.2))
    for phase in ("pre-reframe", "post-reframe"):
        di = [i for i, m in enumerate(trace.mode) if m == phase]
        ci = [i for i, m in enumerate(cont.mode) if m == phase]
        for e in range(2):
            ref = np.interp(trace.times[di], cont.times[ci], cont.occupancy[ci, e])
            assert np.abs(trace.occupancy[di, e] - ref).max() <= 2.0


def test_discrete_tracks_continuous_model_within_two_frames():
    scenario = e1_discrete()
    trace = run_discrete(scenario)
    cont = run(scenario.system,
               schedule=ReframeSchedule(mode="fixed-time", T1=250.0),
               settings=IntegratorSettings(horizon=250.0, post_horizon=250.0,
                                           sample_interval=scenario.step_size()))
    # same reframe time; compare per phase on the discrete grid
    for phase in ("pre-reframe", "post-reframe"):
        di = [i for i, m in enumerate(trace.mode) if m == phase]
        ci = [i for i, m in enumerate(cont.mode) if m == phase]
        for e in range(2):
            ref = np.interp(trace.times[di], cont.times[ci], cont.occupancy[ci, e])
            assert np.abs(trace.occupancy[di, e] - ref).max() <= 2.0


def test_virtual_mode_never_faults():
    trace = run_discrete(e1_discrete(capacity=1, T1=None, horizon=300.0))
    assert trace.faults == []
    assert fault_report(trace) == []
    # occupancies drifted well outside [0, 1] without complaint
    assert trace.occupancy.max() > 1 or trace.occupancy.min() < 0


def test_disabled_controller_drift_faults_by_t100():
    # k = 0: occupancy drifts at |omega_1 - omega_2| = 0.02 frames per unit
    # time from the capacity-1 midpoint; both edges breach within t = 100
    scenario = e1_discrete(capacity=1, k=0.0, lam=0.5, T1=1.0, horizon=200.0,
                           continue_on_fault=True)
    trace = run_discrete(scenario)
    report = fault_report(trace)
    assert sorted(f.edge for f in report) == [1, 2]  # one first-fault per edge
    directions = {f.edge: f.direction for f in report}
    assert directions == {1: "underflow", 2: "overflow"}
    assert all(f.t <= 100.0 for f in report)
    assert all(f.t > 1.0 for f in report)  # only after the reframe arms bounds


def test_fault_aborts_run_by_default():
    scenario = e1_discrete(capacity=1, k=0.0, lam=0.5, T1=1.0, horizon=200.0)
    trace = run_discrete(scenario)
    assert trace.aborted
    assert len(fault_report(trace)) == 1
    assert trace.times[-1] < 200.0


def test_capacity_advisory_warns():
    with pytest.warns(UserWarning, match="capacity"):
        # swing is 0.1 frames, so capacity must be >= 0.2; force a tiny margin
        # with a huge gain mismatch instead: k small makes the swing large
        topology = Topology(n=2, edges=[(1, 2), (2, 1)])
        params = make_system_params(topology, k=0.001, omega_u=[1.0, 1.05],
                                    lam=100.0)
        run_discrete(DiscreteScenario(system=prepare(topology, params, 0.0),
                                      capacity=10, horizon=1.0))


def test_dt_bound_enforced():
    with pytest.raises(ValueError, match="dt"):
        e1_discrete(dt=0.5).step_size()


@pytest.mark.parametrize("horizon, steps", [(1e12, "4e+12"),
                                            (1e300, "4e+300")])
def test_run_discrete_refuses_too_many_steps_before_sizing_its_history(
        ring3, monkeypatch, horizon, steps):
    # a 3-node ring's 4e12 steps asked numpy for 29.4 TiB of history, a
    # MemoryError, and 4e300 for more than an array's largest dimension;
    # the run refuses them before it sizes its history
    system = prepare(ring3, make_system_params(ring3, k=0.2, omega_u=1.0))
    scenario = DiscreteScenario(system=system, capacity=100, horizon=horizon)

    def refused(*args, **kwargs):
        raise AssertionError("the run sized its history")

    monkeypatch.setattr(controller.CorrectionHistory, "__init__", refused)
    with pytest.raises(ValueError) as caught:
        run_discrete(scenario)
    assert str(caught.value) == (
        f"a discrete horizon of {horizon:.6g} in steps of dt = 0.25 is "
        f"{steps} steps; a run takes at most {framesim.MAX_SAMPLES}")


def test_quantization_unit_coarsens_measurement():
    trace1 = run_discrete(e1_discrete())
    scenario4 = DiscreteScenario(system=e1_discrete().system,
                                 capacity=40, quantization=4, dt=0.2,
                                 horizon=100.0, reframe=None)
    trace4 = run_discrete(scenario4)
    assert set(np.unique(trace4.occupancy)) <= {8.0, 12.0, 16.0}
    assert not set(np.unique(trace1.occupancy)) <= {8.0, 12.0, 16.0}


def test_scenario_validation():
    base = e1_discrete()
    with pytest.raises(ValueError, match="control period"):
        DiscreteScenario(system=base.system, capacity=20, control_period=0.5)
    with pytest.raises(ValueError, match="capacity"):
        DiscreteScenario(system=base.system, capacity=0)


def test_per_node_reframe_times_stagger_like_the_continuous_run():
    # each node freezes at its own T1; the buffers stay virtual, so unpoliced,
    # until the last node has reframed, and only then can they overflow
    T1 = [150.0, 101.1]     # node 2 fires while it holds a correction of -0.1
    base = e1_discrete(capacity=5, horizon=200.0, continue_on_fault=True)
    scenario = replace(base, reframe=ReframeSchedule(mode="fixed-time", T1=T1))
    trace = run_discrete(scenario)
    assert not trace.aborted
    assert trace.reframe_time == pytest.approx(150.0, abs=0.2)
    assert min(f.t for f in trace.faults) > trace.reframe_time
    first = trace.mode.index("staggered-1/2")
    assert trace.times[first] == trace.times[first - 1] == pytest.approx(101.2)
    pre, post = trace.correction[first - 1], trace.correction[first]
    # node 2 fires at once with its frozen q; node 1 holds its correction
    assert pre[1] == pytest.approx(-0.1)
    assert post[1] == pytest.approx(0.1 * (trace.occupancy[first, 0] - 10.0) + pre[1])
    assert post[0] == pre[0]
    cont = run(base.system, schedule=scenario.reframe,
               settings=IntegratorSettings(horizon=150.0, sample_interval=10.0))
    assert list(dict.fromkeys(trace.mode)) == list(dict.fromkeys(cont.mode)) == [
        "pre-reframe", "staggered-1/2", "post-reframe"]


def test_auto_trigger_fires_on_the_same_sample_in_both_loops():
    # a window below one sample: the trigger judges the history up to and
    # including the current sample, so both loops fire on the first step
    schedule = ReframeSchedule(mode="auto", epsilon=1.0, window=0.1)
    scenario = replace(e1_discrete(horizon=5.0), reframe=schedule)
    discrete = run_discrete(scenario)
    continuous = run(scenario.system, schedule=schedule,
                     settings=IntegratorSettings(horizon=5.0, sample_interval=0.2))
    assert discrete.reframe_time == continuous.reframe_time == 0.2


def test_auto_trigger_reads_history_without_copy(monkeypatch):
    # each time the detector is fed, the rows before are views of one
    # buffer, sized for the run up front, so it never moves and no advance
    # copies the history
    calls, pasts = [], []
    trigger, first = controller.auto_reframe_trigger, StabilityDetector.first

    def recording(*args):
        calls.append(args)
        return trigger(*args)

    def fed(self, times, corrections, start, end, past=None):
        # an advance's rows come with the history as `past`; the last row is
        # fed from the history itself
        pasts.append((times, corrections) if past is None
                     else (past.times, past.corrections))
        return first(self, times, corrections, start, end, past)

    monkeypatch.setattr(controller, "auto_reframe_trigger", recording)
    monkeypatch.setattr(StabilityDetector, "first", fed)
    scenario = replace(e1_discrete(horizon=100.0),
                       reframe=ReframeSchedule(mode="auto"))
    with pytest.warns(UserWarning, match="never fired"):
        run_discrete(scenario)
    # one advance of 500 rows, of which 115 fire a controller: the trigger
    # is asked once at the row before each fire inside the advance, once
    # at the row before its last and once at its last row
    assert len(pasts) == len(calls) == 116
    moved = [i for i in range(1, len(pasts))
             if not all(np.shares_memory(a, b)
                        for a, b in zip(pasts[i - 1], pasts[i]))]
    assert not moved


def test_e1_auto_reframe_fires_inside_an_advance_through_fires():
    # the trigger holds at t = 20, row 100, inside the first advance, after
    # six fires that changed the correction; the advance is cut there.  Row
    # 100 is stamped 100 dt = 20 exactly, so the window of 20 is full on it;
    # a running sum of dt stamped it 19.99999999999996, short of a full
    # window, so the trigger held a row later
    scenario = replace(e1_discrete(), reframe=ReframeSchedule(
        mode="auto", epsilon=0.1, window=20.0))
    advances = []
    step = framesim.discrete_step

    def counted(*args, **kwargs):
        state = step(*args, **kwargs)
        advances.append(len(state.times))
        return state

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(framesim, "discrete_step", counted)
        trace = run_discrete(scenario)
    assert trace.reframe_time == 20.0
    assert advances[0] == 100
    assert trace.times[100] == trace.times[101] == trace.reframe_time
    changes = np.count_nonzero((np.diff(trace.correction[:101], axis=0) != 0)
                               .any(axis=1))
    assert changes == 6
    reference, events = _per_step_run(scenario)
    for name in ("times", "correction", "occupancy", "omega"):
        np.testing.assert_array_equal(getattr(trace, name),
                                      getattr(reference, name))
    assert trace.mode == reference.mode
    assert trace.reframe_time == reference.reframe_time
    assert len(advances) == events


def test_a_long_control_period_keeps_each_advance_small():
    # with a control period of 1000 cycles no node fires for about 4000
    # steps, but an advance's arrays are capped at BLOCK_ENTRIES entries
    # each: it stops after block_steps steps, and the next goes on with the
    # per-step loop's rows
    topology = generate_topology("bidirectional-ring", 64)
    omega_u = np.random.default_rng(1).uniform(0.99, 1.01, 64)
    params = make_system_params(topology, k=0.001, omega_u=omega_u, lam=10.0)
    scenario = DiscreteScenario(system=prepare(topology, params, 0.0),
                                capacity=40, control_period=1000.0,
                                horizon=1000.0)
    width = scenario.system.inc.m      # 128 edges, 64 nodes
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the period is past the hold limit
        state = init_discrete(scenario)
        tracemalloc.start()
        try:
            discrete_step(state, scenario, scenario.system.params,
                          scenario.step_size(), 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        reference, _ = _per_step_run(scenario)
        trace = run_discrete(scenario)
    assert len(state.times) == scenario.block_steps
    assert scenario.block_steps == framesim.BLOCK_ENTRIES // width
    # the uncapped block of 4000 rows would hold about 60 such arrays
    assert peak < 16 * framesim.BLOCK_ENTRIES * 8
    for name in ("times", "correction", "occupancy"):
        np.testing.assert_array_equal(getattr(trace, name),
                                      getattr(reference, name))
    assert trace.mode == reference.mode


def test_backward_clock_is_an_invariant_fault():
    # at k = 1.5 a one-frame swing moves a correction by 1.5 and drives a
    # frequency negative, so a pointer runs backward: the fault is recorded
    # and the run stops, even with continue_on_fault
    scenario = e1_discrete(k=1.5, T1=None, horizon=50.0, continue_on_fault=True)
    trace = run_discrete(scenario)
    assert trace.aborted
    assert trace.faults
    assert {f.direction for f in trace.faults} == {"pointer-monotonicity"}
    assert trace.times[-1] < 50.0


def test_created_frames_are_an_invariant_fault(monkeypatch):
    # write pointers 3 frames ahead of their source clocks' whole cycles
    counters = framesim._counters

    def ahead(*args, **kwargs):
        counts = counters(*args, **kwargs)
        counts[0] += 3
        return counts

    monkeypatch.setattr(framesim, "_counters", ahead)
    trace = run_discrete(e1_discrete(T1=None, horizon=10.0,
                                     continue_on_fault=True))
    assert trace.aborted and len(trace.times) == 1
    assert [f.direction for f in trace.faults] == ["frame-conservation"] * 2


def test_overflow_abort_keeps_the_last_good_row():
    # 1 + 124 step rows + the reframe instant's pre-mode row; the step that
    # overflows edge 2 writes no row
    trace = run_discrete(e1_discrete(capacity=1, k=0.0, lam=0.5, T1=1.0,
                                     horizon=200.0))
    assert trace.aborted and len(trace.times) == 126
    # step j is stamped j dt: the overflow on step 125, the last row step 124
    assert trace.faults == [Fault(edge=2, t=125 * 0.2,
                                  direction="overflow", occupancy=2)]
    assert trace.times[-1] == 124 * 0.2
    assert trace.mode[-1] == "post-reframe"
    np.testing.assert_array_equal(trace.omega[-1], [1.0, 1.02])
    np.testing.assert_array_equal(trace.correction[-1], [0.0, 0.0])
    np.testing.assert_array_equal(trace.occupancy[-1], [0.0, 1.0])


def test_invariant_abort_keeps_the_last_good_row():
    # the advisory names the clock that then runs backward
    with pytest.warns(UserWarning, match="node 1: .* its clock can stop"):
        trace = run_discrete(e1_discrete(k=1.5, T1=None, horizon=50.0))
    assert trace.aborted and len(trace.times) == 13
    assert [(f.edge, f.t, f.direction) for f in trace.faults] == [
        (1, 2.6, "pointer-monotonicity"), (2, 2.6, "pointer-monotonicity")]
    assert trace.times[-1] == 12 * 0.2 and trace.mode[-1] == "pre-reframe"
    np.testing.assert_array_equal(trace.omega[-1], [-0.5, 1.02])
    np.testing.assert_array_equal(trace.correction[-1], [-1.5, 0.0])
    np.testing.assert_array_equal(trace.occupancy[-1], [11.0, 9.0])


@pytest.mark.parametrize("direction", ["pointer-monotonicity",
                                       "frame-conservation", "overflow"])
def test_a_step_that_raises_leaves_the_state_unmoved(direction, monkeypatch):
    if direction == "overflow":
        scenario = e1_discrete(capacity=1, k=0.0, lam=0.5, T1=None)
    else:
        scenario = e1_discrete(k=1.5, T1=None, horizon=50.0)
    state = init_discrete(scenario)
    state.virtual = direction != "overflow"    # bounds hold only when physical
    if direction == "frame-conservation":
        counters = framesim._counters

        def ahead(*args, **kwargs):     # write pointers 3 frames early
            counts = counters(*args, **kwargs)
            counts[0] += 3
            return counts

        monkeypatch.setattr(framesim, "_counters", ahead)
    fields = ("t", "theta", "correction", "next_fire", "measured")
    for _ in range(1000):
        before = {f: np.copy(getattr(state, f)) for f in fields}
        try:
            assert discrete_step(state, scenario, scenario.system.params,
                                 0.2) is state
        except DiscreteFault:
            break
    else:
        pytest.fail("no fault within 1000 steps")
    assert state.faults[-1].direction == direction
    for f in fields:
        np.testing.assert_array_equal(getattr(state, f), before[f])


STATE_FIELDS = ("t", "theta", "correction", "next_fire", "due_at", "measured")


def _single_steps(scenario, count):
    """`count` single steps on physical buffers from t = 0, as the per-step
    loop takes them: the state, the steps on which a controller fired, the
    correction and measured rows, and the step that raised, or None."""
    params, dt = scenario.system.params, scenario.step_size()
    state = init_discrete(scenario)
    state.virtual = False
    fires, corrections, measured = [], [], []
    for step in range(1, count + 1):
        next_fire = state.next_fire.copy()
        try:
            discrete_step(state, scenario, params, dt)
        except DiscreteFault:
            return state, fires, corrections, measured, step
        corrections.append(state.correction.copy())
        measured.append(state.measured.copy())
        if not np.array_equal(next_fire, state.next_fire):
            fires.append(step)
    return state, fires, corrections, measured, None


def test_a_fatal_fault_inside_a_multi_fire_advance_keeps_the_last_good_row():
    # edge 2 overflows on step 151, two or more steps after the last of the
    # controller fires before it; one advance runs through those fires and
    # past the overflow, and must end on the row before it, with that row's
    # correction and next fire phases, not those of fires further on
    scenario = e1_discrete(capacity=11, k=0.02, lam=10.5, T1=None)
    reference, fires, corrections, _, failed = _single_steps(scenario, 306)
    assert failed == 151 and fires and fires[-1] <= failed - 2
    # on virtual buffers the same advance runs on, and a fire on step 302
    # moves the correction it would end with
    state = init_discrete(scenario)
    discrete_step(state, scenario, scenario.system.params,
                  scenario.step_size(), 306)
    assert not np.array_equal(state.correction, reference.correction)
    state = init_discrete(scenario)
    state.virtual = False
    with pytest.raises(DiscreteFault):
        discrete_step(state, scenario, scenario.system.params,
                      scenario.step_size(), 306)
    assert len(state.times) == failed - 1
    np.testing.assert_array_equal(state.correction_rows, corrections)
    assert state.faults == reference.faults
    assert [f.direction for f in state.faults] == ["overflow"]
    for f in STATE_FIELDS:
        np.testing.assert_array_equal(getattr(state, f),
                                      getattr(reference, f))

    # the run loop: the reframe at t = 5 makes the buffers physical, and one
    # advance then runs through fires from there to an overflow at t = 10.8
    scenario = e1_discrete(capacity=10, k=0.02, lam=10.0, T1=5.0)
    reference, _ = _per_step_run(scenario)
    advances = []
    step = framesim.discrete_step

    def counted(*args, **kwargs):
        advances.append(1)
        return step(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(framesim, "discrete_step", counted)
        trace = run_discrete(scenario)
    assert trace.aborted and reference.aborted and len(advances) == 2
    for name in ("times", "correction", "occupancy"):
        np.testing.assert_array_equal(getattr(trace, name),
                                      getattr(reference, name))
    assert trace.mode == reference.mode
    assert trace.faults == reference.faults


def test_a_bound_fault_that_fires_inside_a_multi_fire_advance():
    # with continue_on_fault an overflowing row is recorded and the advance
    # goes on; a faulted row on which a controller is due still fires
    scenario = e1_discrete(capacity=9, k=0.02, lam=9.5, T1=None,
                           continue_on_fault=True)
    reference, fires, corrections, measured, failed = _single_steps(
        scenario, 400)
    assert failed is None
    faulted = {round(f.t / 0.2) for f in reference.faults}
    moved = {step for step in fires if step > 1 and not np.array_equal(
        corrections[step - 1], corrections[step - 2])}
    assert len(faulted & moved) == 9      # rows that fault and fire
    state = init_discrete(scenario)
    state.virtual = False
    discrete_step(state, scenario, scenario.system.params,
                  scenario.step_size(), 400)
    assert len(state.times) == 400
    np.testing.assert_array_equal(state.correction_rows, corrections)
    np.testing.assert_array_equal(state.measured_rows, measured)
    assert state.faults == reference.faults
    for f in STATE_FIELDS:
        np.testing.assert_array_equal(getattr(state, f),
                                      getattr(reference, f))

    scenario = replace(scenario, reframe=ReframeSchedule(mode="fixed-time",
                                                         T1=0.0))
    reference, _ = _per_step_run(scenario)
    trace = run_discrete(scenario)
    assert not trace.aborted and len(trace.faults) > 1
    for name in ("times", "correction", "occupancy"):
        np.testing.assert_array_equal(getattr(trace, name),
                                      getattr(reference, name))
    assert trace.mode == reference.mode
    assert trace.faults == reference.faults


def test_a_large_random_strong_run_matches_the_per_step_loop_bit_for_bit():
    # 3507 edges over many in-degree blocks, and several steps in each
    # advance of at most block_steps; the small scenarios of the
    # hypothesis test reach neither
    n = 256
    topology = generate_topology("random-strong", n, seed=7,
                                 extra_edge_fraction=0.05)
    rng = np.random.default_rng(7)
    params = make_system_params(topology, k=0.01,
                                omega_u=rng.uniform(0.98, 1.02, n), lam=10.0)
    scenario = DiscreteScenario(
        system=prepare(topology, params, rng.uniform(0.0, 1.0, n)),
        capacity=10**6, horizon=60.0,
        reframe=ReframeSchedule(mode="fixed-time", T1=30.0))
    inc = scenario.system.inc
    assert inc.m == 3507 and len(inc.in_blocks) > 10
    assert scenario.block_steps > 1
    advances = []
    step = framesim.discrete_step

    def counted(*args, **kwargs):
        advances.append(1)
        return step(*args, **kwargs)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reference, events = _per_step_run(scenario)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(framesim, "discrete_step", counted)
            trace = run_discrete(scenario)
    for name in ("times", "correction", "occupancy"):
        assert getattr(trace, name).tobytes() == getattr(reference,
                                                         name).tobytes()
    assert trace.reframe_time is not None and not trace.aborted
    assert ((trace.mode, trace.faults, trace.reframe_time, trace.aborted)
            == (reference.mode, reference.faults, reference.reframe_time,
                reference.aborted))
    # fewer advances than steps: some advance takes more than one
    assert len(advances) == events < math.ceil(scenario.step_count)


def _per_node_fire(state, scenario, params, which):
    """The law as the per-node specification states it: one NodeView each,
    on occupancies measured afresh from the counters."""
    unit, inc = scenario.quantization, scenario.system.inc
    occupancy = (np.floor(state.theta[inc.src] + params.lam).astype(np.int64)
                 - np.floor(state.theta[inc.dst]).astype(np.int64))
    measured = (unit * np.floor_divide(occupancy, unit)).astype(float)
    for view in node_views(scenario.system.topology, measured, params.beta_off,
                           params.q, nodes=np.flatnonzero(which)):
        state.correction[view.node - 1] = proportional_correction(view, params.k)


def test_batched_fire_matches_per_node_views_on_random_strong(monkeypatch):
    n = 24
    rng = np.random.default_rng(3)
    topology = generate_topology("random-strong", n, seed=5,
                                 extra_edge_fraction=0.4)
    params = make_system_params(topology, k=0.02,
                                omega_u=rng.uniform(0.98, 1.02, n), lam=10.0)
    system = prepare(topology, params, rng.uniform(0.0, 1.0, n))
    assert system.inc.max_in_degree() >= 8
    scenario = DiscreteScenario(system=system, capacity=40, quantization=2,
                                dt=0.2, horizon=60.0,
                                reframe=ReframeSchedule(mode="fixed-time", T1=30.0))
    batched = run_discrete(scenario)
    monkeypatch.setattr(framesim, "_fire_controllers", _per_node_fire)
    reference = run_discrete(scenario)
    assert not batched.aborted and batched.reframe_time is not None
    for name in ("times", "omega", "correction", "occupancy"):
        assert getattr(batched, name).tobytes() == getattr(reference, name).tobytes()
    assert ((batched.mode, batched.faults, batched.reframe_time, batched.aborted)
            == (reference.mode, reference.faults, reference.reframe_time,
                reference.aborted))


def _advisories(scenario):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_discrete(scenario)
    return [str(w.message) for w in caught
            if "capacity" not in str(w.message)
            and "never fired" not in str(w.message)]


def _config_scenario(name, horizon):
    cfg = parse_config(CONFIG_DIR / name)
    return replace(cfg.discrete_scenario(cfg.system()), horizon=horizon)


def test_sampled_loop_advisory_names_the_first_node_that_can_stop():
    # eight_node: node 5 has in-degree 7 at k = 0.2, so a one-frame swing on
    # each in-edge moves its correction by 1.4 > omega_u = 1.00, and the
    # period 1 exceeds the hold limit 1/(0.2 * 7)
    messages = _advisories(_config_scenario("eight_node.json", horizon=5.0))
    assert len(messages) == 2
    assert messages[0].startswith("node 5: k * in-degree * quantization = 1.4")
    assert "zero-order-hold limit 1/(k * max in-degree) = 0.714" in messages[1]
    # quantization 2 alone: 0.5 * 1 * 2 reaches node 1's omega_u = 1.00, and
    # the period 1 is within the hold limit 1/(0.5 * 1) = 2
    scenario = replace(e1_discrete(k=0.5, T1=None, horizon=5.0), quantization=2)
    assert [m.split(":")[0] for m in _advisories(scenario)] == ["node 1"]


def test_sampled_loop_advisory_flags_a_period_beyond_the_hold_limit():
    scenario = replace(e1_discrete(T1=None, horizon=50.0), control_period=20.0)
    assert _advisories(scenario) == [
        "control period 20 exceeds the zero-order-hold limit "
        "1/(k * max in-degree) = 10"]


def test_sampled_loop_advisory_quiet_on_e1_and_the_discrete_ring():
    assert _advisories(_config_scenario("e1_discrete.json", horizon=5.0)) == []
    n = 16
    topology = generate_topology("bidirectional-ring", n)
    params = make_system_params(topology, k=0.05,
                                omega_u=np.linspace(0.99, 1.01, n), lam=10.0)
    scenario = DiscreteScenario(system=prepare(topology, params, 0.0),
                                capacity=20, dt=0.2, horizon=5.0)
    assert _advisories(scenario) == []


def test_unfired_auto_reframe_warns_with_epsilon_and_window():
    scenario = replace(e1_discrete(horizon=300.0),
                       reframe=ReframeSchedule(mode="auto"))
    with pytest.warns(UserWarning, match="never fired") as caught:
        trace = run_discrete(scenario)
    assert trace.reframe_time is None and not trace.aborted
    assert [str(w.message) for w in caught] == [
        "auto reframe never fired: epsilon = 1.02e-09, window = 100"]
    # the continuous auto run on the same topology fires and stays quiet
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cont = run(scenario.system, schedule=ReframeSchedule(mode="auto"))
    assert cont.reframe_time is not None
    assert not [w for w in caught if "never fired" in str(w.message)]
    # and warns in turn when its horizon ends inside the first window
    with pytest.warns(UserWarning, match="never fired"):
        run(scenario.system, schedule=ReframeSchedule(mode="auto"),
            settings=IntegratorSettings(horizon=5.0, post_horizon=5.0))


def test_unreached_fixed_T1_warns_in_discrete_mode():
    with pytest.warns(UserWarning) as caught:
        trace = run_discrete(e1_discrete(T1=600.0))
    assert trace.reframe_time is None and not trace.aborted
    assert [str(w.message) for w in caught] == [
        "fixed-time reframe never fired: node 1 has T1 = 600, past the last "
        "sample at t = 500"]
    # a T1 inside the run fires and stays quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_discrete(e1_discrete()).reframe_time is not None


def _per_step_run(scenario):
    """The discrete run loop as one Python iteration per step: a single-step
    `discrete_step`, then `OneShotReset.record_rows`, `firing` and
    `freeze`.  The reference for `run_discrete`, which advances a block of
    steps at a time.
    An auto schedule is decided by `window_trigger`, the search of the
    window, on the history up to each step.  Also counts the steps that end
    an advance of that loop: a step on which the schedule fired, a fault
    ended the run or the run ended; the `block_steps`-th step since the
    last such step; and a step on which a controller fired that left a
    clock not advancing."""
    inc, params = scenario.system.inc, scenario.system.params
    dt = scenario.step_size()
    # block_steps as the run reads it, without caching the property here
    block_steps = max(framesim.BLOCK_ENTRIES // max(inc.n, inc.m), 1)
    reset = OneShotReset(scenario.reframe, params, inc,
                         default_T1=scenario.horizon / 2.0, width=inc.m)
    state = init_discrete(scenario)
    aborted, events, taken = False, 0, 0
    reset.record_rows([state.t], state.correction, state.measured)
    steps = int(math.ceil(scenario.horizon / dt - 1e-9))

    def advancing():
        return ((params.omega_u + state.correction) * dt).min() > 0

    for step in range(steps):
        next_fire = state.next_fire.copy()
        try:
            state = discrete_step(state, scenario, params, dt)
        except DiscreteFault:
            aborted = True
            events += 1
            break
        fired = not np.array_equal(next_fire, state.next_fire)
        reset.record_rows([state.t], state.correction, state.measured)
        if reset.pending and reset.detector is not None:
            history, detector = reset.history, reset.detector
            firing = (~reset.done if window_trigger(
                history.times, history.corrections, detector.epsilon,
                detector.window) else None)
        else:
            firing = reset.firing(state.t)
        if firing is not None:
            params = replace(params, q=reset.freeze(params.q, firing))
            framesim._fire_controllers(state, scenario, params, firing)
            state.virtual = reset.time is None
            reset.record_rows([state.t], state.correction, state.measured)
        taken += 1
        if (firing is not None or step == steps - 1 or taken == block_steps
                or fired and not advancing()):
            events += 1
            taken = 0
    if not aborted:
        reset.finish()
    history = reset.history
    trace = DiscreteTrace(times=history.times, correction=history.corrections,
                          occupancy=history.rows, omega_u=params.omega_u,
                          mode=reset.modes, faults=list(state.faults),
                          reframe_time=reset.time, aborted=aborted)
    return trace, events


@st.composite
def small_scenarios(draw):
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        topology = generate_topology("bidirectional-ring", n)
    else:
        topology = generate_topology("random-strong", n,
                                     seed=draw(st.integers(0, 1000)),
                                     extra_edge_fraction=0.3)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    identical = draw(st.booleans())
    omega_u = 1.0 if identical else rng.uniform(0.98, 1.02, n)
    k = draw(st.sampled_from([0.0, 0.05, 0.1, 0.3, 1.5]))
    lam = draw(st.sampled_from([10.0, 2.5, 0.5]))
    theta0 = rng.uniform(-1.0, 1.0, n) if draw(st.booleans()) else 0.0
    params = make_system_params(topology, k=k, omega_u=omega_u, lam=lam)
    schedule = draw(st.sampled_from(["none", "fixed", "per-node", "auto"]))
    horizon = draw(st.sampled_from([10.0, 25.0, 40.0]))
    reframe = {
        "none": None,
        "fixed": ReframeSchedule(mode="fixed-time",
                                 T1=draw(st.sampled_from([0.0, 4.9, 10.0]))),
        "per-node": ReframeSchedule(mode="fixed-time",
                                    T1=rng.uniform(0.0, horizon, n).round(1)),
        "auto": ReframeSchedule(mode="auto",
                                epsilon=draw(st.sampled_from([1e-9, 0.05, 1.0])),
                                window=draw(st.sampled_from([0.5, 2.0, 7.3]))),
    }[schedule]
    return DiscreteScenario(
        system=prepare(topology, params, theta0),
        capacity=draw(st.sampled_from([1, 3, 12, 40])),
        control_period=draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])),
        quantization=draw(st.integers(1, 2)),
        dt=draw(st.sampled_from([None, 0.2, 0.05])),
        horizon=horizon, reframe=reframe,
        continue_on_fault=draw(st.booleans()))


@settings(max_examples=120, deadline=None)
@given(scenario=small_scenarios(), capped=st.booleans())
def test_block_loop_matches_the_per_step_loop_bit_for_bit(scenario, capped):
    # each advance runs from one event to the next, so the loop advances
    # once per event step, and every row is the per-step loop's, bit for bit;
    # with blocks capped at two steps there are more advances, same rows
    advances = []
    step = framesim.discrete_step

    def counted(*args, **kwargs):
        advances.append(1)
        return step(*args, **kwargs)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reference, events = _per_step_run(scenario)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(framesim, "discrete_step", counted)
            if capped:
                inc = scenario.system.inc
                patch.setattr(framesim, "BLOCK_ENTRIES", 2 * max(inc.n, inc.m))
            trace = run_discrete(scenario)
    for name in ("times", "correction", "occupancy", "omega"):
        np.testing.assert_array_equal(getattr(trace, name),
                                      getattr(reference, name))
    assert trace.mode == reference.mode
    assert trace.faults == reference.faults
    assert trace.reframe_time == reference.reframe_time
    assert trace.aborted == reference.aborted
    assert len(advances) >= events if capped else len(advances) == events


def test_fixed_time_cut_is_asked_once_per_advance(monkeypatch):
    # a fixed-time schedule reads no corrections: each advance resolves its
    # cut before the loop, not at each of e1's 290 pre-reframe fires, and
    # the advance still ends on the reframe row
    cfg = parse_config(CONFIG_DIR / "e1_discrete.json")
    scenario = cfg.discrete_scenario(cfg.system())
    cuts, pending = [], []
    cut, step = OneShotReset.cut, framesim.discrete_step

    def counted_cut(self, *args):
        cuts.append(cut(self, *args))
        return cuts[-1]

    def counted_step(state, scenario, params, dt, steps=1, reset=None):
        pending.append(reset is not None)
        return step(state, scenario, params, dt, steps, reset)

    monkeypatch.setattr(OneShotReset, "cut", counted_cut)
    monkeypatch.setattr(framesim, "discrete_step", counted_step)
    trace = run_discrete(scenario)
    assert len(cuts) == sum(pending) == 1
    # row 0 is the initial state, so the advance's last row is the first
    # step time past T1 = 250, the reframe instant
    assert trace.times[cuts[0]] == trace.reframe_time
    assert trace.times[cuts[0] - 1] < 250.0 <= trace.reframe_time
