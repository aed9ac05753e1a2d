import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bittide_sim import (IntegratorSettings, ReframeSchedule, Topology,
                         generate_topology, make_system_params, node_views,
                         prepare, proportional_correction, run)
from bittide_sim import controller, framesim
from bittide_sim.config import parse_config
from bittide_sim.framesim import (DiscreteFault, DiscreteScenario, Fault,
                                  discrete_step, fault_report, init_discrete,
                                  run_discrete)

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
    np.testing.assert_array_equal(state.occupancy(), [10, 10])
    assert state.virtual


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
    # consecutive trigger calls see views of one growing buffer; only the
    # few doublings of that buffer move it, so no step copies the history
    calls = []
    original = controller.auto_reframe_trigger

    def recording(times, corrections, epsilon, window):
        calls.append((times, corrections))
        return original(times, corrections, epsilon, window)

    monkeypatch.setattr(controller, "auto_reframe_trigger", recording)
    scenario = replace(e1_discrete(horizon=100.0),
                       reframe=ReframeSchedule(mode="auto"))
    run_discrete(scenario)
    assert len(calls) > 400
    moved = [i for i in range(1, len(calls))
             if not (np.shares_memory(calls[i - 1][0], calls[i][0])
                     and np.shares_memory(calls[i - 1][1], calls[i][1]))]
    assert len(moved) <= int(np.log2(len(calls))) + 1


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

    def ahead(inc, params, theta):
        write, read = counters(inc, params, theta)
        return write + 3, read

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
    assert trace.faults == [Fault(edge=2, t=24.999999999999943,
                                  direction="overflow", occupancy=2)]
    assert trace.times[-1] == 24.799999999999944
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
    assert trace.times[-1] == 2.4 and trace.mode[-1] == "pre-reframe"
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

        def ahead(inc, params, theta):    # write pointers 3 frames early
            write, read = counters(inc, params, theta)
            return write + 3, read

        monkeypatch.setattr(framesim, "_counters", ahead)
    fields = ("t", "theta", "correction", "next_fire", "write", "read",
              "measured")
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


def _per_node_fire(state, scenario, params, which):
    """The law as the per-node specification states it: one NodeView each,
    on occupancies measured afresh from the counters."""
    unit = scenario.quantization
    measured = (unit * np.floor_divide(state.write - state.read, unit)).astype(float)
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
