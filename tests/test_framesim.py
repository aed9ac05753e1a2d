from dataclasses import replace

import numpy as np
import pytest

from bittide_sim import (IntegratorSettings, ReframeSchedule, Topology,
                         make_system_params, prepare, run)
from bittide_sim import framesim
from bittide_sim.framesim import (DiscreteScenario, fault_report, init_discrete,
                                  run_discrete)


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


def test_auto_trigger_reads_history_without_copy(monkeypatch):
    # consecutive trigger calls see views of one growing buffer; only the
    # few doublings of that buffer move it, so no step copies the history
    calls = []
    original = framesim.auto_reframe_trigger

    def recording(times, corrections, epsilon, window):
        calls.append((times, corrections))
        return original(times, corrections, epsilon, window)

    monkeypatch.setattr(framesim, "auto_reframe_trigger", recording)
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
