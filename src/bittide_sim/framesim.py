"""Frame-accurate discrete mode.

The physics stays continuous underneath (phases advance at omega), but the
controller only ever sees integer frame counters: a buffer's occupancy is the
difference of its write and read pointers, which track whole frames.  Each
node re-evaluates its control law only when its own clock crosses a control
period boundary, and holds the correction in between.

Until every node has reframed the buffers are virtual (counters may range
freely, since boot-time frames carry no data); after that they are physical
and any occupancy outside [0, capacity] is a detected fault, never a silent
wrap.
"""

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .controller import OneShotReset, ReframeSchedule, proportional_corrections
from .dynamics import System, stability_bound
from .spectral import predict_beta_ss


@dataclass(frozen=True)
class Fault:
    edge: int          # 1-indexed, config order
    t: float
    # "overflow" | "underflow", or the broken counter invariant:
    # "pointer-monotonicity" | "frame-conservation"
    direction: str
    occupancy: int


class DiscreteFault(RuntimeError):
    """A recorded fault that ends the run: a physical buffer left
    [0, capacity], or the frame counters broke an invariant."""

    def __init__(self, fault: Fault):
        self.fault = fault
        super().__init__(
            f"edge {fault.edge} {fault.direction} at t = {fault.t:.6g} "
            f"(occupancy {fault.occupancy})")


@dataclass(frozen=True)
class DiscreteScenario:
    """Discrete-mode configuration; k = 0 models a disabled controller."""

    system: System
    capacity: int
    control_period: float = 1.0    # local clock cycles between controller updates
    quantization: int = 1          # measurement granularity in frames
    dt: float | None = None        # None: 1 / (4 max omega)
    horizon: float = 100.0
    reframe: ReframeSchedule | None = None
    continue_on_fault: bool = False

    def __post_init__(self):
        if self.control_period < 1.0:
            raise ValueError("control period must be at least one clock cycle")
        if self.capacity < 1:
            raise ValueError("capacity must be a positive frame count")
        if self.quantization < 1:
            raise ValueError("quantization unit must be at least one frame")

    @cached_property
    def source_origin(self) -> tuple[np.ndarray, np.ndarray]:
        """floor(lambda + theta0) and floor(theta0) at each edge's source:
        the write pointer and the source clock's whole cycles at t = 0."""
        src, theta0 = self.system.inc.src, self.system.theta0
        return (np.floor(self.system.params.lam + theta0[src]).astype(np.int64),
                np.floor(theta0[src]).astype(np.int64))

    def step_size(self) -> float:
        bound = 1.0 / (4.0 * float(self.system.params.omega_u.max()))
        if self.dt is None:
            return bound
        if self.dt > bound:
            raise ValueError(
                f"dt = {self.dt} too coarse for frame counting; need dt <= "
                f"1/(4 max omega) = {bound}")
        return self.dt


@dataclass
class DiscreteState:
    t: float
    theta: np.ndarray
    correction: np.ndarray     # held per-node corrections (zero-order hold)
    next_fire: np.ndarray      # local phase of each node's next controller update
    write: np.ndarray          # int64 frame counters per edge
    read: np.ndarray
    measured: np.ndarray       # quantized occupancy; each step binds a new array
    virtual: bool
    faults: list = field(default_factory=list)

    def occupancy(self) -> np.ndarray:
        return self.write - self.read


@dataclass
class DiscreteTrace:
    times: np.ndarray
    omega: np.ndarray
    correction: np.ndarray
    occupancy: np.ndarray      # measured integer occupancies
    mode: list
    faults: list
    reframe_time: float | None = None
    aborted: bool = False


def _counters(inc, params, theta):
    # the write pointer leads the read pointer by the frames in flight on the
    # link, so occupancy = floor(theta_src + lambda) - floor(theta_dst)
    write = np.floor(theta[inc.src] + params.lam).astype(np.int64)
    read = np.floor(theta[inc.dst]).astype(np.int64)
    return write, read


def _check_invariant(state: DiscreteState, broken: np.ndarray,
                     occ: np.ndarray, t: float, invariant: str):
    """Record a fault on every edge in `broken` and abort the run; the
    counters mean nothing afterwards, so continue_on_fault does not apply."""
    if not np.count_nonzero(broken):
        return
    faults = [Fault(edge=int(e) + 1, t=t, direction=invariant,
                    occupancy=int(occ[e])) for e in np.flatnonzero(broken)]
    state.faults.extend(faults)
    raise DiscreteFault(faults[0])


def _quantize(occ: np.ndarray, unit: int) -> np.ndarray:
    return (unit * np.floor_divide(occ, unit)).astype(float)


def _fire_controllers(state: DiscreteState, scenario: DiscreteScenario,
                      params, which: np.ndarray):
    proportional_corrections(scenario.system.inc.in_blocks, state.measured,
                             params.beta_off, params.q, params.k, which,
                             state.correction)


def init_discrete(scenario: DiscreteScenario) -> DiscreteState:
    system = scenario.system
    theta0 = system.theta0
    write, read = _counters(system.inc, system.params, theta0)
    state = DiscreteState(t=0.0, theta=theta0,
                          correction=np.zeros(system.inc.n),
                          next_fire=theta0 + scenario.control_period,
                          write=write, read=read,
                          measured=_quantize(write - read, scenario.quantization),
                          virtual=True)
    _fire_controllers(state, scenario, system.params,
                      np.ones(system.inc.n, dtype=bool))
    return state


def discrete_step(state: DiscreteState, scenario: DiscreteScenario,
                  params, dt: float) -> DiscreteState:
    """Check, then advance the state in place: phases move at the held frequency,
    counters follow, physical bounds hold, controllers fire on their own clocks."""
    theta = state.theta + (params.omega_u + state.correction) * dt
    t = state.t + dt
    inc = scenario.system.inc
    write, read = _counters(inc, params, theta)

    # no frame is created or lost: pointers only advance, in lockstep with
    # whole cycles of the source and destination clocks
    occ = write - read
    _check_invariant(state, (write < state.write) | (read < state.read), occ,
                     t, "pointer-monotonicity")
    write0, cycles0 = scenario.source_origin
    emitted = write - write0
    source_cycles = np.floor(theta[inc.src]).astype(np.int64) - cycles0
    _check_invariant(state, np.abs(emitted - source_cycles) > 1, occ, t,
                     "frame-conservation")
    if not state.virtual:
        for e in np.flatnonzero((occ < 0) | (occ > scenario.capacity)):
            fault = Fault(edge=int(e) + 1, t=t,
                          direction="underflow" if occ[e] < 0 else "overflow",
                          occupancy=int(occ[e]))
            state.faults.append(fault)
            if not scenario.continue_on_fault:
                raise DiscreteFault(fault)

    state.t, state.theta, state.write, state.read = t, theta, write, read
    state.measured = _quantize(occ, scenario.quantization)
    due = theta >= state.next_fire - 1e-12
    if np.count_nonzero(due):
        _fire_controllers(state, scenario, params, due)
        while np.count_nonzero(due):
            state.next_fire[due] += scenario.control_period
            due = theta >= state.next_fire - 1e-12
    return state


def run_discrete(scenario: DiscreteScenario) -> DiscreteTrace:
    """Run the discrete scenario; a bound violation stops the run (and is
    reported) unless continue_on_fault is set, and a broken counter invariant
    always stops it."""
    inc, params = scenario.system.inc, scenario.system.params
    _capacity_advisory(scenario)
    _sampled_loop_advisory(scenario)

    dt = scenario.step_size()
    reset = OneShotReset(scenario.reframe, params, inc,
                         default_T1=scenario.horizon / 2.0)
    history = reset.history
    state = init_discrete(scenario)
    omegas, occs, modes = [], [], []
    aborted = False

    def record(st: DiscreteState):
        history.append(st.t, st.correction)
        omegas.append(params.omega_u + st.correction)
        occs.append(st.measured)
        modes.append(reset.mode)

    record(state)
    steps = int(math.ceil(scenario.horizon / dt - 1e-9))
    for _ in range(steps):
        try:
            state = discrete_step(state, scenario, params, dt)
        except DiscreteFault:
            # the fault is in state.faults, and the step left the state as
            # it was: the last good sample stays the final trace row
            aborted = True
            break
        record(state)
        firing = reset.firing(state.t)
        if firing is not None:
            # the row above is the pre-mode row at the reframe instant; the
            # buffers turn physical once every node has reframed
            params = replace(params, q=reset.freeze(params.q, firing))
            _fire_controllers(state, scenario, params, firing)
            state.virtual = reset.time is None
            record(state)

    if not aborted:
        reset.finish()
    return DiscreteTrace(times=history.times.copy(), omega=np.vstack(omegas),
                         correction=history.corrections.copy(),
                         occupancy=np.vstack(occs),
                         mode=modes, faults=list(state.faults),
                         reframe_time=reset.time, aborted=aborted)


def _capacity_advisory(scenario: DiscreteScenario):
    system = scenario.system
    if system.sd is None:  # k = 0: no closed loop, no predicted swing
        return
    swing = float(np.abs(predict_beta_ss(system.sd, system.clm, system.params)
                         - system.params.beta_off).max())
    if scenario.capacity < 2.0 * swing:
        warnings.warn(
            f"capacity {scenario.capacity} is below twice the predicted "
            f"occupancy swing {swing:.3g}; overflow likely", stacklevel=3)


def _sampled_loop_advisory(scenario: DiscreteScenario):
    """Warn if a one-quantum swing on every in-edge can stop a clock, or the
    control period exceeds the zero-order-hold limit."""
    inc, params = scenario.system.inc, scenario.system.params
    swing = params.k * np.bincount(inc.dst, minlength=inc.n) * scenario.quantization
    for i in np.flatnonzero(swing >= params.omega_u)[:1]:
        warnings.warn(f"node {i + 1}: k * in-degree * quantization = {swing[i]:.3g}"
                      f" >= omega_u = {params.omega_u[i]:.3g}; its clock can stop",
                      stacklevel=3)
    if scenario.control_period > (limit := stability_bound(inc, params.k)):
        warnings.warn(f"control period {scenario.control_period:g} exceeds the "
                      f"zero-order-hold limit 1/(k * max in-degree) = {limit:.3g}",
                      stacklevel=3)


def fault_report(trace: DiscreteTrace) -> list:
    """First fault per affected edge, ordered by time then edge.

    Empty exactly when the run respected the physical bounds (virtual-mode
    samples are never policed)."""
    first: dict[int, Fault] = {}
    for f in sorted(trace.faults, key=lambda f: (f.t, f.edge)):
        first.setdefault(f.edge, f)
    return sorted(first.values(), key=lambda f: (f.t, f.edge))
