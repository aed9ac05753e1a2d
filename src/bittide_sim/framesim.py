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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .controller import OneShotReset, ReframeSchedule, proportional_corrections
from .dynamics import System, stability_bound
from .spectral import predict_beta_ss


# entries in one row-block array of an advance (see
# DiscreteScenario.block_steps): a long run or a large topology takes more
# advances, not more memory.  The check arrays are built once per scenario,
# but at 2**14 entries an array is just past glibc's 128 KiB mmap
# threshold, and the one-pass peak RSS of the 16-node ring rose by up to
# 1.3 MB with the seed
BLOCK_ENTRIES = 1 << 13


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
        if not 1.0 <= self.control_period < math.inf:
            raise ValueError(f"control period must be finite and at least one "
                             f"clock cycle, got {self.control_period}")
        if self.capacity < 1:
            raise ValueError("capacity must be a positive frame count")
        if not 1 <= self.quantization < 2**52:
            raise ValueError(f"quantization must be at least one frame and "
                             f"below 2**52 frames, got {self.quantization}")
        params = self.system.params
        for name, x, bits in (
                # at 2**52 a frame moves no fraction of a phase
                ("theta0 entries", self.system.theta0, 52),
                ("lambda entries", params.lam, 52),
                # at 2**53 a frame moves no relative occupancy
                ("beta_off entries", params.beta_off, 53),
                # the phase an offset moves its clock over the run; the
                # sample bound keeps omega_u's below 2**22
                (f"q entries times the horizon {self.horizon:.6g}",
                 params.q * self.horizon, 52)):
            if np.count_nonzero(np.abs(x) >= 2.0**bits):
                raise ValueError(f"{name} must be below 2**{bits} in "
                                 "magnitude to count frames")
        if self.dt is not None and not 0 < self.dt <= self._dt_bound:
            raise ValueError(
                f"dt = {self.dt} must be positive and fine enough for frame "
                f"counting: dt <= 1/(4 max omega) = {self._dt_bound}")

    @cached_property
    def source_lead(self) -> np.ndarray:
        """floor(lambda + theta0) - floor(theta0) at each edge's source, as
        one (1, m) row: the frames a write pointer leads its source clock's
        whole cycles at t = 0."""
        src, theta0 = self.system.inc.src, self.system.theta0
        return (np.floor(self.system.params.lam + theta0[src])
                - np.floor(theta0[src])).astype(np.int64)[None]

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """(index, lead), each (2, m): a phase row's `take` at the index
        gives each edge's source phase over its destination phase, and
        adding the lead, lambda over 0, then flooring, its write pointer
        over its read pointer, as `_counters` forms them."""
        inc, lam = self.system.inc, self.system.params.lam
        return (np.stack([inc.src, inc.dst]),
                np.stack([lam, np.zeros_like(lam)]))

    @cached_property
    def check_arrays(self) -> tuple[np.ndarray, ...]:
        """The arrays the check pass of an advance forms its values in,
        built once and sized for block_steps steps: the gathered phases
        (steps + 1, 2, m), the occupancies (steps + 1, m) of int64, and the
        backward, created and bad masks (3, steps, m)."""
        steps, m = self.block_steps, self.system.inc.m
        return (np.empty((steps + 1, 2, m)),
                np.empty((steps + 1, m), dtype=np.int64),
                np.empty((3, steps, m), dtype=bool))

    @cached_property
    def block_steps(self) -> int:
        """The most steps one advance takes: its arrays hold (steps + 1)
        rows of at most max(n, m) entries, kept near BLOCK_ENTRIES each."""
        inc = self.system.inc
        return max(BLOCK_ENTRIES // max(inc.n, inc.m), 1)

    @property
    def step_count(self) -> float:
        """horizon / dt - 1e-9, whose ceiling is a run's step count; it is
        inf when the quotient overflows, so bound it before the ceiling."""
        return self.horizon / self.step_size() - 1e-9

    @property
    def _dt_bound(self) -> float:
        return 1.0 / (4.0 * float(self.system.params.omega_u.max()))

    def step_size(self) -> float:
        return self._dt_bound if self.dt is None else self.dt


@dataclass
class DiscreteState:
    t: float
    theta: np.ndarray
    correction: np.ndarray     # held per-node corrections (zero-order hold)
    next_fire: np.ndarray      # local phase of each node's next controller update
    due_at: np.ndarray         # next_fire - 1e-12, where a node's phase makes it due
    measured: np.ndarray       # quantized occupancy; each step binds a new array
    virtual: bool
    steps: int = 0             # the steps taken: step j ends at t = j dt
    faults: list = field(default_factory=list)
    # the rows the last advance moved through, one per step: their times,
    # corrections and measured occupancies (the last row is the state's)
    times: list = field(default_factory=list)
    correction_rows: np.ndarray | None = None
    measured_rows: np.ndarray | None = None


@dataclass
class DiscreteTrace:
    """Time-indexed record of a discrete run: each sample's held correction
    and measured occupancy; omega = omega_u + c is derived."""

    times: np.ndarray
    correction: np.ndarray
    occupancy: np.ndarray      # measured integer occupancies
    omega_u: np.ndarray
    mode: list
    faults: list
    reframe_time: float | None = None
    aborted: bool = False

    @property
    def m(self) -> int:
        return self.occupancy.shape[1]

    @property
    def omega(self) -> np.ndarray:
        return self.omega_u + self.correction

    def rows(self, rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(omega, correction, occupancy) of the rows in the slice."""
        c = self.correction[rows]
        return self.omega_u + c, c, self.occupancy[rows]


def _counters(params, theta_src, theta_dst):
    # the write pointer leads the read pointer by the frames in flight on the
    # link, so occupancy = floor(theta_src + lambda) - floor(theta_dst)
    write = np.floor(theta_src + params.lam).astype(np.int64)
    read = np.floor(theta_dst).astype(np.int64)
    return write, read


def _row_faults(state: DiscreteState, scenario, backward: np.ndarray,
                created: np.ndarray, occ: np.ndarray, t: float):
    """Record the faults of one row that failed a check, and return the
    error that ends the run, or None.  A broken counter invariant ends it on
    every broken edge (the counters mean nothing afterwards, so
    continue_on_fault does not apply); a bound ends it on the first edge
    unless continue_on_fault is set."""
    for broken, invariant in ((backward, "pointer-monotonicity"),
                              (created, "frame-conservation")):
        if np.count_nonzero(broken):
            faults = [Fault(edge=int(e) + 1, t=t, direction=invariant,
                            occupancy=int(occ[e]))
                      for e in np.flatnonzero(broken)]
            state.faults.extend(faults)
            return DiscreteFault(faults[0])
    for e in np.flatnonzero((occ < 0) | (occ > scenario.capacity)):
        fault = Fault(edge=int(e) + 1, t=t,
                      direction="underflow" if occ[e] < 0 else "overflow",
                      occupancy=int(occ[e]))
        state.faults.append(fault)
        if not scenario.continue_on_fault:
            return DiscreteFault(fault)
    return None


def _quantize(occ: np.ndarray, unit: int) -> np.ndarray:
    occ = np.floor_divide(occ, unit)
    occ *= unit
    return occ.astype(float)


def _measured(row: np.ndarray, ends, unit: int) -> np.ndarray:
    """The quantized occupancy of one phase row from the scenario's `ends`:
    one take, one floor and one subtraction, and bit for bit
    `_quantize(write - read, unit)` of `_counters`."""
    index, lead = ends
    counts = row.take(index)
    counts += lead
    counts = np.floor(counts, out=counts).astype(np.int64)
    return _quantize(counts[0] - counts[1], unit)


def _fire_controllers(state: DiscreteState, scenario: DiscreteScenario,
                      params, which: np.ndarray):
    proportional_corrections(scenario.system.inc.in_blocks, state.measured,
                             params.beta_off, params.q, params.k, which,
                             state.correction)


def init_discrete(scenario: DiscreteScenario) -> DiscreteState:
    system = scenario.system
    theta0, inc = system.theta0, system.inc
    write, read = _counters(system.params, theta0[inc.src], theta0[inc.dst])
    next_fire = theta0 + scenario.control_period
    state = DiscreteState(t=0.0, theta=theta0,
                          correction=np.zeros(system.inc.n),
                          next_fire=next_fire, due_at=next_fire - 1e-12,
                          measured=_quantize(write - read, scenario.quantization),
                          virtual=True)
    _fire_controllers(state, scenario, system.params,
                      np.ones(system.inc.n, dtype=bool))
    return state


def _next_fire(next_fire, due_at, due, theta, period, slack):
    """Move each due node's next fire phase on in place by whole control
    periods past its phase theta.  due_at is next_fire - slack (1e-12) at
    every node, so it is formed again for all of them: where next_fire did
    not move, the bits do not either."""
    while True:
        np.copyto(next_fire, next_fire + period, where=due)
        np.subtract(next_fire, slack, out=due_at)
        due = theta >= due_at
        if not np.count_nonzero(due):
            return


def discrete_step(state: DiscreteState, scenario: DiscreteScenario,
                  params, dt: float, steps: int = 1,
                  reset: OneShotReset | None = None) -> DiscreteState:
    """Advance the state in place through at most `steps` steps of dt and
    return it: phases move at the held frequency, counters follow, physical
    bounds hold, controllers fire on their own clocks.

    Step j of the run is stamped j dt, so an on-grid T1 is reached on its
    own step.  Each step adds the phase increment (omega_u + c) dt to the
    last row, or accumulates it across the steps up to the next fire phase
    (row j of that gap equals j single steps bit for bit), and tests which
    nodes are due; on a row where some are, that row's quantized occupancy
    (`_measured`) feeds the batched law and the increment changes.  The
    advance runs through these fires for at most `scenario.block_steps`
    steps, and ends on a fire that leaves a clock not advancing.  A pending
    `reset` may end it sooner, at the first row where its schedule fires.
    A fixed-time schedule reads no corrections, so its `cut` of the step
    times caps the steps before the loop.  The auto trigger's is asked
    before each fire, and at the end, on the rows that held the correction
    since the last fire (the advance's last row is left to its `firing`),
    and the advance stops before it forms a fire past the row where it
    ends.

    The counters, the checks and the quantized occupancies are then formed
    once over all the rows, in the scenario's `check_arrays`.  A row that
    fails a check that ends the run leaves the state on the row before it,
    with the fires up to that row and none after it, as if the steps had
    been taken one at a time; a bound fault under continue_on_fault is
    recorded and the row still fires.  `times`, `correction_rows` and
    `measured_rows` give the rows."""
    inc, ends = scenario.system.inc, scenario.ends
    n, omega_u = inc.n, params.omega_u
    c, due_at, next_fire = state.correction, state.due_at, state.next_fire
    # a fire's scalars as rows, which a ufunc takes faster than a float
    period, slack, dt_row, k = np.full(
        (4, n), [[scenario.control_period], [1e-12], [dt], [params.k]])
    rate = (omega_u + c) * dt_row
    steps = min(steps, scenario.block_steps)
    times = [j * dt for j in range(state.steps + 1, state.steps + steps + 1)]
    if reset is not None and reset.detector is None:
        # the advance ends on the row that reaches the next T1, if it has one
        steps = reset.cut(times, None, 0, steps) or steps
        del times[steps:]
        reset = None
    theta = np.empty((steps + 1, n))
    theta[0] = row = state.theta
    corrections = np.empty((steps, n))
    in_blocks, unit = inc.in_blocks, scenario.quantization
    beta_off, q = params.beta_off, params.q
    count_nonzero = np.count_nonzero
    fired = []          # (row, due nodes) of each row that fires on the way
    rows = held = 0     # rows taken; the first row that holds c
    asked = 0           # the first correction row the reset has not read
    gap, due, cut = 1, None, None
    while rows < steps:
        if gap == 1:
            rows += 1
            row = np.add(row, rate, out=theta[rows])
            due = row >= due_at
            if not count_nonzero(due):
                due = None
        else:
            block = theta[rows:rows + gap + 1]
            block[1:] = rate
            np.add.accumulate(block, out=block)
            dues = block[1:] >= due_at
            first = int(dues.argmax())      # the first true entry in row order
            if dues.item(first):
                first //= n
                rows += first + 1
                due = dues[first]
            else:
                rows += gap
                due = None
            row = theta[rows]
        if due is None:
            if rows < steps:
                # the steps up to the next fire phase, as one gap: a clock
                # that runs backward gives a negative count, so one step; a
                # stopped one, +inf (run_discrete ignores the division by
                # zero)
                to_fire = ((due_at - row) / rate).min()
                gap = (math.ceil(min(steps - rows, to_fire)) if to_fire > 1
                       else 1)
            continue
        corrections[held:rows] = c
        if reset is not None:
            # the rows before this one held c since the last fire
            cut = reset.cut(times, corrections, asked, rows - 1)
            if cut is not None:
                break
            asked = rows - 1
        c, held = corrections[rows - 1], rows
        proportional_corrections(in_blocks, _measured(row, ends, unit),
                                 beta_off, q, k, due, c)
        if not fired:   # the state's own phases stay for a rollback
            next_fire, due_at = next_fire.copy(), due_at.copy()
        fired.append((rows, due))
        _next_fire(next_fire, due_at, due, row, period, slack)
        np.add(omega_u, c, out=rate)
        np.multiply(rate, dt_row, out=rate)
        if not rate.item(rate.argmin()) > 0:   # a NaN is the least
            break
        gap = 1
    corrections[held:rows] = c
    whole = rows        # the rows the state may end on, before any cut
    if reset is not None and cut is None:
        cut = reset.cut(times, corrections, asked, rows - 1)
    if cut is not None:
        rows = cut
    del times[rows:]

    # row 0 gives the state's own counters again, to compare the first step
    phases, occ, masks = scenario.check_arrays
    # the indices are in range; mode "raise" would fill out through a copy
    phases = np.take(theta[:rows + 1], ends[0], axis=1, mode="clip",
                     out=phases[:rows + 1])
    write, read = _counters(params, phases[:, 0], phases[:, 1])
    occ = np.subtract(write, read, out=occ[:rows + 1])
    # no frame is created or lost: pointers only advance, in lockstep with
    # whole cycles of the source and destination clocks
    write1, read1, occ1 = write[1:], read[1:], occ[1:]
    backward, created, bad = masks[:, :rows]
    np.less(write1, write[:-1], out=backward)
    backward |= np.less(read1, read[:-1], out=bad)
    cycles = read1      # the source clocks' whole cycles, where read was
    np.copyto(cycles, np.floor(phases[1:, 0], out=phases[1:, 0]),
              casting="unsafe")
    np.subtract(write1, cycles, out=cycles)
    cycles -= scenario.source_lead
    np.greater(np.abs(cycles, out=cycles), 1, out=created)
    np.logical_or(backward, created, out=bad)
    if not state.virtual:
        # outside [0, capacity]: a negative count reads as a huge unsigned one
        bad |= np.greater(occ1.view(np.uint64), scenario.capacity)
    fatal = None
    if np.count_nonzero(bad):
        for r in np.flatnonzero(bad.any(axis=1)).tolist():
            fatal = _row_faults(state, scenario, backward[r], created[r],
                                occ[r + 1], times[r])
            if fatal is not None:
                rows = r        # the state stays on the last good row
                del times[r:]
                break

    state.times = times
    state.correction_rows = corrections[:rows]
    state.measured_rows = _quantize(occ1[:rows], unit)
    if not rows:
        raise fatal
    state.t, state.theta = times[-1], theta[rows]
    state.steps += rows
    state.measured = state.measured_rows[-1]
    if rows == whole:
        state.next_fire, state.due_at = next_fire, due_at
    else:
        # the fires up to the row the state ends on move the next fire
        # phases again
        for row, fires in fired:
            if row > rows:
                break
            _next_fire(state.next_fire, state.due_at, fires, theta[row],
                       period, slack)
    state.correction = corrections[rows - 1]
    if fatal is not None:
        raise fatal
    return state


def run_discrete(scenario: DiscreteScenario) -> DiscreteTrace:
    """Run the discrete scenario; a bound violation stops the run (and is
    reported) unless continue_on_fault is set, and a broken counter invariant
    always stops it.

    The reset's `drive` runs the loop, and each advance is one
    `discrete_step`: a block of steps through controller fires, cut short
    where the reset's schedule fires."""
    inc, params = scenario.system.inc, scenario.system.params
    _capacity_advisory(scenario)
    _sampled_loop_advisory(scenario)

    dt = scenario.step_size()
    steps = math.ceil(scenario.step_count)
    reset = OneShotReset(scenario.reframe, params, inc,
                         default_T1=scenario.horizon / 2.0, width=inc.m,
                         samples=steps + 1)
    state = init_discrete(scenario)

    def advance(params, firing):
        if firing is not None:
            # the buffers turn physical once every node has reframed
            _fire_controllers(state, scenario, params, firing)
            state.virtual = reset.time is None
        if firing is not None or not len(reset.history):
            # the run's first row or a post row, recorded here: a pending
            # auto trigger reads it in the history
            reset.record_rows([state.t], state.correction, state.measured)
        if state.steps == steps:
            return None
        try:
            discrete_step(state, scenario, params, dt, steps - state.steps,
                          reset if reset.pending else None)
        except DiscreteFault:
            # the rows before the failing step are the last good samples:
            # the last is the final trace row
            reset.record_rows(state.times, state.correction_rows,
                              state.measured_rows)
            raise
        return state.times, state.correction_rows, state.measured_rows

    aborted = False
    with np.errstate(divide="ignore"):    # see discrete_step's count
        try:
            reset.drive(params, advance)
        except DiscreteFault:   # in state.faults
            aborted = True
    history = reset.history
    return DiscreteTrace(times=history.times, correction=history.corrections,
                         occupancy=history.rows, omega_u=params.omega_u,
                         mode=reset.modes, faults=list(state.faults),
                         reframe_time=reset.time, aborted=aborted)


def _capacity_advisory(scenario: DiscreteScenario):
    system = scenario.system
    # k = 0: no closed loop, no predicted swing; m = 0: no buffer to overflow
    if system.sd is None or system.inc.m == 0:
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
