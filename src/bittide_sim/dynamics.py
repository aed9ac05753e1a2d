"""Continuous-time closed-loop integration.

Between controller mode switches the system is linear time-invariant, so the
default integrator advances the affine flow exactly: one n x n matrix
exponential, with the drift's integral in closed form from the group inverse.
Fixed-step rk4/euler are kept to mimic discrete controller hardware; they
carry an explicit stability bound on dt.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .controller import PRE_REFRAME, OneShotReset, ReframeSchedule
from .graph import (IncidenceSet, Topology, TopologyError, build_incidence,
                    is_strongly_connected)
from .spectral import (ClosedLoopMatrix, SpectralData, build_closed_loop,
                       matrix_exponential, metzler_eigenvector)


@dataclass(frozen=True)
class SystemParams:
    """Full parameterization of the closed loop.

    beta_off is None while tagged feasible-at-start; init_state materializes
    it as B^T theta0 + lambda, which puts the residual r in range(A).
    """

    k: float
    omega_u: np.ndarray
    lam: np.ndarray
    beta_off: np.ndarray | None = None
    q: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "omega_u", np.asarray(self.omega_u, dtype=float))
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        if self.beta_off is not None:
            object.__setattr__(self, "beta_off", np.asarray(self.beta_off, dtype=float))
        q = np.zeros_like(self.omega_u) if self.q is None else np.asarray(self.q, dtype=float)
        object.__setattr__(self, "q", q)
        # k == 0 is tolerated so the discrete mode can model a disabled
        # controller; the spectral layer insists on k > 0.
        if self.k < 0:
            raise ValueError(f"gain k must be nonnegative, got {self.k}")
        if np.any(self.omega_u <= 0):
            raise ValueError("uncontrolled frequencies must be positive (physical clocks)")
        if self.q.shape != self.omega_u.shape:
            raise ValueError("q and omega_u must have matching shapes")
        if self.beta_off is not None and self.beta_off.shape != self.lam.shape:
            raise ValueError("beta_off and lambda must have matching shapes")


def make_system_params(topology: Topology, k: float, omega_u,
                       lam=10.0, beta_off=None, q=0.0) -> SystemParams:
    """Broadcast scalars to the topology's node/edge counts."""
    n, m = topology.n, topology.m
    omega_u = np.broadcast_to(np.asarray(omega_u, dtype=float), (n,)).copy()
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (m,)).copy()
    if beta_off is not None:
        beta_off = np.broadcast_to(np.asarray(beta_off, dtype=float), (m,)).copy()
    q = np.broadcast_to(np.asarray(q, dtype=float), (n,)).copy()
    return SystemParams(k=k, omega_u=omega_u, lam=lam, beta_off=beta_off, q=q)


@dataclass(frozen=True)
class SimState:
    t: float
    theta: np.ndarray
    mode: str = PRE_REFRAME


@dataclass
class SimTrace:
    """Time-indexed record of the observable quantities.

    The reframe instant appears twice (same t, pre then post mode) so the
    correction discontinuity is visible in the trace.
    """

    times: np.ndarray
    theta: np.ndarray        # (T, n)
    omega: np.ndarray        # (T, n)
    correction: np.ndarray   # (T, n)
    occupancy: np.ndarray    # (T, m)
    mode: list = field(default_factory=list)
    reframe_time: float | None = None
    reframe_payload: np.ndarray | None = None

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class IntegratorSettings:
    method: str = "exact"              # exact | rk4 | euler
    dt: float | None = None            # substep for rk4/euler; defaults to the bound/8
    sample_interval: float | None = None
    horizon: float | None = None       # pre-reframe horizon; None = 50 e-folds
    post_horizon: float | None = None  # time simulated after the reframe; None = horizon


def feasible_offsets(src: np.ndarray, dst: np.ndarray, theta0: np.ndarray,
                     lam: np.ndarray) -> np.ndarray:
    """B^T theta0 + lambda, the offsets that are feasible at t = 0, from the
    0-indexed edge endpoints."""
    return theta0[src] - theta0[dst] + lam


def init_state(inc: IncidenceSet, params: SystemParams,
               theta0) -> tuple[SimState, SystemParams]:
    """Materialize feasible offsets at t = 0 and build the initial state.

    Returns the state together with params whose beta_off is now explicit.
    """
    theta0 = np.broadcast_to(np.asarray(theta0, dtype=float), (inc.n,)).copy()
    if params.beta_off is None:
        beta_off = feasible_offsets(inc.src, inc.dst, theta0, params.lam)
        params = replace(params, beta_off=beta_off)
    elif np.any(params.beta_off < 0):
        warnings.warn("explicit beta_off has negative entries; physically suspect",
                      stacklevel=2)
    return SimState(t=0.0, theta=theta0, mode=PRE_REFRAME), params


@dataclass(frozen=True)
class System:
    """One scenario's closed loop, built once by `prepare` and passed along.

    params carries the materialized beta_off and theta0 is broadcast to n
    nodes.  clm and sd are None for k == 0, a disabled controller that only
    the discrete mode can run.

    flow_ops, when set, keeps the exact flow operators of clm.A per span for
    every run of this closed loop.  A does not read q, so a system made by
    `replace(system, params=...)` shares them.  None gives each run its own
    operators, freed when the run returns.
    """

    topology: Topology
    inc: IncidenceSet
    params: SystemParams
    theta0: np.ndarray
    clm: ClosedLoopMatrix | None
    sd: SpectralData | None
    flow_ops: dict | None = field(default=None, compare=False, repr=False)


def prepare(topology: Topology, params: SystemParams, theta0=0.0) -> System:
    """Check strong connectivity, then build incidence, the initial offsets,
    the closed loop and its spectral data, once."""
    if not is_strongly_connected(topology):
        raise TopologyError("topology is not strongly connected")
    inc = build_incidence(topology)
    state, params = init_state(inc, params, theta0)
    clm = sd = None
    if params.k > 0:
        clm = build_closed_loop(inc, params)
        sd = metzler_eigenvector(clm)
    return System(topology=topology, inc=inc, params=params, theta0=state.theta,
                  clm=clm, sd=sd)


def _drift(clm: ClosedLoopMatrix, params: SystemParams) -> np.ndarray:
    return params.omega_u + params.q + clm.r


def _apply_A(A: np.ndarray, theta: np.ndarray) -> np.ndarray:
    # A annihilates constants; removing the mean phase avoids catastrophic
    # cancellation once theta has grown to t * consensus frequency
    return A @ (theta - theta.mean())


def observe(state: SimState, params: SystemParams,
            clm: ClosedLoopMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega, correction, occupancy) at the current state."""
    centered = state.theta - state.theta.mean()
    c = clm.A @ centered + params.q + clm.r
    beta = clm.inc.edge_diff(centered) + params.lam
    return params.omega_u + c, c, beta


def stability_bound(inc: IncidenceSet, k: float) -> float:
    """Explicit-method dt limit 1 / (k * max in-degree)."""
    deg = inc.max_in_degree()
    return float("inf") if k * deg == 0 else 1.0 / (k * deg)


def exact_flow_operators(clm: ClosedLoopMatrix, sd: SpectralData,
                         dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(e^{A dt}, integral_0^dt e^{As} ds).

    The integral is dt W + G (e^{A dt} - I): it vanishes at dt = 0, and its
    derivative W + G A e^{At} = W + (I - W) e^{At} is e^{At}, since AG = I - W
    and W e^{At} = W.
    """
    phi = matrix_exponential(clm, dt)
    return phi, dt * sd.W + sd.group_inverse @ (phi - np.eye(clm.n))


def step(state: SimState, params: SystemParams, clm: ClosedLoopMatrix,
         dt: float, method: str = "exact", sd: SpectralData | None = None,
         _ops: tuple | None = None) -> SimState:
    """Advance theta by dt under theta' = A theta + omega_u + q + r; the
    exact method uses the flow operators _ops, or builds them from sd."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    v = _drift(clm, params)
    theta = state.theta
    if method == "exact":
        if _ops is None and sd is None:
            raise ValueError("the exact method needs the spectral data sd")
        phi, integ = _ops if _ops is not None else exact_flow_operators(clm, sd, dt)
        new_theta = phi @ theta + integ @ v
    elif method in ("rk4", "euler"):
        bound = stability_bound(clm.inc, clm.k)
        if dt > bound:
            raise ValueError(
                f"dt = {dt} violates the explicit-method stability bound "
                f"1/(k * max in-degree) = {bound}")
        A = clm.A
        if method == "euler":
            new_theta = theta + dt * (_apply_A(A, theta) + v)
        else:
            k1 = _apply_A(A, theta) + v
            k2 = _apply_A(A, theta + 0.5 * dt * k1) + v
            k3 = _apply_A(A, theta + 0.5 * dt * k2) + v
            k4 = _apply_A(A, theta + dt * k3) + v
            new_theta = theta + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    else:
        raise ValueError(f"unknown integration method {method!r}")
    return SimState(t=state.t + dt, theta=new_theta, mode=state.mode)


class _Stepper:
    """Looks flow operators up per span in the system's `flow_ops` (or in
    its own dict), building each once; exact substeps equal the sample
    spacing."""

    def __init__(self, system: System, method: str, dt: float | None):
        self.clm, self.sd = system.clm, system.sd
        self.method = method
        self.sub_dt = dt
        self._ops = {} if system.flow_ops is None else system.flow_ops

    def advance(self, state: SimState, params: SystemParams, span: float) -> SimState:
        if span <= 0:
            return state
        if self.method == "exact":
            ops = self._ops.get(span)
            if ops is None:
                ops = exact_flow_operators(self.clm, self.sd, span)
                self._ops[span] = ops
            return step(state, params, self.clm, span, "exact", _ops=ops)
        sub = self.sub_dt or stability_bound(self.clm.inc, self.clm.k) / 8.0
        steps = max(1, int(np.ceil(span / sub - 1e-12)))
        h = span / steps
        for _ in range(steps):
            state = step(state, params, self.clm, h, self.method)
        return state


def run(system: System, *, schedule: ReframeSchedule | None = None,
        settings: IntegratorSettings = IntegratorSettings()) -> SimTrace:
    """Simulate the prepared system and sample the observables.

    schedule None runs the plain proportional controller for the whole
    horizon.  A fixed-time schedule freezes each node's correction into its
    q at that node's T1 (one time for all nodes, or one per node); an auto
    schedule freezes every node at once when the trigger sees a stable
    correction.  The run ends post_horizon after the last node has reframed,
    or at horizon + post_horizon if some node has not reframed by then.
    Per-node times are an experiment: distributed nodes cannot share a common
    T1, so no convergence guarantee is claimed or checked for them.
    """
    if system.sd is None:
        raise ValueError(
            f"gain k must be positive for the closed loop, got {system.params.k}")
    inc, params, clm = system.inc, system.params, system.clm

    horizon = settings.horizon if settings.horizon is not None else system.sd.horizon()
    post_horizon = settings.post_horizon if settings.post_horizon is not None else horizon
    sample_dt = settings.sample_interval or horizon / 200.0

    reset = OneShotReset(schedule, params, inc, default_T1=horizon)
    history = reset.history
    stepper = _Stepper(system, settings.method, settings.dt)
    thetas, omegas, betas, modes = [], [], [], []
    t_end = horizon + (post_horizon if schedule is not None else 0.0)

    def record(st: SimState):
        om, c, beta = observe(st, params, clm)
        history.append(st.t, c)
        thetas.append(st.theta.copy())
        omegas.append(om)
        betas.append(beta)
        modes.append(reset.mode)

    state = SimState(t=0.0, theta=system.theta0)
    record(state)
    while state.t < t_end - 1e-12:
        t_next = min(state.t + sample_dt, t_end)
        if reset.events and reset.events[0] <= t_next + 1e-12:
            t_next = reset.events[0]  # sample the reframe instant itself
        state = stepper.advance(state, params, t_next - state.t)
        record(state)
        firing = reset.firing(state.t)
        if firing is not None:
            # the row above is the pre-mode row at the reframe instant
            params = replace(params, q=reset.freeze(params.q, firing))
            if reset.time is not None:
                t_end = state.t + post_horizon
            record(state)

    reset.finish()
    omega = np.vstack(omegas)
    backward = np.argwhere(omega <= 0)
    if backward.size:
        # the model's clocks run forward: name the first such sample
        row, i = backward[0]
        warnings.warn(f"node {i + 1} has clock frequency {omega[row, i]:.6g} "
                      f"<= 0 at t = {history.times[row]:.6g}", stacklevel=2)
    return SimTrace(
        times=history.times.copy(),
        theta=np.vstack(thetas),
        omega=omega,
        correction=history.corrections.copy(),
        occupancy=np.vstack(betas) if inc.m else np.empty((len(history), 0)),
        mode=modes,
        reframe_time=reset.time,
        reframe_payload=params.q if reset.time is not None else None,
    )
