"""Continuous-time closed-loop integration.

Between controller mode switches the system is linear time-invariant, so the
default integrator advances the affine flow exactly: one n x n matrix
exponential, with the drift's integral in closed form from the group inverse.
Fixed-step rk4/euler are kept to mimic discrete controller hardware; they
are Taylor polynomials of the exact flow, and carry a stability bound on dt.
"""

import copy
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .controller import (POST_REFRAME, PRE_REFRAME, OneShotReset,
                         ReframeSchedule)
from .graph import (IncidenceSet, Topology, TopologyError, build_incidence,
                    is_strongly_connected)
from .spectral import (ClosedLoopMatrix, SpectralData, SpectralError,
                       build_closed_loop, matrix_exponentials,
                       metzler_eigenvector, metzler_eigenvectors)

# the most sample intervals (continuous) or steps (discrete) of one run: the
# recorder holds a row of n + m values for each; and the most rk4 or euler
# substeps of a continuous run, which takes each in turn
MAX_SAMPLES = 2**24


@dataclass(frozen=True)
class SystemParams:
    """Full parameterization of the closed loop.

    beta_off is None while tagged feasible-at-start; init_state materializes
    it as B^T theta0 + lambda, which puts the residual r in range(A).  q is
    one offset per node, or a (K, n) block of K offsets that `run` carries
    at once.  `with_q` and `with_beta_off` replace one field of checked
    params and check only that field.
    """

    k: float
    omega_u: np.ndarray
    lam: np.ndarray
    beta_off: np.ndarray | None = None
    q: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "omega_u", np.asarray(self.omega_u, dtype=float))
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        # k == 0 is tolerated so the discrete mode can model a disabled
        # controller; the spectral layer insists on k > 0.
        if self.k < 0:
            raise ValueError(f"gain k must be nonnegative, got {self.k}")
        if np.any(self.omega_u <= 0):
            raise ValueError("uncontrolled frequencies must be positive (physical clocks)")
        self._set_q(np.zeros_like(self.omega_u) if self.q is None else self.q)
        self._set_beta_off(self.beta_off)

    def _set_q(self, q):
        q = np.asarray(q, dtype=float)
        if q.shape[-1:] != self.omega_u.shape or q.ndim > 2:
            raise ValueError("q must be one row or a block of rows of "
                             "omega_u's shape")
        object.__setattr__(self, "q", q)

    def _set_beta_off(self, beta_off):
        if beta_off is not None:
            beta_off = np.asarray(beta_off, dtype=float)
            if beta_off.shape != self.lam.shape:
                raise ValueError("beta_off and lambda must have matching shapes")
        object.__setattr__(self, "beta_off", beta_off)

    def with_q(self, q) -> "SystemParams":
        new = copy.copy(self)
        new._set_q(q)
        return new

    def with_beta_off(self, beta_off) -> "SystemParams":
        new = copy.copy(self)
        new._set_beta_off(beta_off)
        return new


def _filled(value, size: int) -> np.ndarray:
    """A new float array of size entries: value, a scalar or one entry per
    item, broadcast over it."""
    out = np.empty(size)
    np.copyto(out, value, casting="same_kind")
    return out


def make_system_params(topology: Topology, k: float, omega_u,
                       lam=10.0, beta_off=None, q=0.0) -> SystemParams:
    """Broadcast scalars to the topology's node/edge counts."""
    n, m = topology.n, topology.m
    return SystemParams(
        k=k, omega_u=_filled(omega_u, n), lam=_filled(lam, m),
        beta_off=None if beta_off is None else _filled(beta_off, m),
        q=_filled(q, n))


@dataclass
class SimTrace:
    """Time-indexed record of a continuous run: each sample's phases and the
    correction the nodes emitted.

    The other observables are derived: omega = omega_u + c, and every buffer
    occupancy is linear in the phases, beta = B^T theta + lambda, formed on
    mean-removed phases as `observe` forms it.  `omega` and `occupancy` give
    the full arrays; `rows` derives a row range, so a writer that goes a few
    rows at a time never holds the (T, m) occupancy.

    The reframe instant appears twice (same t, pre then post mode) so the
    correction discontinuity is visible in the trace.  A run of K offsets
    records a (K, n) block per sample: theta and correction are then
    (T, K, n), and so is every derived array, with (T, K, m) occupancies.
    """

    times: np.ndarray        # (T,)
    theta: np.ndarray        # (T, n) or (T, K, n)
    correction: np.ndarray   # (T, n) or (T, K, n)
    omega_u: np.ndarray      # (n,)
    inc: IncidenceSet
    lam: np.ndarray          # (m,)
    mode: list = field(default_factory=list)
    reframe_time: float | None = None
    reframe_payload: np.ndarray | None = None

    def __len__(self):
        return len(self.times)

    @property
    def m(self) -> int:
        return len(self.lam)

    @property
    def omega(self) -> np.ndarray:
        return self.omega_u + self.correction

    @property
    def occupancy(self) -> np.ndarray:
        return self.rows(slice(None))[2]

    def rows(self, rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(omega, correction, occupancy) of the rows in the slice.  Each row
        of theta is C-contiguous, and a row-wise mean reduces it as the 1-D
        mean in `observe` does, so every value equals observe's bit for bit."""
        theta, c = self.theta[rows], self.correction[rows]
        centered = theta - theta.mean(axis=-1, keepdims=True)
        beta = self.inc.edge_diff(centered)
        beta += self.lam
        return self.omega_u + c, c, beta


@dataclass(frozen=True)
class IntegratorSettings:
    method: str = "exact"              # exact | rk4 | euler
    dt: float | None = None            # substep for rk4/euler; defaults to the bound/8
    sample_interval: float | None = None
    horizon: float | None = None       # pre-reframe horizon; None = 50 e-folds
    post_horizon: float | None = None  # time simulated after the reframe; None = horizon

    def spans(self, system, reframes: bool) -> tuple[float, float, float]:
        """(horizon, post_horizon, sample_interval) of a run of the prepared
        `system`, the unset ones from their defaults: 50 e-folds of its
        slowest stable eigenvalue, the horizon, and 1/200 of the horizon;
        post_horizon is 0 unless the run `reframes`, so the run lasts
        horizon + post_horizon."""
        horizon = (self.horizon if self.horizon is not None
                   else system.sd.horizon())
        post_horizon = (0.0 if not reframes else self.post_horizon
                        if self.post_horizon is not None else horizon)
        return horizon, post_horizon, self.sample_interval or horizon / 200.0

    def substep(self, system) -> float | None:
        """The rk4 or euler substep of a run of `system`: dt, or 1/8 of the
        stability bound; None under the exact method."""
        return None if self.method == "exact" else (
            self.dt or stability_bound(system.inc, system.params.k) / 8.0)

    def check_samples(self, system, reframes: bool):
        """Raise ValueError where a run of `system` records over MAX_SAMPLES
        sample intervals, (horizon + post_horizon) / sample_interval; the
        run checks it before it sizes its history."""
        horizon, post_horizon, interval = self.spans(system, reframes)
        if not (samples := (horizon + post_horizon) / interval) <= MAX_SAMPLES:
            raise ValueError(
                f"horizon {horizon:.6g} and post_horizon {post_horizon:.6g} "
                f"over sample_interval {interval:.6g} make {samples:.3g} "
                f"samples; a run records at most {MAX_SAMPLES}")

    def check_substeps(self, system, reframes: bool):
        """Raise ValueError where an rk4 or euler run of `system` takes over
        MAX_SAMPLES substeps, (horizon + post_horizon) / substep; the run
        checks it before its first substep."""
        if self.method == "exact":
            return
        horizon, post_horizon, _ = self.spans(system, reframes)
        sub = self.substep(system)
        if not (substeps := (horizon + post_horizon) / sub) <= MAX_SAMPLES:
            raise ValueError(
                f"horizon {horizon:.6g} and post_horizon {post_horizon:.6g} "
                f"in {self.method} substeps of {sub:.6g} make "
                f"{substeps:.3g} substeps; a run takes at most {MAX_SAMPLES}")


def init_state(inc: IncidenceSet, params: SystemParams,
               theta0) -> tuple[np.ndarray, SystemParams]:
    """Materialize feasible offsets at t = 0.

    Returns theta0 broadcast to n nodes, together with params whose beta_off
    is now explicit.
    """
    theta0 = _filled(theta0, inc.n)
    if params.beta_off is None:
        params = params.with_beta_off(inc.edge_diff(theta0) + params.lam)
    elif np.any(params.beta_off < 0):
        warnings.warn("explicit beta_off has negative entries; physically suspect",
                      stacklevel=2)
    return theta0, params


@dataclass(frozen=True)
class System:
    """One scenario's closed loop, built once by `prepare` and passed along.

    params carries the materialized beta_off and theta0 is broadcast to n
    nodes.  clm and sd are None for k == 0, a disabled controller that only
    the discrete mode can run.
    """

    topology: Topology
    inc: IncidenceSet
    params: SystemParams
    theta0: np.ndarray
    clm: ClosedLoopMatrix | None
    sd: SpectralData | None


def prepare_all(cases) -> list:
    """For each (topology, params, theta0) case, its System, or in its place
    the TopologyError or SpectralError that `prepare` raises for it.  Each
    case's strong connectivity is checked, then its incidence, initial
    offsets and closed loop are built, and the spectral data of all the
    closed loops come from one stacked solve."""
    out, clms = [], []
    for topology, params, theta0 in cases:
        if not is_strongly_connected(topology):
            out.append(TopologyError("topology is not strongly connected"))
            continue
        inc = build_incidence(topology)
        theta0, params = init_state(inc, params, theta0)
        clm = build_closed_loop(inc, params) if params.k > 0 else None
        if clm is not None:
            clms.append(clm)
        out.append((topology, inc, params, theta0, clm))
    solved = iter(metzler_eigenvectors(clms))
    for i, case in enumerate(out):
        if isinstance(case, Exception):
            continue
        topology, inc, params, theta0, clm = case
        try:
            sd = None if clm is None else metzler_eigenvector(clm, next(solved))
        except SpectralError as exc:
            # without its traceback, whose frame holds `out`, the error
            # keeps no other case's system alive
            out[i] = exc.with_traceback(None)
            continue
        out[i] = System(topology=topology, inc=inc, params=params,
                        theta0=theta0, clm=clm, sd=sd)
    return out


def prepare(topology: Topology, params: SystemParams, theta0=0.0) -> System:
    """Check strong connectivity, then build incidence, the initial offsets,
    the closed loop and its spectral data, once: `prepare_all` of one case."""
    system, = prepare_all([(topology, params, theta0)])
    if isinstance(system, Exception):
        raise system
    return system


def _drift(clm: ClosedLoopMatrix, params: SystemParams,
           q: np.ndarray | None = None) -> np.ndarray:
    """v = omega_u + q + r as theta's columns hold it: (n,), or (n, K) for K
    offsets; q is params.q unless given."""
    return (params.omega_u + (params.q if q is None else q) + clm.r).T


def _corrections(A: np.ndarray, r: np.ndarray, q: np.ndarray,
                 blocks: np.ndarray) -> np.ndarray:
    """The corrections A (theta - mean theta) + q + r of phase blocks
    (..., n, K), one C-contiguous (..., K, n) block each, as `observe` forms
    each: a C-contiguous (n, K) block's mean is summed and divided as
    ndarray.mean does, and A multiplies each block as one product.  A, r
    and q broadcast against the blocks."""
    n = blocks.shape[-2]
    c = A @ (blocks - np.add.reduce(blocks, axis=-2, keepdims=True) / n)
    c = np.add(np.swapaxes(c, -1, -2), q, order="C")
    c += r
    return c


def _sample_clock(times: list, base: float, j: int, t_end: float,
                  sample_dt: float, tol: float, event: float = math.inf,
                  sub: float | None = None, one: bool = False) -> list:
    """Append to `times` the sample times a run steps through after sample
    j of a phase that starts at base, and return each step's (substep
    count, span): every sample through t_end, or through the first that
    reaches `event`.  Sample j is stamped base + j sample_dt, correctly
    rounded where a sum of j steps would drift; a grid sample within tol of
    t_end is t_end, and a sample that reaches `event` is `event`.  With
    `one` it steps only while `times` is empty: one step, or none after a
    lead row."""
    substeps = []
    s = base + j * sample_dt
    while s < t_end - tol and not (one and times):
        j += 1
        grid = base + j * sample_dt
        t_next = grid if grid < t_end - tol else t_end
        at_event = event <= t_next + 1e-12
        if at_event:
            t_next = event      # sample the reframe instant itself
        # an unclipped step spans sample_dt, so every such step reuses one
        # flow operator; a step clipped to t_end, or cut at an off-grid
        # event, spans the gap, or sample_dt within tol of it
        span = t_next - s
        if t_next == grid or abs(span - sample_dt) <= tol:
            span = sample_dt
        # rk4 and euler take the fewest equal substeps of at most sub; the
        # slack that spares a quotient a hair over a whole count its extra
        # substep must not leave h over sub
        count = 1
        if sub:
            count = max(1, int(np.ceil(span / sub - 1e-12)))
            count += (span / count > sub)
        times.append(t_next)
        substeps.append((count, span))
        s = t_next
        if at_event:
            break
    return substeps


def observe(theta: np.ndarray, params: SystemParams,
            clm: ClosedLoopMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega, correction, occupancy) at the phases theta."""
    centered = theta - theta.mean()
    c = clm.A @ centered + params.q + clm.r
    beta = clm.inc.edge_diff(centered) + params.lam
    return params.omega_u + c, c, beta


def stability_bound(inc: IncidenceSet, k: float) -> float:
    """Explicit-method dt limit 1 / (k * max in-degree)."""
    deg = inc.max_in_degree()
    return float("inf") if k * deg == 0 else 1.0 / (k * deg)


def exact_flow_operators(clms, dts) -> list:
    """e^{A dt} of each closed loop of `clms` at its span of `dts`, from one
    `matrix_exponentials` call.  An operator that is not finite (the gain or
    the span overflows the exponential) raises SpectralError; the overflow
    itself stays silent, as this error reports it."""
    with np.errstate(over="ignore", invalid="ignore"):
        phis = matrix_exponentials(clms, dts)
    if not all(np.isfinite(phi).all() for phi in phis):
        raise SpectralError(
            "flow operator not finite: the gain or the span overflows the "
            "matrix exponential")
    return phis


def _drift_integral(sd: SpectralData, phi: np.ndarray, dt: float,
                    v: np.ndarray) -> np.ndarray:
    """w = integral_0^dt e^{As} v ds = dt (z.v) 1 + G (Phi v - v), for
    Phi = e^{A dt} and a drift v of shape (n,) or (n, K).  Its derivative
    in dt, (z.v) 1 + G A e^{A dt} v = W v + (I - W) e^{A dt} v, is
    e^{A dt} v, since AG = I - W and W e^{A dt} = W; and it vanishes at
    dt = 0."""
    return dt * (sd.z @ v) + sd.group_inverse @ (phi @ v - v)


def taylor_action(A, theta, v, h: float, degree: int, substeps: int = 1):
    """theta advanced by `substeps` substeps of h under theta' = A theta + v,
    each the degree-p Taylor polynomial of e^{hM}, M = [[A, v], [0, 0]], on
    [theta; 1] by Horner's rule: euler at p = 1, rk4 at p = 4.  The first
    product drops the mean phase, which A annihilates but which grows as t."""
    for _ in range(substeps):
        y = u = A @ (theta - theta.mean(axis=0)) + v
        for j in range(degree, 1, -1):
            y = u + (h / j) * (A @ y)
        theta = theta + h * y
    return theta


def step(theta: np.ndarray, params: SystemParams, clm: ClosedLoopMatrix,
         dt: float, method: str = "exact", flow: tuple | None = None,
         substeps: int = 1) -> np.ndarray:
    """The phases theta advanced by dt under theta' = A theta + v,
    v = omega_u + q + r; for a (K, n) q, theta is an (n, K) block, one
    column per offset.

    The exact method maps theta to Phi theta + w by the span's `flow`
    (Phi, w): Phi = e^{A dt} from `exact_flow_operators` and w the drift's
    integral over dt from `_drift_integral`, as `run` builds them; euler
    and rk4 split dt into `substeps` substeps by `taylor_action`.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if method == "exact":
        if flow is None:
            raise ValueError("the exact method needs the span's flow (Phi, w)")
        phi, w = flow
        return phi @ theta + w
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown integration method {method!r}")
    h, bound = dt / substeps, stability_bound(clm.inc, clm.k)
    if h > bound:
        raise ValueError(f"dt = {h} violates the explicit-method stability "
                         f"bound 1/(k * max in-degree) = {bound}")
    return taylor_action(clm.A, theta, _drift(clm, params), h,
                         1 if method == "euler" else 4, substeps)


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

    A (K, n) q runs the closed loop for K offsets at once, sharing the sample
    grid and the flow operators: the phases are an (n, K) block, each span's
    drift integral w one n x K block, and each sample records one (K, n)
    block.  Each offset's rows agree with its own one-offset run to
    rounding.  A fixed-time schedule freezes each row's own correction into
    that row; an auto schedule compares single correction rows, so it needs
    a 1-D q.

    The reset's `drive` runs the loop.  Each advance steps from the last
    row through the next row on which the schedule may fire: one row while
    the auto trigger watches, else every row through the next T1 or the
    end.  It forms the corrections of its rows in one batched product.
    """
    if system.sd is None:
        raise ValueError(
            f"gain k must be positive for the closed loop, got {system.params.k}")
    inc, params, clm = system.inc, system.params, system.clm
    if schedule is not None and schedule.mode == "auto" and params.q.ndim > 1:
        raise ValueError("an auto reframe needs one offset per node, "
                         f"not a block of {len(params.q)}")
    settings.check_samples(system, schedule is not None)
    settings.check_substeps(system, schedule is not None)

    horizon, post_horizon, sample_dt = settings.spans(
        system, schedule is not None)
    tol = 1e-9 * sample_dt
    t_end = horizon + post_horizon
    reset = OneShotReset(schedule, params, inc, default_T1=horizon,
                         width=params.q.shape,
                         samples=math.ceil(t_end / sample_dt) + 1)
    method = settings.method
    sub = settings.substep(system)
    # Phi per span, built once in the run; (Phi, w) per span while q, so
    # the drift v, holds
    ops, held = {}, {}
    A, r, n = clm.A, clm.r, inc.n
    # the last row is sample j of the phase from base: the run's start or
    # the last freeze
    t, theta, base, j = 0.0, system.theta0, 0.0, 0
    if params.q.ndim > 1:
        theta = np.repeat(theta[:, None], len(params.q), axis=1)

    def advance(params, firing):
        # the rows from (t, theta), the run's first row or a post row, or
        # else from the row after it, through the next row on which the
        # schedule may fire
        nonlocal t, theta, t_end, base, j
        lead = int(firing is not None or not len(reset.history))
        if firing is not None:
            held.clear()        # q has changed, so every w
            base, j = t, 0
            if reset.time is not None:
                t_end = t + post_horizon
        times = [t] * lead
        substeps = _sample_clock(
            times, base, j, t_end, sample_dt, tol,
            event=reset.events[0] if reset.events else math.inf, sub=sub,
            one=reset.pending and reset.detector is not None)
        if not times:
            return None         # the last row is the end
        if reset.events:
            # the rows through the first that reaches the next T1, by the
            # test `firing` applies; the last row is left to `firing`
            del times[reset.cut(times, None, 0, len(times) - 1)
                      or len(times):]
        rows = np.empty((len(times), *theta.shape))
        rows[:lead] = theta
        for i, (count, span) in enumerate(substeps[:len(times) - lead], lead):
            if method == "exact" and span not in held:
                if span not in ops:
                    ops[span], = exact_flow_operators([clm], [span])
                held[span] = ops[span], _drift_integral(
                    system.sd, ops[span], span, _drift(clm, params))
            theta = step(theta, params, clm, span, method,
                         flow=held.get(span), substeps=count)
            rows[i] = theta
        t, j = times[-1], j + len(times) - lead
        # a row's phases are an (n, K) block, K = 1 for a 1-D q
        blocks = rows.reshape(len(rows), n, -1)
        shape = (len(rows), *params.q.shape)
        return (times, _corrections(A, r, params.q, blocks).reshape(shape),
                blocks.transpose(0, 2, 1).reshape(shape))

    params = reset.drive(params, advance)
    trace = SimTrace(
        times=reset.history.times,
        theta=reset.history.rows,
        correction=reset.history.corrections,
        omega_u=params.omega_u,
        inc=inc,
        lam=params.lam,
        mode=reset.modes,
        reframe_time=reset.time,
        reframe_payload=params.q if reset.time is not None else None,
    )
    _warn_backward(trace, trace.omega)
    return trace


def _warn_backward(trace: SimTrace, omega: np.ndarray):
    """Warn, naming the caller of the run, if a clock of the trace, whose
    frequencies are omega, runs backward: the first sample of a node with
    omega <= 0."""
    backward = np.argwhere(omega <= 0)
    if backward.size:
        # the model's clocks run forward: name the first such sample
        first = tuple(backward[0])
        warnings.warn(f"node {first[-1] + 1} has clock frequency "
                      f"{omega[first]:.6g} <= 0 at t = "
                      f"{trace.times[first[0]]:.6g}", stacklevel=3)


def horizon_sample_interval(system: System) -> float:
    """dt = h/8: a horizon reframe samples the horizon h in 8 equal spans."""
    return system.sd.horizon() / 8


def run_horizon_reframes(systems, phis) -> list:
    """The trace of each of `systems`, all of one size n and each with a
    (K, n) block of offsets q, bit for bit the one `run` gives with one
    fixed-time reframe at the horizon h, h after it, and a sample every
    dt = h/8: 8 spans of dt from theta0, the freeze of each offset's own
    correction at T1 = h, the post row, and 8 more spans.

    The systems step at once: one (S, n, n) stack of their sample operators,
    `phis`, advances an (S, n, K) block of phases; each system's drift
    integral w is its own `_drift_integral`, before and after the freeze,
    and each phase's rows take their corrections from `run`'s product.  The
    sample times are `run`'s grid, j dt before the freeze and h + j dt after
    it for j = 0..8: 8 dt = h exactly, so sample 8 is T1 and the last is the
    end, 2h, and every system keeps the 8 + 8 schedule (where dt exceeds the
    1e-12 slack of the T1 test, so that sample 7 stays short of T1).
    """
    for system in systems:
        if system.sd is None:
            raise ValueError(f"gain k must be positive for the closed loop, "
                             f"got {system.params.k}")
    dts = [horizon_sample_interval(system) for system in systems]
    phi = np.stack(phis)
    A = np.stack([system.clm.A for system in systems])[:, None]
    r = np.stack([system.clm.r for system in systems])[:, None, None]
    q = np.stack([system.params.q for system in systems])
    S, K, n = q.shape
    # the rows 0-8 before the freeze, the post row 9 and the rows 10-17
    blocks = np.empty((S, 18, n, K))
    blocks[:, 0] = np.stack([system.theta0 for system in systems])[..., None]
    c = np.empty((S, 18, K, n))

    def advance(first, q):
        # the 8 rows after row `first` under the offsets q, and the
        # corrections of all 9
        w = np.stack([_drift_integral(system.sd, phis[i], dts[i],
                                      _drift(system.clm, system.params, q[i]))
                      for i, system in enumerate(systems)])
        for i in range(first + 1, first + 9):
            np.matmul(phi, blocks[:, i - 1], out=blocks[:, i])
            blocks[:, i] += w
        rows = slice(first, first + 9)
        c[:, rows] = _corrections(A, r, q[:, None], blocks[:, rows])

    advance(0, q)
    q = c[:, 8].copy()          # each offset freezes its own correction
    blocks[:, 9] = blocks[:, 8]
    advance(9, q)
    grid = np.arange(9) * np.array(dts)[:, None]
    times = np.concatenate([grid, grid[:, 8:] + grid], axis=1)
    theta = np.ascontiguousarray(np.swapaxes(blocks, -1, -2))
    modes = [PRE_REFRAME] * 9 + [POST_REFRAME] * 9
    traces = [SimTrace(times=times[i], theta=theta[i], correction=c[i],
                       omega_u=system.params.omega_u, inc=system.inc,
                       lam=system.params.lam, mode=list(modes),
                       reframe_time=float(times[i, 8]), reframe_payload=q[i])
              for i, system in enumerate(systems)]
    omega = np.stack([system.params.omega_u for system in systems])
    omega = omega[:, None, None] + c
    for i in np.flatnonzero((omega <= 0).any(axis=(1, 2, 3))):
        _warn_backward(traces[i], omega[i])
    return traces
