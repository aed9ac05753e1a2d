"""Machine-checkable verdicts for the closed-loop convergence results.

Each check compares a simulated quantity against its closed-form spectral
prediction at a horizon of 50 e-folds of the slowest stable eigenvalue
(e^-50 is far below every tolerance).  Checks are pure functions of the
scenario and tolerances, so re-runs agree bit for bit.  The battery drives
all checks over generated scenarios, including deliberately infeasible
offsets as negative controls: the guarantees are conditional on feasibility
and the suite shows that condition is load-bearing.
"""

import time
from dataclasses import asdict, dataclass, replace
from functools import cached_property, partial, wraps

import numpy as np

from .controller import ReframeSchedule
from .dynamics import (IntegratorSettings, SimTrace, System, SystemParams,
                       feasible_offsets, make_system_params, prepare, run)
from .graph import Topology, TopologyError, edge_endpoints, generate_topology
from .spectral import (SpectralError, matrix_exponential, predict_beta_ss,
                       predict_omega_ss, steady_state_correction)

E_FOLDS = 50.0
TOL_ALGEBRA = 1e-10       # exact identities
TOL_LIMIT = 1e-8          # limits evaluated at the finite horizon
TOL_CENTERING = 1e-6      # post-reframe occupancy vs beta_off, frames
TOL_RANGE = 1e-10         # least-squares residual for r in range(A)
INFEASIBLE_MIN_GAP = 1e-3  # centering must fail at least this much

PASS, FAIL = "pass", "fail"
NOT_APPLICABLE = "not-applicable"
INVALID = "invalid-scenario"


@dataclass(frozen=True)
class Scenario:
    topology: Topology
    params: SystemParams
    theta0: np.ndarray
    seed: int | None = None
    label: str = ""

    def fingerprint(self) -> dict:
        return {"seed": self.seed, "n": self.topology.n, "m": self.topology.m,
                "k": self.params.k, "label": self.label}

    @cached_property
    def _prepared(self) -> System | Exception:
        # prepare's error is kept too: a cached_property caches no exception
        try:
            return replace(prepare(self.topology, self.params, self.theta0),
                           flow_ops={})
        except _INVALID as exc:
            return exc

    @property
    def system(self) -> System:
        """Prepared on first use and shared by every check of this scenario,
        with one flow-operator cache for all of its runs; a scenario that
        `prepare` rejects raises the same error on every use."""
        if isinstance(self._prepared, Exception):
            raise self._prepared
        return self._prepared

    @cached_property
    def own_q_trace(self) -> SimTrace:
        """The proportional run at the scenario's own q, shared by the
        correction and occupancy checks."""
        return _simulate(self.system)

    @cached_property
    def reframed_trace(self) -> SimTrace:
        """The run with one fixed-time reframe at the horizon, shared by both
        reframe checks."""
        horizon = self.system.sd.horizon(E_FOLDS)
        return _simulate(self.system,
                         ReframeSchedule(mode="fixed-time", T1=horizon))


# errors of prepare that make a scenario invalid for the closed-loop checks
_INVALID = (SpectralError, TopologyError)


@dataclass(frozen=True)
class Verdict:
    check: str
    status: str
    residual: float | None = None
    tolerance: float | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in (PASS, NOT_APPLICABLE)


def _check(name: str):
    """Makes `check(scenario, ...)` of `body(verdict, scenario, system, ...)`,
    where `verdict` is Verdict with the name filled in; a scenario that
    `prepare` rejected gets the invalid-scenario verdict."""
    def wrap(body):
        @wraps(body)
        def check(scenario: Scenario, *args, **kwargs) -> Verdict:
            if isinstance(scenario._prepared, Exception):
                return Verdict(name, INVALID, detail=str(scenario._prepared))
            return body(partial(Verdict, name), scenario, scenario.system,
                        *args, **kwargs)
        return check
    return wrap


def _simulate(system: System, schedule=None, samples=8):
    horizon = system.sd.horizon(E_FOLDS)
    settings = IntegratorSettings(horizon=horizon, post_horizon=horizon,
                                  sample_interval=horizon / samples)
    return run(system, schedule=schedule, settings=settings)


@_check("feasible-residual-in-range")
def check_feasible_residual(verdict, scenario: Scenario, system: System) -> Verdict:
    """Feasible offsets put the residual r in the range of A."""
    explicit = scenario.params.beta_off is not None
    clm = system.clm
    scale = max(1.0, float(np.abs(clm.r).max()))
    x, *_ = np.linalg.lstsq(clm.A, -clm.r, rcond=None)
    misfit = float(np.abs(clm.A @ x + clm.r).max())
    if misfit <= TOL_RANGE * scale:
        return verdict(PASS, misfit, TOL_RANGE * scale)
    if explicit:
        return verdict(NOT_APPLICABLE, misfit, TOL_RANGE * scale,
                       detail="infeasible init")
    return verdict(FAIL, misfit, TOL_RANGE * scale)


@_check("projector-limit")
def check_projector_limit(verdict, scenario: Scenario, system: System,
                          horizon: float | None = None) -> Verdict:
    """e^{At} approaches the rank-one projector 1 z^T."""
    clm, sd = system.clm, system.sd
    h = horizon if horizon is not None else sd.horizon(E_FOLDS)
    gap = float(np.abs(matrix_exponential(clm, h) - sd.W).max())
    return verdict(PASS if gap <= TOL_LIMIT else FAIL, gap, TOL_LIMIT,
                   detail=f"horizon {h:.6g}")


@_check("correction-limit")
def check_correction_limit(verdict, scenario: Scenario, system: System,
                           n_random_q: int = 3) -> Verdict:
    """Simulated correction converges to its affine map of q, for the
    scenario's own q (zero in the battery) and a few random offsets."""
    params, clm, sd = system.params, system.clm, system.sd
    tol = TOL_LIMIT * float(np.abs(params.omega_u).max())
    rng = np.random.default_rng(abs(scenario.seed or 0))
    qs = [params.q] + [rng.normal(scale=0.01, size=clm.n)
                       for _ in range(n_random_q)]
    worst = 0.0
    for i, q in enumerate(qs):
        # neither clm nor sd reads q, so one solve and one set of flow
        # operators serve every offset
        trace = (scenario.own_q_trace if i == 0 else
                 _simulate(replace(system, params=replace(params, q=q))))
        predicted = steady_state_correction(sd, clm, params, q)
        worst = max(worst, float(np.abs(trace.correction[-1] - predicted).max()))
    return verdict(PASS if worst <= tol else FAIL, worst, tol)


@_check("occupancy-limit-pre")
def check_occupancy_limit(verdict, scenario: Scenario, system: System) -> Verdict:
    """Pre-reframe occupancies converge to the group-inverse prediction."""
    predicted = predict_beta_ss(system.sd, system.clm, system.params)
    gap = float(np.abs(scenario.own_q_trace.occupancy[-1] - predicted).max())
    return verdict(PASS if gap <= TOL_LIMIT else FAIL, gap, TOL_LIMIT)


@_check("reframe-frequency")
def check_reframe_frequency(verdict, scenario: Scenario, system: System) -> Verdict:
    """Post-reframe frequency returns to the pre-reframe consensus value,
    after a jump whose sign the settling transient undoes."""
    tol = TOL_LIMIT * float(np.abs(system.params.omega_u).max())
    trace = scenario.reframed_trace
    consensus = predict_omega_ss(system.sd, system.params)
    i = trace.mode.index("post-reframe")
    pre_terminal = trace.omega[i - 1]
    post_terminal = trace.omega[-1]
    worst = max(float(np.abs(post_terminal - consensus).max()),
                float(np.abs(pre_terminal - post_terminal).max()))
    jump = trace.omega[i] - trace.omega[i - 1]
    settle = post_terminal - trace.omega[i]
    # near-zero jumps carry no reliable sign; mask them out
    sign_ok = np.all((np.abs(jump) <= 10 * tol)
                     | (np.sign(settle) == -np.sign(jump)))
    status = PASS if worst <= tol and sign_ok else FAIL
    detail = "" if sign_ok else "settling direction does not undo the jump"
    return verdict(status, worst, tol, detail=detail)


@_check("reframe-centering")
def check_reframe_centering(verdict, scenario: Scenario, system: System) -> Verdict:
    """Post-reframe occupancies land back on the offsets (needs feasibility)."""
    gap = float(np.abs(scenario.reframed_trace.occupancy[-1]
                       - system.params.beta_off).max())
    return verdict(PASS if gap <= TOL_CENTERING else FAIL, gap,
                   TOL_CENTERING)


@_check("spectral-identities")
def check_spectral_identities(verdict, scenario: Scenario, system: System,
                              t_scales=(0.1, 1.0, 10.0)) -> Verdict:
    """z^T A = 0, W^2 = W, WA = AW = 0, and e^{At} row-stochastic."""
    clm, sd = system.clm, system.sd
    A, z, W = clm.A, sd.z, sd.W
    scale = max(1.0, float(np.abs(A).max()))
    worst = max(
        float(np.abs(z @ A).max()) / scale,
        float(np.abs(W @ W - W).max()),
        float(np.abs(W @ A).max()) / scale,
        float(np.abs(A @ W).max()) / scale,
    )
    stochastic_ok = True
    for s in t_scales:
        E = matrix_exponential(clm, s / sd.decay_rate())
        stochastic_ok &= float(np.abs(E.sum(axis=1) - 1.0).max()) <= 1e-10
        stochastic_ok &= float(E.min()) >= -1e-12
    status = PASS if worst <= TOL_ALGEBRA and stochastic_ok else FAIL
    detail = "" if stochastic_ok else "matrix exponential not row-stochastic"
    return verdict(status, worst, TOL_ALGEBRA, detail=detail)


ALL_CHECKS = (check_feasible_residual, check_projector_limit,
              check_correction_limit, check_occupancy_limit,
              check_reframe_frequency, check_reframe_centering,
              check_spectral_identities)


def make_random_scenario(seed: int, n_range=(2, 8), k_range=(0.05, 1.0),
                         omega_range=(0.95, 1.05),
                         extra_edge_max: float = 0.5) -> Scenario:
    """Strongly connected random scenario with feasible offsets and q = 0."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    frac = float(rng.uniform(0.0, extra_edge_max))
    topology = generate_topology("random-strong", n, seed=seed,
                                 extra_edge_fraction=frac)
    params = make_system_params(
        topology,
        k=float(rng.uniform(*k_range)),
        omega_u=rng.uniform(*omega_range, size=n),
        lam=rng.uniform(8.0, 12.0, size=topology.m),
    )
    theta0 = rng.uniform(-1.0, 1.0, size=n)
    return Scenario(topology=topology, params=params, theta0=theta0, seed=seed)


def make_infeasible_scenario(seed: int, **kwargs) -> Scenario:
    """Same distribution, but beta_off is held one frame below a feasible
    value on the first edge, so r leaves the range of A; below, so that the
    edge's destination clock starts faster, never at omega <= 0."""
    base = make_random_scenario(seed, **kwargs)
    feasible = feasible_offsets(*edge_endpoints(base.topology), base.theta0,
                                base.params.lam)
    bump = np.zeros(base.topology.m)
    bump[0] = -1.0
    params = replace(base.params, beta_off=feasible + bump)
    return Scenario(topology=base.topology, params=params, theta0=base.theta0,
                    seed=seed, label="infeasible")


def _defective_scenario() -> Scenario:
    # ring plus chord: eigenvalue -2 has multiplicity 2 but one eigenvector,
    # so the battery always exercises a non-diagonalizable closed loop
    topology = Topology(n=3, edges=[(1, 2), (2, 3), (3, 1), (1, 3)])
    params = make_system_params(topology, k=1.0, omega_u=[0.98, 1.00, 1.05])
    return Scenario(topology=topology, params=params,
                    theta0=np.array([0.3, -0.2, 0.1]), seed=-1,
                    label="defective-stable-part")


def _is_diagonalizable(A: np.ndarray, tol: float = 1e8) -> bool:
    _, vecs = np.linalg.eig(A)
    return bool(np.linalg.cond(vecs) < tol)


def run_battery(count: int = 100, seed: int = 0, n_range=(2, 8),
                k_range=(0.05, 1.0), omega_range=(0.95, 1.05),
                infeasible_count: int | None = None) -> dict:
    """Run every check over `count` random scenarios plus negative controls.

    Returns a JSON-ready report; report["all_pass"] drives the process exit
    code.  Scenario fingerprints (seed, n, m, k) make failures reproducible.
    """
    t_start = time.perf_counter()
    scenarios = [make_random_scenario(seed + i, n_range, k_range, omega_range)
                 for i in range(count)]
    if count > 0:
        scenarios.append(_defective_scenario())
    # in seed order, popped so that each scenario's cached system, traces and
    # flow operators are freed once its checks have run
    scenarios.sort(key=lambda s: s.seed)
    scenarios.reverse()

    rows = []
    worst: dict[str, float] = {}
    counts: dict[str, dict[str, int]] = {}
    non_diag = None
    while scenarios:
        sc = scenarios.pop()
        verdicts = [chk(sc) for chk in ALL_CHECKS]
        rows.append({"scenario": sc.fingerprint(),
                     "verdicts": [asdict(v) for v in verdicts]})
        for v in verdicts:
            counts.setdefault(v.check, {}).setdefault(v.status, 0)
            counts[v.check][v.status] += 1
            if v.residual is not None:
                worst[v.check] = max(worst.get(v.check, 0.0), v.residual)
        if (not isinstance(sc._prepared, Exception)
                and not _is_diagonalizable(sc.system.clm.A)):
            non_diag = sc.fingerprint()

    if infeasible_count is None:
        infeasible_count = min(count, 20)
    negative_rows = []
    uncentered = 0
    for i in range(infeasible_count):
        sc = make_infeasible_scenario(seed + 10_000 + i, n_range=n_range,
                                      k_range=k_range, omega_range=omega_range)
        feas = check_feasible_residual(sc)
        centering = check_reframe_centering(sc)
        # the negative control passes when centering fails measurably
        control_ok = (centering.status == FAIL
                      and centering.residual > INFEASIBLE_MIN_GAP)
        uncentered += int(control_ok)
        negative_rows.append({"scenario": sc.fingerprint(),
                              "feasibility": asdict(feas),
                              "centering": asdict(centering),
                              "control_ok": control_ok})

    positives_ok = all(v["status"] in (PASS, NOT_APPLICABLE)
                       for row in rows for v in row["verdicts"])
    negatives_ok = (infeasible_count == 0
                    or uncentered >= int(np.ceil(0.9 * infeasible_count)))
    negatives_na_ok = all(r["feasibility"]["status"] == NOT_APPLICABLE
                          for r in negative_rows)

    return {
        "settings": {"count": count, "seed": seed, "n_range": list(n_range),
                     "k_range": list(k_range), "omega_range": list(omega_range),
                     "infeasible_count": infeasible_count},
        "scenarios": rows,
        "negative_controls": negative_rows,
        "summary": {
            "checks": {name: {"statuses": counts[name],
                              "worst_residual": worst.get(name)}
                       for name in sorted(counts)},
            "uncentered_negative_controls": uncentered,
            "non_diagonalizable": non_diag if non_diag else "not exercised",
            "elapsed_seconds": time.perf_counter() - t_start,
        },
        "all_pass": positives_ok and negatives_ok and negatives_na_ok,
    }
