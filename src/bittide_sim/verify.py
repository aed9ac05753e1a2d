"""Machine-checkable verdicts for the closed-loop convergence results.

Each check compares a simulated quantity against its closed-form spectral
prediction at a horizon of 50 e-folds of the slowest stable eigenvalue
(e^-50 is far below every tolerance).  Checks are pure functions of the
scenario and tolerances, so re-runs agree bit for bit.  The battery drives
all checks over generated scenarios, including deliberately infeasible
offsets as negative controls: the guarantees are conditional on feasibility
and the suite shows that condition is load-bearing.

The one-shot reset freezes the correction each node emits into its offset,
so a reframed run is the proportional run plus one freeze: each scenario
is simulated once.  Its residuals are worked out from that one trace in one
pass over the stack of its size n, and each check only decides its verdict
from them.
"""

import time
from dataclasses import dataclass, replace
from functools import cached_property, wraps
from typing import NamedTuple

import numpy as np

from .dynamics import (SystemParams, exact_flow_operators,
                       horizon_sample_interval, make_system_params,
                       prepare_all, run_horizon_reframes)
from .graph import (IncidenceSet, Topology, edge_endpoints, generate_topology,
                    joined_incidence)
from .spectral import (by_size, consensus, correction_limits,
                       matrix_exponentials, occupancy_limits)

TOL_ALGEBRA = 1e-10       # exact identities
TOL_LIMIT = 1e-8          # limits evaluated at the finite horizon
TOL_CENTERING = 1e-6      # post-reframe occupancy vs beta_off, frames
TOL_RANGE = 1e-10         # least-squares residual for r in range(A)
INFEASIBLE_MIN_GAP = 1e-3  # centering must fail at least this much
# the battery's gain and uncontrolled-frequency ranges, echoed in its report
K_RANGE = (0.05, 1.0)
OMEGA_RANGE = (0.95, 1.05)
EXTRA_EDGE_MAX = 0.5      # the most extra_edge_fraction a scenario draws
# the spectral identities test e^{At} at these multiples of 1/|Re lambda_2|
IDENTITY_SPANS = (0.1, 1.0, 10.0)

PASS, FAIL = "pass", "fail"
NOT_APPLICABLE = "not-applicable"
INVALID = "invalid-scenario"


@dataclass(frozen=True)
class Scenario:
    """One battery scenario.  Its checks read its one `outcome`."""

    topology: Topology
    params: SystemParams
    theta0: np.ndarray
    seed: int | None = None
    label: str = ""

    def fingerprint(self) -> dict:
        return {"seed": self.seed, "n": self.topology.n, "m": self.topology.m,
                "k": self.params.k, "label": self.label}

    def offsets(self) -> np.ndarray:
        """The (4, n) offsets of the scenario's run: its own q (zero in the
        battery) and three random ones, seeded by the scenario."""
        rng = np.random.default_rng(abs(self.seed or 0))
        return np.vstack([self.params.q] + [
            rng.normal(scale=0.01, size=self.topology.n) for _ in range(3)])

    @cached_property
    def outcome(self) -> "Residuals | Exception":
        """What every check of the scenario decides on: its Residuals, or
        the error `prepare` raised for it, from `_evaluate` of a stack of
        one; `run_battery` fills this for all of its scenarios at once."""
        outcome, = _evaluate([self])
        return outcome


class Residuals(NamedTuple):
    """One scenario's residuals, and the few facts its checks decide on
    beside them; each check reads only its own entries."""

    explicit_offsets: bool    # feasibility: beta_off given, not derived
    range_misfit: float
    range_scale: float        # max(1, max |r|)
    horizon: float            # projector
    projector_gap: float
    limit_tolerance: float    # correction and frequency: TOL_LIMIT max omega_u
    correction_gap: float
    occupancy_gap: float
    frequency_gap: float
    settles: bool             # each settling step undoes its jump's sign
    centering_gap: float
    identity_gap: float
    stochastic: bool          # each identity exponential row-stochastic
    diagonalizable: bool      # A has a well-conditioned eigenbasis


# the rows of a `run_horizon_reframes` trace that the checks read: the last
# before the freeze at T1 = h, the post row at h, and the end
_PRE, _POST, _END = 8, 9, 17


def _peak(x: np.ndarray) -> np.ndarray:
    """The largest magnitude in each member of a stack."""
    return np.abs(x).reshape(len(x), -1).max(axis=1)


def _residuals(scenarios, systems, phis, traces, offsets) -> list:
    """The Residuals of each of `scenarios`, all of one size n, from one
    pass over (S, n, n) stacks of A, W, the group inverse and the sample
    operators `phis` of their prepared `systems`, and the stacked rows of
    their `traces`, the runs of their `offsets`.  Every product is a
    stacked matmul, one BLAS call per member as its own product makes,
    `_is_diagonalizable` one `eig` and one `cond` per member, and the rest
    is elementwise or a reduction over one member's entries, so each member
    gets the bits of its own stack of one.  The occupancies of
    every member are one `edge_diff` over their joined incidence."""
    S, n = len(systems), systems[0].inc.n
    # e^{At} at each of IDENTITY_SPANS over the decay rate, from one stacked
    # call: the pass's largest stacks, so they are checked and freed first
    exponentials = np.array(matrix_exponentials(
        [system.clm for system in systems for _ in IDENTITY_SPANS],
        [x / system.sd.decay_rate() for system in systems
         for x in IDENTITY_SPANS])).reshape(S, -1, n, n)
    stochastic = ((_peak(exponentials.sum(axis=-1) - 1.0) <= 1e-10)
                  & (exponentials.reshape(S, -1).min(axis=1) >= -1e-12))
    del exponentials

    def stack(get):
        return np.array([get(system) for system in systems])

    A, W = stack(lambda s: s.clm.A), stack(lambda s: s.sd.W)
    z, r = stack(lambda s: s.sd.z), stack(lambda s: s.clm.r)
    omega_u, q = stack(lambda s: s.params.omega_u), stack(lambda s: s.params.q)

    # feasibility: r's misfit |z.r| max z / z.z out of range(A)
    misfit = np.abs(consensus(z, r)) * z.max(axis=1) / consensus(z, z)
    # projector: the runs' sample operator e^{Ah/8}, squared three times
    E = np.array(phis)
    for _ in range(3):
        E = np.matmul(E, E)
    # the corrections of the last pre-reframe row, the post row and the
    # end, each a block of every offset's; row 0 of a block is the own q
    c = np.array([trace.correction[[_PRE, _POST, _END]] for trace in traces])
    tol = TOL_LIMIT * np.abs(omega_u).max(axis=1)
    predicted = correction_limits(W, omega_u, r, np.array(offsets))
    # the pre-reframe terminal, the first post-reframe and the
    # post-reframe terminal frequencies
    pre, first, end = np.moveaxis(omega_u[:, None] + c[:, :, 0], 1, 0)
    frequency_gap = np.maximum(
        _peak(end - consensus(z, q + omega_u)[:, None]), _peak(pre - end))
    jump, settle = first - pre, end - first
    # near-zero jumps carry no reliable sign; mask them out
    settles = np.all((np.abs(jump) <= 10 * tol[:, None])
                     | (np.sign(settle) == -np.sign(jump)), axis=1)
    # the occupancies at the pre-reframe row and at the end, against their
    # limit and the offsets, each member's edges end to end
    inc = joined_incidence([system.inc for system in systems])
    lam = np.concatenate([system.params.lam for system in systems])
    theta = np.array([trace.theta[[_PRE, _END], 0] for trace in traces])
    centered = theta - theta.mean(axis=-1, keepdims=True)
    beta = inc.edge_diff(np.swapaxes(centered, 0, 1).reshape(2, S * n))
    beta += lam
    beta -= np.array([
        occupancy_limits(stack(lambda s: s.sd.group_inverse),
                         omega_u + q + r, lam, inc),
        np.concatenate([system.params.beta_off for system in systems])])
    edges = np.cumsum([0] + [system.inc.m for system in systems[:-1]])
    occupancy_gap, centering_gap = np.maximum.reduceat(
        np.abs(beta), edges, axis=1)
    # the identities
    scale = np.maximum(1.0, _peak(A))
    identity_gap = np.max([_peak(np.matmul(z[:, None], A)) / scale,
                           _peak(np.matmul(W, W) - W),
                           _peak(np.matmul(W, A)) / scale,
                           _peak(np.matmul(A, W)) / scale], axis=0)
    return [Residuals(*row) for row in zip(
        [sc.params.beta_off is not None for sc in scenarios],
        misfit.tolist(), np.maximum(1.0, _peak(r)).tolist(),
        [system.sd.horizon() for system in systems],
        _peak(E - W).tolist(), tol.tolist(),
        _peak(c[:, 0] - predicted).tolist(), occupancy_gap.tolist(),
        frequency_gap.tolist(), settles.tolist(), centering_gap.tolist(),
        identity_gap.tolist(), stochastic.tolist(),
        _is_diagonalizable(A).tolist())]


def _sizes(systems) -> list:
    """The places of the prepared ones of `systems`, one list per size n,
    in order; every other place holds the error `prepare` raised."""
    places = [i for i, system in enumerate(systems)
              if not isinstance(system, Exception)]
    return [[places[j] for j in members] for members in
            by_size([systems[i].clm for i in places]).values()]


def _evaluate(scenarios) -> list:
    """The outcome of each of `scenarios`: its Residuals, or the
    TopologyError or SpectralError `prepare` raised for it.  One
    `prepare_all` and one `exact_flow_operators` call, for every accepted
    system's sample operator e^{A h/8}, serve them all; then each size n
    takes one `run_horizon_reframes` call, which runs every offset of a
    scenario at once with a fixed-time reframe at the horizon, and one
    `_residuals` pass.  Neither the closed loop nor its spectral data read
    q, so one solve and one sample operator serve every offset.  No
    system outlives the pass."""
    systems = prepare_all([(sc.topology, sc.params, sc.theta0)
                           for sc in scenarios])
    outcomes = list(systems)
    sizes = _sizes(systems)
    placed = [i for group in sizes for i in group]
    phis = dict(zip(placed, exact_flow_operators(
        [systems[i].clm for i in placed],
        [horizon_sample_interval(systems[i]) for i in placed])))
    for group in sizes:
        sized = [systems[i] for i in group]
        sized_phis = [phis[i] for i in group]
        offsets = [scenarios[i].offsets() for i in group]
        traces = run_horizon_reframes(
            [replace(system, params=system.params.with_q(q))
             for system, q in zip(sized, offsets)], sized_phis)
        for i, residuals in zip(group, _residuals(
                [scenarios[i] for i in group], sized, sized_phis, traces,
                offsets)):
            outcomes[i] = residuals
    return outcomes


@dataclass(frozen=True)
class Verdict:
    check: str
    status: str
    residual: float | None = None
    tolerance: float | None = None
    detail: str = ""

    def row(self) -> dict:
        """The fields by name, in order: asdict's dict without its deep
        copy, since every field is a flat value."""
        return dict(vars(self))


def _check(name: str):
    """Makes `check(scenario)` of `body(residuals)`, which gives the rest
    of the Verdict's fields from the scenario's outcome; a scenario that
    `prepare` rejected gets the invalid-scenario verdict."""
    def wrap(body):
        @wraps(body)
        def check(scenario: Scenario) -> Verdict:
            outcome = scenario.outcome
            if isinstance(outcome, Exception):
                return Verdict(name, INVALID, detail=str(outcome))
            return Verdict(name, *body(outcome))
        return check
    return wrap


@_check("feasible-residual-in-range")
def check_feasible_residual(res: Residuals) -> tuple:
    """Feasible offsets put the residual r in the range of A.  The misfit of
    the least-squares Ax = -r, r's projection onto null(A^T) = span(z), has
    the largest entry |z.r| max z / z.z."""
    tol = TOL_RANGE * res.range_scale
    if res.range_misfit <= tol:
        return PASS, res.range_misfit, tol
    if res.explicit_offsets:
        return NOT_APPLICABLE, res.range_misfit, tol, "infeasible init"
    return FAIL, res.range_misfit, tol


@_check("projector-limit")
def check_projector_limit(res: Residuals) -> tuple:
    """e^{At} approaches the rank-one projector 1 z^T.

    e^{Ah} is the run's sample operator e^{Ah/8} squared three times: the
    same bits as matrix_exponential(clm, h), which squares the same Pade
    approximant of A h 2^-s, s >= 3 times, since h = 50 / |Re lambda_2|
    makes ||Ah||_1 >= 50 > 8 theta_13."""
    gap = res.projector_gap
    return (PASS if gap <= TOL_LIMIT else FAIL, gap, TOL_LIMIT,
            f"horizon {res.horizon:.6g}")


@_check("correction-limit")
def check_correction_limit(res: Residuals) -> tuple:
    """Simulated correction converges to its affine map of q, for the
    scenario's own q (zero in the battery) and a few random offsets."""
    worst, tol = res.correction_gap, res.limit_tolerance
    return PASS if worst <= tol else FAIL, worst, tol


@_check("occupancy-limit-pre")
def check_occupancy_limit(res: Residuals) -> tuple:
    """Pre-reframe occupancies converge to the group-inverse prediction."""
    gap = res.occupancy_gap
    return PASS if gap <= TOL_LIMIT else FAIL, gap, TOL_LIMIT


@_check("reframe-frequency")
def check_reframe_frequency(res: Residuals) -> tuple:
    """Post-reframe frequency returns to the pre-reframe consensus value,
    after a jump whose sign the settling transient undoes."""
    worst, tol = res.frequency_gap, res.limit_tolerance
    status = PASS if worst <= tol and res.settles else FAIL
    detail = "" if res.settles else "settling direction does not undo the jump"
    return status, worst, tol, detail


@_check("reframe-centering")
def check_reframe_centering(res: Residuals) -> tuple:
    """Post-reframe occupancies land back on the offsets (needs feasibility)."""
    gap = res.centering_gap
    return PASS if gap <= TOL_CENTERING else FAIL, gap, TOL_CENTERING


@_check("spectral-identities")
def check_spectral_identities(res: Residuals) -> tuple:
    """z^T A = 0, W^2 = W, WA = AW = 0, and e^{At} row-stochastic."""
    worst = res.identity_gap
    status = PASS if worst <= TOL_ALGEBRA and res.stochastic else FAIL
    detail = "" if res.stochastic else "matrix exponential not row-stochastic"
    return status, worst, TOL_ALGEBRA, detail


ALL_CHECKS = (check_feasible_residual, check_projector_limit,
              check_correction_limit, check_occupancy_limit,
              check_reframe_frequency, check_reframe_centering,
              check_spectral_identities)


def make_random_scenario(seed: int, n_range=(2, 8)) -> Scenario:
    """Strongly connected random scenario with feasible offsets and q = 0."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    frac = float(rng.uniform(0.0, EXTRA_EDGE_MAX))
    topology = generate_topology("random-strong", n, seed=seed,
                                 extra_edge_fraction=frac)
    params = make_system_params(
        topology,
        k=float(rng.uniform(*K_RANGE)),
        omega_u=rng.uniform(*OMEGA_RANGE, size=n),
        lam=rng.uniform(8.0, 12.0, size=topology.m),
    )
    theta0 = rng.uniform(-1.0, 1.0, size=n)
    return Scenario(topology=topology, params=params, theta0=theta0, seed=seed)


def make_infeasible_scenario(seed: int, n_range=(2, 8)) -> Scenario:
    """Same distribution, but beta_off is held one frame below a feasible
    value on the first edge, so r leaves the range of A; below, so that the
    edge's destination clock starts faster, never at omega <= 0."""
    base = make_random_scenario(seed, n_range)
    inc = IncidenceSet(base.topology.n, *edge_endpoints(base.topology))
    feasible = inc.edge_diff(base.theta0) + base.params.lam
    bump = np.zeros(base.topology.m)
    bump[0] = -1.0
    params = base.params.with_beta_off(feasible + bump)
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


def _is_diagonalizable(A: np.ndarray, tol: float = 1e8):
    """Whether A has a well-conditioned eigenbasis; for a (K, n, n) stack,
    one flag per matrix, from one `eig` and one `cond`."""
    _, vecs = np.linalg.eig(A)
    return np.linalg.cond(vecs) < tol


def _last_non_diagonalizable(scenarios) -> dict | None:
    """The fingerprint of the last of `scenarios` whose outcome has a
    closed loop that is not diagonalizable, or None."""
    for sc in reversed(scenarios):
        if isinstance(sc.outcome, Residuals) and not sc.outcome.diagonalizable:
            return sc.fingerprint()
    return None


def run_battery(count: int = 100, seed: int = 0, n_range=(2, 8),
                infeasible_count: int | None = None) -> dict:
    """Run every check over `count` random scenarios plus negative controls.

    Returns a JSON-ready report; report["all_pass"] drives the process exit
    code.  Scenario fingerprints (seed, n, m, k) make failures reproducible.
    """
    t_start = time.perf_counter()
    scenarios = [make_random_scenario(seed + i, n_range)
                 for i in range(count)]
    if count > 0:
        scenarios.append(_defective_scenario())
    scenarios.sort(key=lambda s: s.seed)
    if infeasible_count is None:
        infeasible_count = min(count, 20)
    controls = [make_infeasible_scenario(seed + 10_000 + i, n_range=n_range)
                for i in range(infeasible_count)]
    # every scenario is prepared, its run's operator built, its run stepped
    # and its residuals worked out, stacked by n
    outcomes = _evaluate(scenarios + controls)
    for sc, outcome in zip(scenarios + controls, outcomes):
        vars(sc)["outcome"] = outcome
    non_diag = _last_non_diagonalizable(scenarios)

    rows = []
    worst: dict[str, float] = {}
    counts: dict[str, dict[str, int]] = {}
    for sc in scenarios:
        verdicts = [chk(sc) for chk in ALL_CHECKS]
        rows.append({"scenario": sc.fingerprint(),
                     "verdicts": [v.row() for v in verdicts]})
        for v in verdicts:
            counts.setdefault(v.check, {}).setdefault(v.status, 0)
            counts[v.check][v.status] += 1
            if v.residual is not None:
                worst[v.check] = max(worst.get(v.check, 0.0), v.residual)

    negative_rows = []
    uncentered = 0
    for sc in controls:
        feas = check_feasible_residual(sc)
        centering = check_reframe_centering(sc)
        # the negative control passes when centering fails measurably
        control_ok = (centering.status == FAIL
                      and centering.residual > INFEASIBLE_MIN_GAP)
        uncentered += int(control_ok)
        negative_rows.append({"scenario": sc.fingerprint(),
                              "feasibility": feas.row(),
                              "centering": centering.row(),
                              "control_ok": control_ok})

    positives_ok = all(v["status"] in (PASS, NOT_APPLICABLE)
                       for row in rows for v in row["verdicts"])
    negatives_ok = (infeasible_count == 0
                    or uncentered >= int(np.ceil(0.9 * infeasible_count)))
    negatives_na_ok = all(r["feasibility"]["status"] == NOT_APPLICABLE
                          for r in negative_rows)

    return {
        "settings": {"count": count, "seed": seed, "n_range": list(n_range),
                     "k_range": list(K_RANGE), "omega_range": list(OMEGA_RANGE),
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
