import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from bittide_sim import (SpectralError, Topology, build_closed_loop,
                         build_incidence, generate_topology, make_system_params,
                         matrix_exponential, metzler_eigenvector, observe,
                         predict_beta_ss, predict_omega_ss, prepare, spectral,
                         steady_state_correction)
from bittide_sim.config import parse_config
from bittide_sim.graph import joined_incidence
from bittide_sim.verify import make_random_scenario
from conftest import prepared, random_scenario, spectral_setup

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

ALG_TOL = 1e-10  # algebraic identities
LIM_TOL = 1e-8   # limits approximated at finite horizon


def integrate_raw_loop(inc, params, theta0, horizon):
    """Independent oracle: integrate the un-collapsed loop
    theta' = omega_u + k D (B^T theta + lambda - beta_off) + q
    with a generic ODE solver."""
    def rhs(_t, theta):
        beta = inc.B.T @ theta + params.lam
        c = params.k * (inc.D @ (beta - params.beta_off)) + params.q
        return params.omega_u + c

    sol = scipy.integrate.solve_ivp(rhs, (0.0, horizon), np.asarray(theta0, float),
                                    rtol=1e-12, atol=1e-12, dense_output=True)
    assert sol.success
    return sol.y[:, -1]


def test_a_single_node_prepares_and_only_its_decay_rate_raises(e1):
    # e1's spectrum is {0, -2k}, so its rate is 2k; a single node has no
    # stable eigenvalue: `prepare` accepts it, and only the horizon fails
    sd = e1[4]
    assert sd.decay_rate() == sd.decay == pytest.approx(0.2, rel=1e-12)
    assert sd.horizon() == 50.0 / sd.decay_rate()
    topology = Topology(n=1, edges=[])
    single = prepare(topology, make_system_params(topology, k=0.5,
                                                  omega_u=1.0)).sd
    assert single.decay is None
    for read in (single.decay_rate, single.horizon, single.decay_rate):
        with pytest.raises(SpectralError, match="no stable eigenvalues"):
            read()


def _two_blocks(eps):
    """Two pairs of nodes, each coupled at rate 1, joined by edges of rate
    eps: lambda_2 is about -eps."""
    topology = Topology(n=4, edges=[(1, 2), (2, 1), (3, 4), (4, 3), (4, 1),
                                    (2, 3)])
    A = np.array([[-(1 + eps), 1, 0, eps], [1, -1, 0, 0],
                  [0, eps, -(1 + eps), 1], [0, 0, 1, -1]])
    return spectral.ClosedLoopMatrix(A=A, r=np.zeros(4), k=1.0,
                                     inc=build_incidence(topology))


@pytest.mark.parametrize("eps", [1e-9, 1.5e-9])
def test_the_decay_rate_is_the_eigenvalue_the_count_accepted(eps):
    # the count accepts lambda_2 ~ -eps below -1e-9 max(|A|, 1); a second
    # scan against -1e-9 max |lambda| = -2e-9 took -2 for lambda_2, and the
    # horizon came out 25 in place of about 50 / eps
    clm = _two_blocks(eps)
    eigenvalues = np.linalg.eigvals(clm.A).real
    accepted = eigenvalues[eigenvalues < -1e-9 * max(np.abs(clm.A).max(), 1)]
    assert accepted.size == 3
    sd = metzler_eigenvector(clm)
    assert sd.decay_rate() == -accepted.max()
    assert sd.decay_rate() == pytest.approx(eps, rel=1e-6)
    assert sd.horizon() == pytest.approx(50.0 / eps, rel=1e-6)


def test_two_cycle_closed_loop(e1):
    _, _, _, clm, _ = e1
    np.testing.assert_allclose(clm.A, [[-0.1, 0.1], [0.1, -0.1]], atol=1e-15)
    np.testing.assert_array_equal(clm.r, [0.0, 0.0])


MULTIGRAPH = Topology(n=3, edges=[(1, 2), (1, 2), (2, 3), (3, 1)])


def test_ring_chord_closed_loop_hand_expansion(ring3_chord):
    # row i of A picks up +k per in-edge source and -k * in-degree on the
    # diagonal; each of the multigraph's parallel edges into node 2 counts
    for topology, hand in ((ring3_chord, [[-1, 0, 1], [1, -1, 0], [1, 1, -2]]),
                           (MULTIGRAPH, [[-1, 0, 1], [2, -2, 0], [0, 1, -1]])):
        inc = build_incidence(topology)
        params = make_system_params(topology, k=1.0, omega_u=1.0, beta_off=10.0)
        clm = build_closed_loop(inc, params)
        np.testing.assert_allclose(clm.A, hand, atol=0)
        np.testing.assert_allclose(clm.A, params.k * inc.D @ inc.B.T, atol=0)


@pytest.mark.parametrize("topology", [
    Topology(n=3, edges=[(1, 2), (2, 3), (3, 1), (1, 3)]), MULTIGRAPH],
    ids=["ring3-chord", "multigraph"])
def test_residual_and_occupancy_match_dense_incidence(topology):
    params = make_system_params(topology, k=0.3, omega_u=[1.0, 1.01, 0.99],
                                lam=[10.0, 9.5, 10.25, 11.0])
    s = prepare(topology, params, theta0=[0.7, -0.2, 0.35])
    inc, params, clm = s.inc, s.params, s.clm
    np.testing.assert_array_equal(
        clm.r, params.k * (inc.D @ (params.lam - params.beta_off)))
    theta = np.array([40.1, 39.7, 40.45])
    _, _, beta = observe(theta, params, clm)
    np.testing.assert_array_equal(beta, inc.B.T @ (theta - theta.mean()) + params.lam)


def test_feasible_offsets_give_r_equal_minus_A_theta0(two_cycle):
    inc, params, clm, _ = spectral_setup(two_cycle, k=0.3, omega_u=[1.0, 1.01],
                                         theta0=[0.7, -0.2])
    np.testing.assert_allclose(clm.r, -clm.A @ np.array([0.7, -0.2]), atol=1e-14)


def test_build_closed_loop_requires_positive_gain(two_cycle):
    inc = build_incidence(two_cycle)
    params = make_system_params(two_cycle, k=0.0, omega_u=1.0, beta_off=10.0)
    with pytest.raises(ValueError, match="k must be positive"):
        build_closed_loop(inc, params)


def test_build_closed_loop_rejects_dimension_mismatch(two_cycle, ring3):
    params_for_ring = make_system_params(ring3, k=0.5, omega_u=1.0, beta_off=10.0)
    with pytest.raises(ValueError, match="shape"):
        build_closed_loop(build_incidence(two_cycle), params_for_ring)


def test_metzler_eigenvector_symmetric_pair(e1):
    _, _, _, _, sd = e1
    np.testing.assert_allclose(sd.z, [0.5, 0.5], atol=1e-14)


def test_metzler_eigenvector_ring3(ring3):
    _, _, _, sd = spectral_setup(ring3, k=1.0, omega_u=1.0)
    np.testing.assert_allclose(sd.z, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_metzler_eigenvector_ring_chord(ring3_chord):
    # z solves z^T A = 0 for A = [[-1,0,1],[1,-1,0],[1,1,-2]]
    _, _, clm, sd = spectral_setup(ring3_chord, k=1.0, omega_u=1.0)
    np.testing.assert_allclose(sd.z, [0.5, 0.25, 0.25], atol=1e-12)
    # cross-check against a dense eigensolver's left null vector
    w, vl = la.eig(clm.A, left=True, right=False)
    z_ref = np.real(vl[:, np.argmin(np.abs(w))])
    z_ref = z_ref / z_ref.sum()
    np.testing.assert_allclose(sd.z, z_ref, atol=1e-10)


def test_reducible_graph_rejected():
    topo = Topology(n=2, edges=[(1, 2)])
    inc = build_incidence(topo)
    params = make_system_params(topo, k=0.5, omega_u=1.0, beta_off=5.0)
    clm = build_closed_loop(inc, params)
    with pytest.raises(SpectralError, match="not strongly connected"):
        metzler_eigenvector(clm)


@st.composite
def closed_loops(draw):
    """A closed loop of the battery's distribution, or of a random digraph
    on 2-6 nodes that need not be strongly connected."""
    if draw(st.booleans(), label="battery"):
        return prepared(make_random_scenario(
            draw(st.integers(0, 10**6)))).clm
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1,
                          max_size=2 * n, unique=True))
    topology = Topology(n=n, edges=edges)
    params = make_system_params(topology, k=draw(st.sampled_from([0.05, 1.0])),
                                omega_u=1.0, beta_off=10.0)
    return build_closed_loop(build_incidence(topology), params)


@settings(max_examples=150, deadline=None)
@given(clms=st.lists(closed_loops(), min_size=1, max_size=8))
def test_stacked_solve_gives_each_closed_loop_its_one_item_call(clms):
    # the stack of each size gives every matrix the bits of its own call,
    # and a matrix the tests reject its own error, whatever it is stacked with
    stacked = spectral.metzler_eigenvectors(clms)
    assert len(stacked) == len(clms)
    for clm, entry in zip(clms, stacked):
        try:
            alone = metzler_eigenvector(clm)
        except SpectralError as exc:
            assert isinstance(entry, SpectralError)
            assert str(entry) == str(exc)
            with pytest.raises(SpectralError, match=str(exc)):
                metzler_eigenvector(clm, entry)
            continue
        assert metzler_eigenvector(clm, entry) is entry
        for name in ("z", "W", "group_inverse"):
            mine, own = getattr(entry, name), getattr(alone, name)
            assert mine.dtype == own.dtype and mine.shape == own.shape
            assert mine.tobytes() == own.tobytes(), name
        assert np.float64(entry.decay).tobytes() == np.float64(
            alone.decay).tobytes()


def test_disconnected_components_rejected():
    topo = Topology(n=4, edges=[(1, 2), (2, 1), (3, 4), (4, 3)])
    clm = build_closed_loop(build_incidence(topo),
                            make_system_params(topo, k=1.0, omega_u=1.0, beta_off=1.0))
    with pytest.raises(SpectralError, match="not strongly connected"):
        metzler_eigenvector(clm)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_spectral_identities_on_random_graphs(seed):
    topology, params, theta0 = random_scenario(seed)
    inc, params, clm, sd = spectral_setup(topology, params.k, params.omega_u,
                                          lam=params.lam, theta0=theta0)
    n = inc.n
    A, z, W, G = clm.A, sd.z, sd.W, sd.group_inverse
    scale = np.abs(A).max()
    # rate matrix: exact zero row sums, nonnegative off-diagonals
    assert np.abs(A.sum(axis=1)).max() <= 1e-14 * clm.k * inc.max_in_degree()
    off = A - np.diag(np.diag(A))
    assert off.min() >= 0
    # Metzler eigenvector and projector identities
    assert np.abs(z @ A).max() <= 1e-12 * scale
    assert z.min() > 0
    assert abs(z.sum() - 1) <= 1e-12
    # the SVD's null vector of A^T is an oracle independent of the bordered
    # solve that produced z
    z_svd = np.linalg.svd(A.T)[2][-1]
    np.testing.assert_allclose(z, z_svd / z_svd.sum(), rtol=0, atol=1e-12)
    assert np.abs(W @ W - W).max() <= ALG_TOL
    assert np.abs(W @ A).max() <= ALG_TOL * scale
    assert np.abs(A @ W).max() <= ALG_TOL * scale
    # group inverse identities
    I = np.eye(n)
    assert np.abs(G @ A - (I - W)).max() <= 1e-9
    assert np.abs(A @ G - (I - W)).max() <= 1e-9
    assert np.abs(G @ W).max() <= 1e-9
    assert np.abs(W @ G).max() <= 1e-9
    # stable part reproduces A and its inverse route reproduces G; the
    # sorted real Schur form is an oracle independent of the bordered solve
    T, Q, _ = la.schur(A, output="real",
                       sort=lambda re, im: re < -1e-9 * max(scale, 1.0))
    T2, Lam = Q[:, : n - 1], T[: n - 1, : n - 1]
    V2 = np.linalg.inv(np.column_stack([np.ones(n), T2]))[1:, :].T
    assert np.abs(T2 @ Lam @ V2.T - A).max() <= 1e-10 * max(scale, 1.0)
    G_schur = T2 @ np.linalg.solve(Lam, V2.T)
    assert np.abs(G - G_schur).max() <= 1e-9
    assert max(np.linalg.eigvals(Lam).real) < 0
    # feasibility puts r in the range of A, so W r vanishes
    assert np.abs(W @ clm.r).max() <= 1e-10 * max(1.0, np.abs(clm.r).max())


def test_predict_omega_ss_two_node_average(e1):
    _, _, params, _, sd = e1
    np.testing.assert_allclose(predict_omega_ss(sd, params), [1.01, 1.01],
                               atol=1e-14)


def test_predict_omega_ss_consensus_of_equal_inputs(ring3_chord):
    _, params, _, sd = spectral_setup(ring3_chord, k=1.0, omega_u=1.0)
    np.testing.assert_allclose(predict_omega_ss(sd, params), np.ones(3), atol=1e-13)


def test_predict_omega_ss_weighted(ring3_chord):
    inc, params, clm, sd = spectral_setup(ring3_chord, k=1.0,
                                          omega_u=[0.96, 1.00, 1.08])
    expected = 0.5 * 0.96 + 0.25 * 1.00 + 0.25 * 1.08  # z = (1/2, 1/4, 1/4)
    np.testing.assert_allclose(predict_omega_ss(sd, params),
                               np.full(3, expected), atol=1e-13)
    assert np.ptp(predict_omega_ss(sd, params)) == 0.0
    # long-horizon cross-check of the weighted average
    theta_end = integrate_raw_loop(inc, params, np.zeros(3), horizon=30.0)
    beta = inc.B.T @ theta_end + params.lam
    c = params.k * (inc.D @ (beta - params.beta_off))
    np.testing.assert_allclose(params.omega_u + c, np.full(3, expected),
                               atol=1e-9)


def test_correction_map_two_node(e1):
    _, _, params, clm, sd = e1
    f0 = steady_state_correction(sd, clm, params, q=np.zeros(2))
    np.testing.assert_allclose(f0, [0.01, -0.01], atol=1e-14)


def test_correction_map_uniform_clocks_is_zero(ring3):
    _, params, clm, sd = spectral_setup(ring3, k=0.4, omega_u=1.0)
    f0 = steady_state_correction(sd, clm, params, q=np.zeros(3))
    np.testing.assert_allclose(f0, np.zeros(3), atol=1e-13)


def test_correction_map_fixed_point_under_feasibility(e1):
    _, _, params, clm, sd = e1
    f0 = steady_state_correction(sd, clm, params, q=np.zeros(2))
    ff0 = steady_state_correction(sd, clm, params, q=f0)
    np.testing.assert_allclose(ff0, (sd.W - np.eye(2)) @ params.omega_u,
                               atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_correction_map_is_affine_in_q(seed):
    topology, params, theta0 = random_scenario(seed)
    inc, params, clm, sd = spectral_setup(topology, params.k, params.omega_u,
                                          lam=params.lam, theta0=theta0)
    rng = np.random.default_rng(seed + 1)
    q1 = rng.normal(size=inc.n)
    q2 = rng.normal(size=inc.n)
    lhs = (steady_state_correction(sd, clm, params, q1)
           - steady_state_correction(sd, clm, params, q2))
    np.testing.assert_allclose(lhs, sd.W @ (q1 - q2), atol=1e-11)


def test_predict_beta_ss_consensus_input_gives_lambda(ring3_chord):
    _, params, clm, sd = spectral_setup(ring3_chord, k=1.0, omega_u=1.0)
    np.testing.assert_allclose(predict_beta_ss(sd, clm, params), params.lam,
                               atol=1e-12)


def test_predict_beta_ss_two_node_equilibrium(e1):
    # equilibrium algebra: c_ss = (0.01, -0.01) = k (beta_ss - beta_off)
    # summed per destination forces beta_ss = (9.9, 10.1)
    _, _, params, clm, sd = e1
    np.testing.assert_allclose(predict_beta_ss(sd, clm, params), [9.9, 10.1],
                               atol=1e-12)


def test_predict_beta_ss_matches_ode_oracle(ring3_chord):
    inc, params, clm, sd = spectral_setup(ring3_chord, k=1.0,
                                          omega_u=[0.98, 1.00, 1.05],
                                          theta0=[0.3, -0.2, 0.1])
    pred = predict_beta_ss(sd, clm, params)
    theta_end = integrate_raw_loop(inc, params, [0.3, -0.2, 0.1], horizon=40.0)
    beta_end = inc.B.T @ theta_end + params.lam
    np.testing.assert_allclose(pred, beta_end, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_predict_beta_ss_cycle_sums_vanish(seed):
    # beta_ss - lambda lies in range(B^T): summed around any directed cycle it
    # cancels; the generator's ring is one such cycle
    topology, params, theta0 = random_scenario(seed)
    inc, params, clm, sd = spectral_setup(topology, params.k, params.omega_u,
                                          lam=params.lam, theta0=theta0)
    rel = predict_beta_ss(sd, clm, params) - params.lam
    ring_edges = list(range(topology.n))  # generator emits the ring first
    assert abs(rel[ring_edges].sum()) <= 1e-9


def test_matrix_exponential_identity_at_zero(e1):
    _, _, _, clm, _ = e1
    np.testing.assert_allclose(matrix_exponential(clm, 0.0), np.eye(2), atol=0)


def test_matrix_exponential_two_node_closed_form(e1):
    _, _, _, clm, _ = e1
    # symmetric 2x2: e^{At} = W + exp(-2kt)(I - W)
    e = np.exp(-1.0)
    expected = 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])
    np.testing.assert_allclose(matrix_exponential(clm, 5.0), expected, atol=1e-14)


def test_matrix_exponential_rejects_negative_time(e1):
    _, _, _, clm, _ = e1
    with pytest.raises(ValueError):
        matrix_exponential(clm, -1.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), scale=st.sampled_from([0.1, 1.0, 10.0]))
def test_matrix_exponential_row_stochastic(seed, scale):
    topology, params, theta0 = random_scenario(seed)
    _, params, clm, sd = spectral_setup(topology, params.k, params.omega_u,
                                        lam=params.lam, theta0=theta0)
    E = matrix_exponential(clm, scale / sd.decay_rate())
    assert np.abs(E.sum(axis=1) - 1).max() <= 1e-10
    assert E.min() >= -1e-12


def test_matrix_exponential_long_time_limit(e1):
    _, _, _, clm, sd = e1
    E = matrix_exponential(clm, sd.horizon())  # 50 e-folds at rate 0.2 -> t = 250
    assert np.abs(E - sd.W).max() <= 1e-8


# Higham (2005), Table 2.3: the largest ||X||_1 served by the degree
# 3, 5, 7, 9 and 13 Pade approximants without scaling
PADE_THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
              2.097847961257068e0, 5.371920351148152e0)


def _random_strong(n, fraction=0.1):
    topology = generate_topology("random-strong", n, seed=0,
                                 extra_edge_fraction=fraction)
    omega_u = np.random.default_rng(0).uniform(0.98, 1.02, size=n)
    return prepare(topology, make_system_params(topology, k=0.2, omega_u=omega_u))


@pytest.fixture(scope="module")
def rate_matrices():
    clms = {path.stem: parse_config(path).system().clm
            for path in sorted(CONFIG_DIR.glob("*.json"))}
    for n in (2, 8, 64, 256):
        clms[f"random-strong-{n}"] = _random_strong(n).clm
    return clms


def test_matrix_exponential_agrees_with_scipy(rate_matrices):
    # ||At||_1 inside each degree's band, at and just past each theta_m, and
    # at the top of each scaling s = 1 .. 10
    inside = [0.5 * PADE_THETA[0]] + [0.5 * (a + b) for a, b in
                                       zip(PADE_THETA, PADE_THETA[1:])]
    edges = [x for theta in PADE_THETA for x in (theta, theta * (1 + 1e-12))]
    scaled = [PADE_THETA[-1] * 2.0 ** s for s in range(1, 11)]
    for name, clm in rate_matrices.items():
        norm1 = np.abs(clm.A).sum(axis=0).max()
        for norm in inside + edges + scaled:
            t = norm / norm1
            E = matrix_exponential(clm, t)
            scale = max(1.0, np.abs(E).sum(axis=1).max())
            assert np.abs(E - la.expm(clm.A * t)).max() <= 1e-13 * scale, (name, norm)
            # each squaring doubles the row sums' rounding error, in scipy's
            # expm too (2.0e-13 on random-strong-256 at s = 10)
            if norm <= PADE_THETA[-1] * 2.0 ** 9:
                assert np.abs(E.sum(axis=1) - 1).max() <= 1e-13, (name, norm)
        assert matrix_exponential(clm, 0.0).tobytes() == np.eye(clm.n).tobytes()


# Higham's choice in bands of ||At||_1, as (lower, upper]: degrees 3, 5, 7, 9
# and 13 unscaled, then degree 13 with s = 1 .. 8 squarings
PADE_BANDS = list(zip((0.0,) + PADE_THETA[:-1], PADE_THETA)) + [
    (PADE_THETA[-1] * 2.0 ** (s - 1), PADE_THETA[-1] * 2.0 ** s)
    for s in range(1, 9)]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_stacked_exponentials_equal_single_calls_bit_for_bit(data):
    # K = 1-5 battery closed loops, each at a time inside a drawn band; the
    # stacked call groups them by size, degree and scaling, and must give
    # every matrix the bits of its own call, in mixed and shared groups
    K = data.draw(st.integers(1, 5), label="K")
    seeds = data.draw(st.lists(st.integers(0, 10**6), min_size=K,
                               max_size=K), label="seeds")
    if data.draw(st.booleans(), label="one closed loop"):
        seeds = seeds[:1] * K
    shared = data.draw(st.sampled_from([None] + PADE_BANDS), label="band")
    clms = [prepared(make_random_scenario(seed)).clm for seed in seeds]
    times = []
    for clm in clms:
        low, high = shared or data.draw(st.sampled_from(PADE_BANDS))
        fraction = data.draw(st.floats(0.0, 1.0, exclude_min=True))
        times.append((low + fraction * (high - low))
                     / np.abs(clm.A).sum(axis=0).max())
    stacked = spectral.matrix_exponentials(clms, times)
    assert len(stacked) == K
    for clm, t, E in zip(clms, times, stacked):
        assert E.tobytes() == matrix_exponential(clm, t).tobytes()


def test_stacked_exponentials_cover_every_band_in_one_call():
    # the battery's three identity spans and every band's midpoint, for
    # closed loops of several sizes, two of each size: one call, and each
    # (n, degree, s) group a stack of at least two
    scenarios = [make_random_scenario(seed) for seed in range(40)]
    by_n = {}
    for sc in scenarios:
        by_n.setdefault(sc.topology.n, []).append(prepared(sc))
    systems = [s for group in by_n.values() if len(group) > 1
               for s in group[:2]]
    assert len({s.clm.n for s in systems}) >= 5
    clms, times = [], []
    for system in systems:
        norm1 = np.abs(system.clm.A).sum(axis=0).max()
        spans = [x / system.sd.decay_rate() for x in (0.1, 1.0, 10.0)]
        spans += [0.5 * (low + high) / norm1 for low, high in PADE_BANDS]
        clms += [system.clm] * len(spans)
        times += spans
    choices = {spectral._scaling(t * np.abs(c.A).sum(axis=0).max())
               for c, t in zip(clms, times)}
    assert choices >= {(degree, 0) for degree in range(5)} | {
        (4, s) for s in range(1, 9)}
    for clm, t, E in zip(clms, times,
                         spectral.matrix_exponentials(clms, times)):
        assert E.tobytes() == matrix_exponential(clm, t).tobytes()
    with pytest.raises(ValueError, match="t >= 0"):
        spectral.matrix_exponentials(clms[:2], [1.0, -1.0])
    assert spectral.matrix_exponentials(clms[:1], [0.0])[0].tobytes() == \
        np.eye(clms[0].n).tobytes()


def test_matrix_exponential_working_set():
    # at most eight n x n arrays live at once, the result included, in the
    # bands of degrees 5 to 13 and with three squarings
    n = 256
    system = _random_strong(n)
    norm1 = np.abs(system.clm.A).sum(axis=0).max()
    spans = [0.5 * (a + b) / norm1 for a, b in zip(PADE_THETA, PADE_THETA[1:])]
    spans.append(8 * PADE_THETA[-1] / norm1)
    matrix_exponential(system.clm, spans[-1])
    tracemalloc.start()
    try:
        for t in spans:
            tracemalloc.reset_peak()
            E = matrix_exponential(system.clm, t)
            _, peak = tracemalloc.get_traced_memory()
            del E
            assert peak <= 8 * n * n * 8, (t, peak / (n * n * 8))
    finally:
        tracemalloc.stop()


def test_group_inverse_prediction_on_defective_matrix(ring3_chord):
    # A here has eigenvalue -2 with algebraic multiplicity 2 but a single
    # eigenvector; the Schur-based stable part must still price the limit
    inc, params, clm, sd = spectral_setup(ring3_chord, k=1.0,
                                          omega_u=[0.98, 1.00, 1.05],
                                          theta0=[0.3, -0.2, 0.1])
    evals = np.sort(np.linalg.eigvals(clm.A).real)
    np.testing.assert_allclose(evals, [-2.0, -2.0, 0.0], atol=1e-12)
    eigvec_rank = np.linalg.matrix_rank(clm.A + 2.0 * np.eye(3), tol=1e-9)
    assert eigvec_rank == 2  # nullity 1 < multiplicity 2: defective
    G = sd.group_inverse
    assert np.abs(G @ clm.A - (np.eye(3) - sd.W)).max() <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_bordered_matrix_equals_np_block_bit_for_bit(seed):
    # both bordered solves of metzler_eigenvector, on a random closed loop
    system = prepare(*random_scenario(seed))
    clm, sd = system.clm, system.sd
    for M, row in ((clm.A.T, np.ones(clm.n)), (clm.A, sd.z)):
        reference = np.block([[M, np.ones((len(row), 1))], [row, 0.0]])
        bordered = spectral._bordered(M, row)
        assert bordered.shape == reference.shape
        assert bordered.tobytes() == reference.tobytes()


@settings(max_examples=30, deadline=None)
@given(seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
       n=st.sampled_from([2, 5, 24]))
def test_stacked_predictions_equal_each_matrix_alone(seeds, n):
    # the predictions' kernels take a matrix or a stack; each member of a
    # stack gets the bits of the `predict_*` call on its own, and those get
    # the bits of the products written out
    systems = [prepared(make_random_scenario(seed, (n, n)))
               for seed in seeds]
    rng = np.random.default_rng(seeds[0])
    q = rng.normal(scale=0.01, size=(len(systems), 4, n))
    z, W, G, r, omega_u, u = (np.array([get(s) for s in systems]) for get in (
        lambda s: s.sd.z, lambda s: s.sd.W, lambda s: s.sd.group_inverse,
        lambda s: s.clm.r, lambda s: s.params.omega_u,
        lambda s: s.params.omega_u + s.params.q + s.clm.r))
    inc = joined_incidence([s.inc for s in systems])
    lam = np.concatenate([s.params.lam for s in systems])
    omega = spectral.consensus(z, omega_u)
    corrections = spectral.correction_limits(W, omega_u, r, q)
    beta = spectral.occupancy_limits(G, u, lam, inc)
    edges = np.cumsum([0] + [s.inc.m for s in systems])
    for i, s in enumerate(systems):
        sd, clm, params = s.sd, s.clm, s.params
        alone = predict_omega_ss(sd, params)
        assert alone.tobytes() == np.full(n, sd.z @ params.omega_u).tobytes()
        assert alone[0] == omega[i]
        alone = steady_state_correction(sd, clm, params, q[i])
        assert alone.tobytes() == ((sd.W - np.eye(n)) @ params.omega_u
                                   + (sd.W @ (q[i] + clm.r).T).T).tobytes()
        assert alone.tobytes() == np.ascontiguousarray(corrections[i]).tobytes()
        row = steady_state_correction(sd, clm, params, q[i, 1])
        assert row.shape == (n,)
        assert row.tobytes() == ((sd.W - np.eye(n)) @ params.omega_u
                                 + sd.W @ (q[i, 1] + clm.r)).tobytes()
        alone = predict_beta_ss(sd, clm, params)
        assert alone.tobytes() == (params.lam - clm.inc.edge_diff(
            sd.group_inverse @ u[i])).tobytes()
        assert alone.tobytes() == beta[edges[i]:edges[i + 1]].tobytes()


N0 = spectral.ARNOLDI_MIN_N


def _large_closed_loop(kind, n, seed, k=0.2):
    topology = generate_topology(
        kind, n, seed=seed,
        extra_edge_fraction=0.1 if kind == "random-strong" else 0.0)
    params = make_system_params(topology, k=k, omega_u=1.0, beta_off=10.0)
    return build_closed_loop(build_incidence(topology), params)


def _eigs_lambda2(clm) -> float:
    """Re lambda_2 by scipy's ARPACK, an oracle apart from the package's
    Arnoldi.  A directed ring's spectrum lies on a circle through 0, where
    the rightmost eigenvalues are the nearest to a small positive shift and
    which="LR" does not converge; shift-invert finds them."""
    from scipy.sparse.linalg import eigs
    A = clm.A
    start = np.ones(clm.n) + np.arange(clm.n) / clm.n
    if np.count_nonzero(A) == 2 * clm.n:    # a directed ring
        values = eigs(A, k=3, sigma=1e-3, v0=start, return_eigenvectors=False)
    else:
        values = eigs(A, k=3, which="LR", ncv=40, maxiter=20000, v0=start,
                      return_eigenvectors=False)
    values = values[values.real < -1e-9 * np.abs(A).max()]
    return float(values.real.max())


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(["random-strong", "complete", "ring",
                             "bidirectional-ring"]),
       n=st.integers(N0, 2 * N0), seed=st.integers(0, 10**6))
def test_lambda2_by_iteration_matches_eigvals_and_eigs(kind, n, seed):
    # from N0 nodes on the decay rate comes from the Arnoldi, or from
    # eigvals where its budget runs out; either matches both oracles
    clm = _large_closed_loop(kind, n, seed)
    sd = metzler_eigenvector(clm)
    if kind in ("random-strong", "complete"):
        assert sd.lambda2 is not None
    dense = np.linalg.eigvals(clm.A)
    dense = dense[dense.real < -1e-9 * np.abs(clm.A).max()].real.max()
    assert sd.decay_rate() == pytest.approx(-dense, rel=1e-10, abs=0)
    assert sd.decay_rate() == pytest.approx(-_eigs_lambda2(clm), rel=1e-10,
                                            abs=0)


@pytest.mark.parametrize("kind", ["random-strong", "complete", "ring",
                                  "bidirectional-ring"])
def test_a_spent_budget_gives_the_dense_path_bit_for_bit(monkeypatch, kind):
    clm = _large_closed_loop(kind, N0, 7)
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "ARNOLDI_MIN_N", 10**9)
        dense = metzler_eigenvector(clm)
    results = []
    rightmost = spectral.rightmost_eigenvalue

    def recorded(*args):
        results.append(rightmost(*args))
        return results[-1]

    monkeypatch.setattr(spectral, "rightmost_eigenvalue", recorded)
    monkeypatch.setattr(spectral, "_PRODUCTS_PER_NODE", 0)
    fallback = metzler_eigenvector(clm)
    assert results == [(None, 0)]
    assert fallback.lambda2 is None is dense.lambda2
    for name in ("z", "W", "group_inverse"):
        mine, own = getattr(fallback, name), getattr(dense, name)
        assert mine.dtype == own.dtype and mine.shape == own.shape
        assert mine.tobytes() == own.tobytes(), name
    assert type(fallback.decay) is type(dense.decay) is float
    assert np.float64(fallback.decay).tobytes() == np.float64(
        dense.decay).tobytes()
    assert fallback.decay_rate() == dense.decay_rate()


def test_arnoldi_finds_lambda2_of_a_complete_graph_from_its_invariant_basis():
    # every eigenvalue but zero is -k n: the Krylov basis closes after two
    # products, and the breakdown is its convergence
    clm = _large_closed_loop("complete", N0, 0)
    z = np.full(N0, 1.0 / N0)
    found, products = spectral.rightmost_eigenvalue(clm.A, z, 2 * N0)
    assert found == pytest.approx(-0.2 * N0, rel=1e-12)
    assert products <= 4


def test_arnoldi_gives_up_on_a_stalled_directed_ring():
    # a directed ring's spectrum lies on a circle through 0, where the
    # residual stalls: the iteration leaves lambda_2 to eigvals long before
    # a budget of 2n products runs out
    n = 4 * N0
    clm = _large_closed_loop("ring", n, 0)
    found, products = spectral.rightmost_eigenvalue(
        clm.A, np.full(n, 1.0 / n), 2 * n)
    assert found is None
    assert products <= 12 * spectral._KRYLOV_DIM < 2 * n
