"""Closed-loop matrix construction and spectral steady-state predictions.

The proportional feedback loop over a directed topology collapses to the
affine system  theta' = A theta + omega_u + q + r  with

    A = k D B^T        r = k D (lambda - beta_off)

A is an irreducible rate matrix whenever the topology is strongly connected:
off-diagonal entries are nonnegative, rows sum to zero, and the zero
(Metzler) eigenvalue is simple with a strictly positive left eigenvector z.
Everything observable in steady state is a closed form in z, the spectral
projector W = 1 z^T, and the group inverse of A on the complement of
span(1).  This module computes those objects and the predictions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graph import IncidenceSet, is_strongly_connected

# zero-eigenvalue detection and positivity checks, relative to matrix scale
_NULL_TOL = 1e-9
# closed loops of at least this many nodes find lambda_2 by restarted Arnoldi
# (`rightmost_eigenvalue`); below it the dense eigvals is faster
ARNOLDI_MIN_N = 128
# the Arnoldi's Krylov dimension, the Ritz values each restart keeps, its
# residual tolerance relative to the spectral scale, and its budget of
# products per node, beyond which it leaves lambda_2 to eigvals
_KRYLOV_DIM, _KEPT, _RESIDUAL_TOL, _PRODUCTS_PER_NODE = 30, 10, 1e-13, 2
# it also leaves lambda_2 to eigvals once this many cycles have not cut the
# residual by a tenth: a directed ring's stays flat at about 0.1 from the
# third cycle on, while a bidirectional ring's falls by more in every span
_STALLED_CYCLES = 8


class SpectralError(RuntimeError):
    """Raised when the closed-loop matrix has no valid Metzler eigenstructure."""


@dataclass(frozen=True)
class ClosedLoopMatrix:
    """A = k D B^T and residual r = k D (lambda - beta_off)."""

    A: np.ndarray
    r: np.ndarray
    k: float
    inc: IncidenceSet

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class SpectralData:
    """Metzler eigenstructure of an irreducible rate matrix.

    z            positive left null vector, normalized so 1^T z = 1
    W            spectral projector 1 z^T (W^2 = W, WA = AW = 0)
    group_inverse
                 the unique G with GA = AG = I - W and GW = WG = 0
    decay        |Re lambda_2|, of the slowest stable eigenvalue that the
                 simplicity test accepted, or None where A has none (one
                 node)
    lambda2      the rightmost eigenvalue of A other than zero where the
                 iteration found it, else None
    """

    z: np.ndarray
    W: np.ndarray
    group_inverse: np.ndarray
    decay: float | None
    lambda2: complex | None = None

    @property
    def n(self) -> int:
        return self.z.shape[0]

    def decay_rate(self) -> float:
        """|Re lambda_2| of the slowest stable eigenvalue."""
        if self.decay is None:
            raise SpectralError("no stable eigenvalues; graph has a single node?")
        return self.decay

    def horizon(self) -> float:
        """Time by which transients have shrunk by exp(-50): 50 e-folds."""
        return 50.0 / self.decay_rate()


def build_closed_loop(inc: IncidenceSet, params) -> ClosedLoopMatrix:
    """Assemble the closed-loop matrix and residual from incidence data.

    Requires k > 0 and an explicit (materialized) beta_off.  D B^T has exact
    integer entries, so the rate-matrix row sums are exact up to the single
    scaling by k: k * D B^T is the same bits however D B^T is summed.
    """
    if params.k <= 0:
        raise ValueError(f"gain k must be positive for the closed loop, got {params.k}")
    if params.beta_off is None:
        raise ValueError("beta_off not materialized; call init_state first")
    n, m = inc.n, inc.m
    if params.omega_u.shape != (n,):
        raise ValueError(f"omega_u has shape {params.omega_u.shape}, expected ({n},)")
    if params.lam.shape != (m,) or params.beta_off.shape != (m,):
        raise ValueError(
            f"lambda/beta_off have shapes {params.lam.shape}/{params.beta_off.shape}, "
            f"expected ({m},)")
    A = params.k * inc.rate_matrix()
    r = params.k * inc.in_sum(params.lam - params.beta_off)
    return ClosedLoopMatrix(A=A, r=r, k=params.k, inc=inc)


def _bordered(M: np.ndarray, row: np.ndarray) -> np.ndarray:
    """[[M, 1], [row, 0]], written into one (n + 1) x (n + 1) array; for a
    (K, n, n) stack M and (K, n) rows, one such array per matrix."""
    n = row.shape[-1]
    bordered = np.empty(row.shape[:-1] + (n + 1, n + 1))
    bordered[..., :n, :n] = M
    bordered[..., :n, n] = 1.0
    bordered[..., n, :n] = row
    bordered[..., n, n] = 0.0
    return bordered


def by_size(clms) -> dict:
    """{n: the indices of the closed loops of size n}, in order."""
    by_n = {}
    for i, clm in enumerate(clms):
        by_n.setdefault(clm.n, []).append(i)
    return by_n


def _not_simple(clm: ClosedLoopMatrix) -> str:
    """The error of a closed loop whose zero eigenvalue the tests do not
    find simple: it names the gain where the graph is strongly connected."""
    if not is_strongly_connected(clm.inc.topology()):
        return "graph not strongly connected"
    return (f"gain k = {clm.k:g} is too small: the closed loop's nonzero "
            f"eigenvalues are within the zero tolerance {_NULL_TOL:g} * "
            f"max(|A|, 1) of this strongly connected graph")


def rightmost_eigenvalue(A: np.ndarray, z: np.ndarray,
                         budget: int) -> tuple[complex | None, int]:
    """lambda_2, the rightmost eigenvalue of the rate matrix A other than
    its simple zero, by restarted Arnoldi; and the count of products with A
    it took.  lambda_2 is None where the iteration gave up: a cycle would
    pass `budget` products, or _STALLED_CYCLES cycles did not cut the
    residual by a tenth, or the basis closed on no converged value.

    z is A's left null vector with 1^T z = 1.  The operator A / s - 1 z^T,
    s = 2 ||A||_inf, keeps every other eigenpair of A / s and moves the zero
    to -1, left of the whole spectrum, which the rate matrix's Gershgorin
    discs put within |lambda| <= s / 2.  Each cycle extends an orthonormal
    Krylov basis, reorthogonalized in full, to _KRYLOV_DIM vectors.  The
    rightmost Ritz value is lambda_2 / s once its residual, estimated from
    the Rayleigh quotient and then formed in full, is within _RESIDUAL_TOL;
    a basis that spans an invariant subspace has converged too.  Otherwise
    the cycle restarts thick from the real invariant subspace of its
    _KEPT rightmost Ritz values, with conjugate pairs kept whole (Stewart's
    Krylov-Schur restart, SIAM J. Matrix Anal. Appl. 23(3), 2001, with an
    orthonormalized Ritz basis in place of a reordered Schur form).  The
    start vector is fixed, so a matrix always gets the same bits.
    """
    n = A.shape[0]
    s = 2.0 * float(np.abs(A).sum(axis=1).max())

    def product(x):
        y = A @ x
        y /= s
        y -= z @ x
        return y

    m = min(_KRYLOV_DIM, n)
    V = np.zeros((m + 1, n))
    H = np.zeros((m + 1, m))
    # a Weyl sequence: fixed, generic, and no random generator to load
    start = np.modf(np.arange(1, n + 1) * 0.6180339887498949)[0] - 0.5
    V[0] = start / np.linalg.norm(start)
    kept = products = 0
    residuals = []
    while products + m - kept <= budget:
        size = m
        for j in range(kept, m):
            w = product(V[j])
            h = V[:j + 1] @ w
            w -= h @ V[:j + 1]
            again = V[:j + 1] @ w
            w -= again @ V[:j + 1]
            H[:j + 1, j] = h + again
            H[j + 1, j] = np.linalg.norm(w)
            if H[j + 1, j] <= _RESIDUAL_TOL:
                size = j + 1    # the basis spans an invariant subspace
                break
            V[j + 1] = w / H[j + 1, j]
        products += size - kept
        theta, Y = np.linalg.eig(H[:size, :size])
        if not np.isfinite(theta).all():
            break
        i = int(np.argmax(theta.real))
        residuals.append(abs(H[size, size - 1] * Y[size - 1, i]))
        if residuals[-1] <= _RESIDUAL_TOL:
            x = Y[:, i] @ V[:size]
            products += 1
            if (np.linalg.norm(product(x) - theta[i] * x)
                    <= _RESIDUAL_TOL * np.linalg.norm(x)):
                return complex(s * theta[i]), products
        if size < m or (len(residuals) > _STALLED_CYCLES and residuals[-1]
                        > 0.9 * residuals[-1 - _STALLED_CYCLES]):
            break
        cut = np.sort(theta.real)[-_KEPT]
        ritz = []
        for value, y in zip(theta, Y.T):
            # a conjugate pair shares its real part, and y.real and y.imag
            # of its first member span the pair's real subspace
            if value.real >= cut and value.imag >= 0:
                ritz += [y.real, y.imag] if value.imag > 0 else [y.real]
        Q = np.linalg.qr(np.array(ritz).T)[0]
        kept = Q.shape[1]
        V[:kept] = Q.T @ V[:m]
        V[kept] = V[m]
        rayleigh = np.vstack([Q.T @ H[:m], H[m]]) @ Q
        H[:] = 0.0
        H[:kept + 1, :kept] = rayleigh
    return None, products


def _null_vectors(A: np.ndarray) -> np.ndarray:
    """z of each matrix of a (K, n, n) stack A: the bordered system
    [[A^T, 1], [1^T, 0]] [z; mu] = [0; 1], which A 1 = 0 gives mu = 0."""
    K, n = A.shape[:2]
    rhs = np.zeros((K, n + 1, 1))
    rhs[:, n] = 1.0
    return np.linalg.solve(_bordered(A.transpose(0, 2, 1), np.ones((K, n))),
                           rhs)[:, :n, 0]


def _group_inverses(A: np.ndarray, z: np.ndarray,
                    W: np.ndarray) -> np.ndarray:
    """G of each matrix of a (K, n, n) stack A: the bordered system
    [[A, 1], [z^T, 0]] [G; y^T] = [I - W; 0]."""
    K, n = z.shape
    rhs = np.zeros((K, n + 1, n))
    np.subtract(np.eye(n), W, out=rhs[:, :n])
    return np.linalg.solve(_bordered(A, z), rhs)[:, :n]


def _trusted(z: np.ndarray, A: np.ndarray, scale: np.ndarray):
    """For each z of a (K, n) stack and its matrix of A: whether it is
    positive, its residual max |z^T A|, and whether that is within 1e-12 of
    the matrix's scale."""
    resid = np.abs(np.matmul(z[:, None], A)).max(axis=(1, 2))
    return z.min(axis=1) > _NULL_TOL, resid, resid <= 1e-12 * scale


def metzler_eigenvectors(clms) -> list:
    """Compute z, W and the group inverse of A for each closed loop of
    `clms`: its SpectralData, or in its place the SpectralError that its
    `metzler_eigenvector` raises.

    Zero must be a simple eigenvalue of A: every other eigenvalue is stable
    beyond the zero tolerance.  Below ARNOLDI_MIN_N nodes the test counts
    the n - 1 stable eigenvalues of eigvals, which needs no diagonalizable
    A.  From ARNOLDI_MIN_N on, z comes first, and the test reads lambda_2
    of `rightmost_eigenvalue` against the same tolerance; a z that is not
    positive, or an iteration that gives up, leaves the closed loop to the
    count.  The decay rate is decided with simplicity, from the same data:
    -Re lambda_2 of the iteration, or minus the slowest of the eigenvalues
    the count found stable, or None where it found none (a single node).
    z solves the bordered system [[A^T, 1],
    [1^T, 0]] [z; mu] = [0; 1] (A 1 = 0 forces mu = 0), and the group
    inverse the bordered system [[A, 1], [z^T, 0]]; both are nonsingular
    exactly when the zero eigenvalue is simple.

    The closed loops of one size are one stack: one eigvals, and each
    bordered solve over the matrices that need it.  Stacked eigvals and
    solve make one LAPACK call per matrix, so every matrix gets the bits of
    a stack of one.
    """
    out = [None] * len(clms)
    for n, members in by_size(clms).items():
        K = len(members)
        A = np.stack([clms[i].A for i in members])
        scale = np.maximum(np.abs(A).max(axis=(1, 2)), 1.0)
        z = np.zeros((K, n))
        solved = np.zeros(K, dtype=bool)
        lambda2 = np.full(K, np.nan, dtype=complex)
        if n >= ARNOLDI_MIN_N:
            try:
                z = _null_vectors(A)
                solved[:] = True
            except np.linalg.LinAlgError:
                pass    # zero is not simple: the count says so
            positive, _, small = _trusted(z, A, scale)
            for j in np.flatnonzero(positive & small):
                found, _ = rightmost_eigenvalue(A[j], z[j],
                                                _PRODUCTS_PER_NODE * n)
                if found is not None:
                    lambda2[j] = found
        dense = np.isnan(lambda2)
        simple = lambda2.real < -_NULL_TOL * scale
        decay = (-lambda2.real).tolist()
        if dense.any():
            real = np.linalg.eigvals(A[dense]).real
            stable = real < -_NULL_TOL * scale[dense, None]
            simple[dense] = np.count_nonzero(stable, axis=1) == n - 1
            for j, values, mask in zip(np.flatnonzero(dense), real, stable):
                decay[j] = -float(values[mask].max()) if mask.any() else None
        unsolved = simple & ~solved
        z[unsolved] = _null_vectors(A[unsolved])
        positive, resid, small = _trusted(z, A, scale)
        valid = simple & positive & small
        W = np.repeat(z[:, None], n, axis=1)
        G = np.zeros((K, n, n))
        G[valid] = _group_inverses(A[valid], z[valid], W[valid])
        for j, i in enumerate(members):
            if not (simple[j] and positive[j]):
                # zero eigenvalue not simple, or z not positive: the
                # topology splits into closed classes, or on a strongly
                # connected one the gain puts the eigenvalues in the
                # tolerance
                out[i] = SpectralError(_not_simple(clms[i]))
            elif not valid[j]:
                out[i] = SpectralError(f"left null vector residual "
                                       f"{resid[j]:.3e} exceeds tolerance")
            else:
                out[i] = SpectralData(
                    z=z[j], W=W[j], group_inverse=G[j], decay=decay[j],
                    lambda2=None if dense[j] else complex(lambda2[j]))
    return out


def metzler_eigenvector(clm: ClosedLoopMatrix, solved=None) -> SpectralData:
    """The spectral data of one closed loop: `solved`, its entry of a
    `metzler_eigenvectors` call over a stack that holds it, or else the
    entry of its own stack of one.  Raises the entry's SpectralError."""
    if solved is None:
        solved, = metzler_eigenvectors([clm])
    if isinstance(solved, SpectralError):
        raise solved
    return solved


def predict_omega_ss(sd: SpectralData, params) -> np.ndarray:
    """Steady-state frequency vector; all components equal.

    The general form is W (q + r + omega_u); with feasible offsets r lies in
    range(A), W r = 0 and the limit is 1 * z^T (q + omega_u).
    """
    return np.full(sd.n, float(consensus(sd.z, params.q + params.omega_u)))


def consensus(z: np.ndarray, u: np.ndarray):
    """z^T u for an (n,) z and u; for (S, n) stacks, one per row.  Each row
    takes one dot, as a 1-D `z @ u` does, so it gets the bits of its own."""
    return np.matmul(z[..., None, :], u[..., :, None])[..., 0, 0]


def steady_state_correction(sd: SpectralData, clm: ClosedLoopMatrix, params,
                            q: np.ndarray) -> np.ndarray:
    """Map a controller offset q to the limiting correction:
    (W - I) omega_u + W (q + r).  A (K, n) q maps row by row."""
    q = np.asarray(q, dtype=float)
    return correction_limits(sd.W, params.omega_u, clm.r,
                             q.reshape(-1, sd.n)).reshape(q.shape)


def correction_limits(W: np.ndarray, omega_u: np.ndarray, r: np.ndarray,
                      q: np.ndarray) -> np.ndarray:
    """(W - I) omega_u + W (q + r) for each row of a (K, n) block q, with W
    (n, n) and omega_u and r (n,); or for (S, n, n), (S, n) and (S, K, n)
    stacks, one block per matrix.  Each matrix takes one gemv and one gemm,
    the calls a matrix alone takes, so a stack gives it the same bits."""
    held = np.matmul(W - np.eye(W.shape[-1]), omega_u[..., None])
    moved = np.matmul(W, np.swapaxes(q + r[..., None, :], -1, -2))
    return np.swapaxes(held + moved, -1, -2)


def predict_beta_ss(sd: SpectralData, clm: ClosedLoopMatrix, params) -> np.ndarray:
    """Pre-reframe buffer occupancy limit: lambda - B^T G (omega_u + q + r).

    Independent of which stable-part factorization produced G; inputs in
    span(1) are annihilated, leaving beta = lambda exactly at equilibrium
    offsets.
    """
    return occupancy_limits(sd.group_inverse, params.omega_u + params.q + clm.r,
                            params.lam, clm.inc)


def occupancy_limits(G: np.ndarray, v: np.ndarray, lam: np.ndarray,
                     inc: IncidenceSet) -> np.ndarray:
    """lambda - B^T G v for an (n, n) G and (n,) v on the incidence inc; or
    for (S, n, n) and (S, n) stacks on their `joined_incidence`, with every
    member's lambda end to end.  Each matrix takes one gemv, so every edge
    gets the bits of its own."""
    return lam - inc.edge_diff(np.matmul(G, v[..., None]).reshape(-1))


# Higham, "The scaling and squaring method for the matrix exponential
# revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005: for the degrees
# m = 3, 5, 7, 9 and 13, the largest 1-norm theta_m at which the degree-m
# diagonal Pade approximant of e^X has backward error below unit roundoff
# (Table 2.3), and that approximant's numerator coefficients b_0 .. b_m.
_PADE = tuple((theta, np.array(b)) for theta, b in (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0,
                            25200.0, 1512.0, 56.0, 1.0)),
    (2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0,
                           302702400.0, 30270240.0, 2162160.0, 110880.0,
                           3960.0, 90.0, 1.0)),
    (5.371920351148152e0, (64764752532480000.0, 32382376266240000.0,
                           7771770303897600.0, 1187353796428800.0,
                           129060195264000.0, 10559470521600.0,
                           670442572800.0, 33522128640.0, 1323241920.0,
                           40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
))


def _pade(X: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The diagonal Pade approximant of e^X of degree m = len(b) - 1, for
    each matrix of a (K, n, n) stack X, whose numerator has coefficients b
    and odd and even parts U and V: (V - U)^{-1} (V + U) = I + 2 (V - U)^{-1}
    U.  The second form leaves the row sums of a rate matrix's exponential
    at rounding level, as the identity carries the 1 and U annihilates
    constants.

    Each polynomial in the even powers X^2, X^4, .. is one product of its
    coefficients with each matrix's stacked powers, written into a
    preallocated array.  Stacked matmul and solve make one BLAS or LAPACK
    call per matrix, and so does the coefficient vector times the (K, count,
    n n) view of the powers, so every matrix gets the bits of a stack of
    one.  X may be overwritten; at most seven stacks are live at once.
    """
    K, n, m = X.shape[0], X.shape[-1], len(b) - 1
    odd, even = b[1::2], b[0::2]   # odd[j] and even[j] multiply X^{2j}
    count = 3 if m == 13 else (m - 1) // 2
    powers = np.empty((count, K, n, n))
    np.matmul(X, X, out=powers[0])
    for j in range(1, count):
        np.matmul(powers[j - 1], powers[0], out=powers[j])
    flat = powers.reshape(count, K, -1).transpose(1, 0, 2)

    def poly(coeffs, identity, out):
        # out = identity I + sum_j coeffs[j] X^{2j + 2}
        np.matmul(coeffs, flat, out=out.reshape(K, -1))
        if identity:
            diagonals = out.reshape(K, -1)[:, ::n + 1]
            diagonals += identity
        return out

    if m == 13:
        # U = X [X^6 (b_13 X^6 + b_11 X^4 + b_9 X^2) + b_7 X^6 + .. + b_1 I],
        # V = X^6 (b_12 X^6 + b_10 X^4 + b_8 X^2) + b_6 X^6 + .. + b_0 I
        X6 = powers[2]
        U, poly_u = np.empty_like(X), np.empty_like(X)
        np.matmul(X6, poly(odd[4:], 0.0, U), out=poly_u)
        poly_u += poly(odd[1:4], odd[0], U)
        np.matmul(X, poly_u, out=U)
        V = np.matmul(X6, poly(even[4:], 0.0, poly_u), out=X)
        V += poly(even[1:4], even[0], poly_u)
        del X6
    else:
        poly_u = poly(odd[1:], odd[0], np.empty_like(X))
        U = X @ poly_u
        V = poly(even[1:], even[0], poly_u)
    del X, powers, flat, poly_u
    V -= U
    E = np.linalg.solve(V, U)
    E *= 2.0
    diagonals = E.reshape(K, -1)[:, ::n + 1]
    diagonals += 1.0
    return E


def _scaling(norm: float) -> tuple[int, int]:
    """(degree, s) for an exponent of 1-norm `norm` > 0: the index into
    _PADE of the lowest degree m in {3, 5, 7, 9, 13} whose theta_m bounds
    the norm, and above theta_13 a scaling by 2^-s, s = ceil(log2(norm /
    theta_13)), that brings it under."""
    for degree, (theta, _) in enumerate(_PADE):
        if norm <= theta:
            return degree, 0
    return degree, math.ceil(math.log2(norm / theta))


def _exponentials(X: np.ndarray, degree: int, s: int) -> np.ndarray:
    """e^{2^s X} of each matrix of a (K, n, n) stack X: the approximant of
    that degree, squared s times.  X may be overwritten."""
    E = _pade(X, _PADE[degree][1])
    for _ in range(s):
        E = E @ E
    return E


def matrix_exponential(clm: ClosedLoopMatrix, t: float) -> np.ndarray:
    """e^{At} for t >= 0; row-stochastic since A is a rate matrix.

    Higham's (2005) scaling and squaring in numpy: the lowest Pade degree
    m in {3, 5, 7, 9, 13} whose theta_m bounds ||At||_1, and above
    theta_13 a scaling by 2^-s, s = ceil(log2(||At||_1 / theta_13)), undone
    by s squarings.  The package has no scipy dependency; its tests use
    scipy.linalg.expm as the oracle.  This is the stacked kernel of
    `matrix_exponentials` on a stack of one.
    """
    if t < 0:
        raise ValueError(f"matrix exponential of the flow needs t >= 0, got {t}")
    norm = t * float(np.abs(clm.A).sum(axis=0).max())
    if norm == 0.0:
        return np.eye(clm.n)
    degree, s = _scaling(norm)
    return _exponentials((clm.A * (t * 2.0 ** -s))[None], degree, s)[0]


def matrix_exponentials(clms, times) -> list:
    """e^{At} of each closed loop of `clms` at its time of `times`, bit for
    bit its `matrix_exponential`.  Each matrix takes the degree and scaling
    of its own ||At||_1; the matrices of one size, degree and scaling are
    one stack, which takes one kernel and its s squarings.  A stack of one
    is its `matrix_exponential` call, so that binding still sees each
    exponential that shares no kernel, as a run's one per span."""
    if any(t < 0 for t in times):
        raise ValueError(f"matrix exponential of the flow needs t >= 0, got "
                         f"{min(times)}")
    out = [None] * len(clms)
    for n, members in by_size(clms).items():
        A = np.stack([clms[i].A for i in members])
        t = np.array([times[i] for i in members])
        groups = {}
        for j, norm in enumerate((t * np.abs(A).sum(axis=1).max(axis=1))
                                 .tolist()):
            if norm == 0.0:
                out[members[j]] = np.eye(n)
            else:
                groups.setdefault(_scaling(norm), []).append(j)
        for (degree, s), stack in groups.items():
            if len(stack) == 1:
                i = members[stack[0]]
                out[i] = matrix_exponential(clms[i], times[i])
                continue
            scales = t[stack] * 2.0 ** -s
            E = _exponentials(A[stack] * scales[:, None, None], degree, s)
            for j, e in zip(stack, E):
                out[members[j]] = e
    return out
