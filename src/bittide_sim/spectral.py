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

from dataclasses import dataclass

import numpy as np

from .graph import IncidenceSet

# zero-eigenvalue detection and positivity checks, relative to matrix scale
_NULL_TOL = 1e-9


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
    eigenvalues  full spectrum of A (zero plus the stable part)
    group_inverse
                 the unique G with GA = AG = I - W and GW = WG = 0
    """

    z: np.ndarray
    W: np.ndarray
    eigenvalues: np.ndarray
    group_inverse: np.ndarray

    @property
    def n(self) -> int:
        return self.z.shape[0]

    def decay_rate(self) -> float:
        """|Re lambda_2| of the slowest stable eigenvalue."""
        stable = self.eigenvalues[self.eigenvalues.real < -_NULL_TOL * max(
            1.0, float(np.abs(self.eigenvalues).max()))]
        if stable.size == 0:
            raise SpectralError("no stable eigenvalues; graph has a single node?")
        return float(-stable.real.max())

    def horizon(self, e_folds: float = 50.0) -> float:
        """Time by which transients have shrunk by exp(-e_folds)."""
        return e_folds / self.decay_rate()


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


def _bordered_solve(M: np.ndarray, row: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve [[M, 1], [row, 0]] [x; mu] = rhs and return x."""
    bordered = np.block([[M, np.ones((len(row), 1))], [row, 0.0]])
    return np.linalg.solve(bordered, rhs)[:len(row)]


def metzler_eigenvector(clm: ClosedLoopMatrix) -> SpectralData:
    """Compute z, W and the group inverse of A.

    The eigenvalues must leave exactly n - 1 stable, so that zero is simple;
    eigvals needs no diagonalizable A for that count.  z then solves the
    bordered system [[A^T, 1], [1^T, 0]] [z; mu] = [0; 1] (A 1 = 0 forces
    mu = 0), and the group inverse the bordered system [[A, 1], [z^T, 0]];
    both are nonsingular exactly when the zero eigenvalue is simple.
    """
    A = clm.A
    n = A.shape[0]
    scale = max(float(np.abs(A).max()), 1.0)

    eigenvalues = np.linalg.eigvals(A)
    if np.count_nonzero(eigenvalues.real < -_NULL_TOL * scale) != n - 1:
        # zero eigenvalue not simple: the topology splits into closed classes
        raise SpectralError("graph not strongly connected")
    ones = np.ones(n)
    z = _bordered_solve(A.T, ones, np.append(np.zeros(n), 1.0))
    if z.min() <= _NULL_TOL:
        raise SpectralError("graph not strongly connected")
    resid = float(np.abs(z @ A).max())
    if resid > 1e-12 * scale:
        raise SpectralError(f"left null vector residual {resid:.3e} exceeds tolerance")

    W = np.outer(ones, z)
    G = _bordered_solve(A, z, np.vstack([np.eye(n) - W, np.zeros((1, n))]))
    return SpectralData(z=z, W=W, eigenvalues=eigenvalues, group_inverse=G)


def predict_omega_ss(sd: SpectralData, params, r: np.ndarray | None = None) -> np.ndarray:
    """Steady-state frequency vector; all components equal.

    With feasible offsets r lies in range(A), W r = 0 and the limit is
    1 * z^T (q + omega_u).  Pass r explicitly for the general form
    W (q + r + omega_u).
    """
    v = params.q + params.omega_u
    if r is not None:
        v = v + r
    return np.full(sd.n, float(sd.z @ v))


def steady_state_correction(sd: SpectralData, clm: ClosedLoopMatrix, params,
                            q: np.ndarray | None = None) -> np.ndarray:
    """Map a controller offset q to the limiting correction:
    (W - I) omega_u + W (q + r)."""
    if q is None:
        q = params.q
    return (sd.W - np.eye(sd.n)) @ params.omega_u + sd.W @ (q + clm.r)


def predict_beta_ss(sd: SpectralData, clm: ClosedLoopMatrix, params,
                    q: np.ndarray | None = None) -> np.ndarray:
    """Pre-reframe buffer occupancy limit: lambda - B^T G (omega_u + q + r).

    Independent of which stable-part factorization produced G; inputs in
    span(1) are annihilated, leaving beta = lambda exactly at equilibrium
    offsets.
    """
    if q is None:
        q = params.q
    v = params.omega_u + q + clm.r
    return params.lam - clm.inc.edge_diff(sd.group_inverse @ v)


def matrix_exponential(clm: ClosedLoopMatrix, t: float) -> np.ndarray:
    """e^{At} for t >= 0; row-stochastic since A is a rate matrix.

    The package's one use of scipy, imported here so that the commands that
    never exponentiate do not pay for loading it.
    """
    from scipy.linalg import expm

    if t < 0:
        raise ValueError(f"matrix exponential of the flow needs t >= 0, got {t}")
    return expm(clm.A * t)
