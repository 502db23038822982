"""Dense symmetric linear algebra at adapter-rank scale.

Everything here operates on small square matrices (rank-space covariances,
desk-model Hessians). The eigensolver is a cyclic Jacobi sweep rather than a
LAPACK call so that results are bit-reproducible across BLAS builds; at these
sizes the cost difference is irrelevant. All computation is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, ShapeError, SingularMatrixError

# Damping multipliers tried in order until the shifted matrix is positive
# definite (checked by attempting a Cholesky factorization).
DAMPING_LADDER = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0)

_JACOBI_TOL = 1e-12
_MAX_SWEEPS = 100


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return 0.5 * (m + m.T) as a float64 array."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalues (descending) and column-orthonormal eigenvectors of a symmetric matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """U diag(lambda) U^T; used by tests as the correctness oracle."""
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.T


def _fix_signs(vecs: np.ndarray) -> None:
    # Deterministic convention: first component of each eigenvector with
    # magnitude above 1e-12 is made non-negative.
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0.0:
            vecs[:, j] = -col


def sym_eig(m: np.ndarray, name: str = "matrix") -> SpectralDecomp:
    """Eigendecompose a symmetric matrix by cyclic Jacobi rotations.

    The input is symmetrized first. Convergence is declared when the
    off-diagonal Frobenius norm falls below 1e-12 times the diagonal norm.
    Eigenvalues are returned in non-increasing order with ties kept in
    original index order (stable sort).
    """
    a = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise DecompositionError(f"non-finite entries in {name}")
    a = symmetrize(a)
    n = a.shape[0]
    v = np.eye(n)

    if n == 1:
        return SpectralDecomp(a.diagonal().copy(), v)

    for _ in range(_MAX_SWEEPS):
        off_diag = a - np.diag(np.diagonal(a))
        off = np.linalg.norm(off_diag)
        diag_norm = np.linalg.norm(np.diagonal(a))
        if off <= _JACOBI_TOL * diag_norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                # Entries negligible against the diagonal are annihilated directly.
                guard = 100.0 * abs(apq)
                if abs(a[p, p]) + guard == abs(a[p, p]) and abs(a[q, q]) + guard == abs(a[q, q]):
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    continue
                # Stable rotation angle (Golub & Van Loan 8.4), guarded against
                # overflow of theta^2 for near-diagonal pairs.
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 0.5 / theta
                else:
                    t = np.sign(theta) if theta != 0.0 else 1.0
                    t = t / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                # A <- J^T A J applied as column then row rotations.
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    else:
        raise DecompositionError(f"Jacobi sweep did not converge for {name}")

    eigs = np.diagonal(a).copy()
    order = np.argsort(-eigs, kind="stable")
    eigs = eigs[order]
    vecs = v[:, order]
    _fix_signs(vecs)
    return SpectralDecomp(eigs, vecs)


def _is_positive_definite(m: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(m)
        return True
    except np.linalg.LinAlgError:
        return False


def damped_solve(
    m: np.ndarray, damping: float, rhs: np.ndarray
) -> tuple[np.ndarray, float]:
    """Solve (m + lambda' I) X = rhs with an escalating damping ladder.

    lambda' is the first multiple of `damping` from DAMPING_LADDER for which
    the shifted matrix admits a Cholesky factorization. Returns (X, multiplier)
    where multiplier is the ladder rung used. Raises SingularMatrixError with
    the final multiplier if all six rungs fail.
    """
    if damping < 0.0:
        raise ValueError("damping must be non-negative")
    m = symmetrize(m)
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != m.shape[0]:
        raise ShapeError(
            f"rhs has {rhs.shape[0]} rows, expected {m.shape[0]}"
        )
    eye = np.eye(m.shape[0])
    for mult in DAMPING_LADDER:
        shifted = m + (mult * damping) * eye
        if _is_positive_definite(shifted):
            return np.linalg.solve(shifted, rhs), mult
    raise SingularMatrixError(
        f"damped solve failed at every ladder rung (final multiplier {DAMPING_LADDER[-1]})",
        multiplier=DAMPING_LADDER[-1],
    )
