"""Dense symmetric linear algebra at adapter-rank scale.

Everything here operates on small square matrices (rank-space covariances,
desk-model Hessians, the audit's PCA Gram matrix). Eigendecompositions go
through LAPACK's symmetric solver, like the Cholesky factorizations and solves
here; sym_eig adds only a fixed eigenvalue order and sign convention. All
computation is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, ShapeError, SingularMatrixError

# Damping multipliers tried in order until the shifted matrix is positive
# definite (checked by attempting a Cholesky factorization).
DAMPING_LADDER = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0)


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
    if vecs.size == 0:
        return
    above = np.abs(vecs) > 1e-12
    first = np.argmax(above, axis=0)
    cols = np.arange(vecs.shape[1])
    flip = above[first, cols] & (vecs[first, cols] < 0.0)
    vecs[:, flip] = -vecs[:, flip]


def sym_eig(m: np.ndarray, name: str = "matrix") -> SpectralDecomp:
    """Eigendecompose a symmetric matrix with LAPACK's symmetric solver.

    The input is symmetrized first. Eigenvalues are returned in non-increasing
    order with ties kept in original index order (stable sort), and each
    eigenvector carries the sign convention of _fix_signs. Non-finite input or
    a LAPACK failure raises DecompositionError naming the matrix.
    """
    a = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise DecompositionError(f"non-finite entries in {name}")
    try:
        eigs, vecs = np.linalg.eigh(symmetrize(a))
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigendecomposition failed for {name}: {exc}") from exc
    order = np.argsort(-eigs, kind="stable")
    eigs = eigs[order]
    vecs = vecs[:, order]
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
