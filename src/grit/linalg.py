"""Dense symmetric linear algebra at adapter-rank scale.

Everything here operates on small square matrices (rank-space covariances,
desk-model Hessians, the audit's PCA Gram matrix). Eigendecompositions go
through LAPACK's symmetric solver; sym_eig adds only a fixed eigenvalue
order and sign convention, and sym_eig_stack gives a stack of equal-sized
matrices the same result, matrix for matrix and bit for bit, from one call.
damped_inverse inverts a damped matrix from its spectrum, climbing the
damping ladder on the eigenvalues; damped_solve is the Cholesky-probed
LAPACK solve that reference checks compare it with. All computation is
float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, ShapeError, SingularMatrixError

# Damping multipliers tried in order until the shifted matrix is positive
# definite (damped_inverse checks the shifted spectrum, damped_solve
# attempts a Cholesky factorization).
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


def sym_eig_stack(mats, names) -> list[SpectralDecomp]:
    """sym_eig of each matrix of a stack of equal-sized square matrices, from one LAPACK call.

    Each result equals sym_eig(mats[i], names[i]) bit for bit: the same
    symmetrization, stable descending order and sign convention, applied
    along the stack. Non-finite input or a LAPACK failure raises
    DecompositionError naming the first matrix at fault.
    """
    a = np.asarray(mats, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[0] != len(names):
        raise ShapeError(f"expected {len(names)} stacked square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        finite = np.isfinite(a).all(axis=(1, 2))
        raise DecompositionError(f"non-finite entries in {names[int(np.argmin(finite))]}")
    try:
        eigs, vecs = np.linalg.eigh(0.5 * (a + a.transpose(0, 2, 1)))
    except np.linalg.LinAlgError:
        # decompose one at a time, so the error names the matrix LAPACK failed on
        for m, name in zip(a, names):
            sym_eig(m, name)
        raise
    stack = np.arange(eigs.shape[0])[:, None]
    cols = np.arange(eigs.shape[1])[None, :]
    # eigh returns ascending eigenvalues; without ties the stable descending
    # order is the reversal
    if (eigs[:, 1:] > eigs[:, :-1]).all():
        eigs = np.ascontiguousarray(eigs[:, ::-1])
        vecs = vecs[:, :, ::-1]
    else:
        order = np.argsort(-eigs, axis=1, kind="stable")
        eigs = eigs[stack, order]
        vecs = vecs[stack[:, :, None], cols[:, :, None], order[:, None, :]]
    # _fix_signs along the stack, looking past the first row only where it is below 1e-12
    lead = vecs[:, 0, :]
    if np.abs(lead).min() > 1e-12:
        flip = lead < 0.0
    else:
        above = np.abs(vecs) > 1e-12
        first = np.argmax(above, axis=1)
        flip = above[stack, first, cols] & (vecs[stack, first, cols] < 0.0)
    vecs = np.where(flip[:, None, :], -vecs, vecs)
    return [SpectralDecomp(e, v) for e, v in zip(eigs, vecs)]


def damped_inverse(decomp: SpectralDecomp, damping: float) -> tuple[np.ndarray, float, float]:
    """inv(m + lambda' I) = V diag(1 / (lambda + lambda')) V^T from m's spectrum.

    lambda' is the first multiple of `damping` from DAMPING_LADDER that
    makes every shifted eigenvalue positive. Returns (inverse, multiplier,
    condition number of the shifted matrix). Raises SingularMatrixError
    with the final multiplier if all six rungs fail.
    """
    if damping < 0.0:
        raise ValueError("damping must be non-negative")
    eigs = decomp.eigenvalues
    for mult in DAMPING_LADDER:
        shift = mult * damping
        if eigs[-1] + shift > 0.0:
            shifted = eigs + shift
            vecs = decomp.eigenvectors
            return (vecs / shifted) @ vecs.T, mult, float(shifted[0] / shifted[-1])
    raise SingularMatrixError(
        f"damped inverse failed at every ladder rung (final multiplier {DAMPING_LADDER[-1]})",
        multiplier=DAMPING_LADDER[-1],
    )


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
