"""Dense symmetric linear algebra at adapter-rank scale.

Everything here operates on small square matrices (rank-space covariances,
desk-model Hessians, the audit's PCA Gram matrix). Eigendecompositions go
through LAPACK's symmetric solver in sym_eig_stack, which decomposes a
stack of equal-sized matrices in one call and is the one place that fixes
the eigenvalue order and the eigenvector signs; sym_eig is that stack on
one matrix.
damped_inverse inverts a damped matrix from its spectrum, climbing the
damping ladder on the eigenvalues; damped_solve is the Cholesky-probed
LAPACK solve that the eig oracle compares it with; no run calls it, but kfac
re-exports it for perfbench/spans.py and cannot import oracles. All
computation is float64.
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


def sym_eig(m: np.ndarray, name: str = "matrix") -> SpectralDecomp:
    """Eigendecompose one symmetric matrix: sym_eig_stack on a one-matrix stack."""
    return sym_eig_stack([m], [name])[0]


def sym_eig_stack(mats, names) -> list[SpectralDecomp]:
    """Eigendecompose each matrix of a stack of equal-sized square matrices, from one LAPACK call.

    Each matrix is symmetrized first. Eigenvalues are returned in
    non-increasing order with ties kept in original index order (stable
    sort), and the first entry of each eigenvector with magnitude above
    1e-12 is made non-negative. Non-finite input or a LAPACK failure raises
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
    except np.linalg.LinAlgError as exc:
        # decompose one at a time, so the error names the matrix LAPACK failed on
        for m, name in zip(a, names):
            try:
                np.linalg.eigh(symmetrize(m))
            except np.linalg.LinAlgError as single:
                raise DecompositionError(f"eigendecomposition failed for {name}: {single}") from single
        raise DecompositionError(f"eigendecomposition failed for the stack: {exc}") from exc
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
    # the sign convention, looking past the first row only where it is below 1e-12
    lead = vecs[:, :1, :]
    if (np.abs(lead) > 1e-12).all():
        flip = lead < 0.0
    else:
        above = np.abs(vecs) > 1e-12
        first = np.argmax(above, axis=1)
        flip = (above[stack, first, cols] & (vecs[stack, first, cols] < 0.0))[:, None, :]
    vecs = np.where(flip, -vecs, vecs)
    return [SpectralDecomp(e, v) for e, v in zip(eigs, vecs)]


def damped_inverse(decomp: SpectralDecomp, damping: float) -> tuple[np.ndarray, float, float]:
    """inv(m + lambda' I) = V diag(1 / (lambda + lambda')) V^T from m's spectrum.

    lambda' is the first multiple of `damping` from DAMPING_LADDER that
    makes every shifted eigenvalue positive. Returns (inverse, multiplier,
    condition number of the shifted matrix). Raises SingularMatrixError
    with the final multiplier if all six rungs fail.
    """
    if not 0.0 <= damping < np.inf:  # NaN fails both comparisons
        raise ValueError(f"damping must be a finite non-negative number, got {damping!r}")
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
    if not 0.0 <= damping < np.inf:  # NaN fails both comparisons
        raise ValueError(f"damping must be a finite non-negative number, got {damping!r}")
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
