"""Geometry summaries and stability diagnostics, plus their append-only stream.

Naming note: the energy threshold used by rank selection is tau_energy
(config key rank_adaptation_threshold) while the update-magnitude cutoff for
tail mass is tau_tail (config key tail_threshold); they are unrelated knobs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import sym_eig, symmetrize
from .model import AdapterPair
from .reprojection import Projector, effective_rank  # noqa: F401  (re-exported)

TELEMETRY_SCHEMA_VERSION = 1

GEOMETRY_FIELDS = (
    "step",
    "layer",
    "k_selected",
    "r_eff",
    "rho_align",
    "pi_proj",
    "tail_mass",
    "curvature_exposure",
    "jitter",
    "subspace_drift",
    "eig_cv",
    "cov_var",
    "spectrum",
)


@dataclass
class GeometryRecord:
    """One telemetry row per (step, layer)."""

    step: int
    layer: int
    k_selected: int
    r_eff: int
    rho_align: float
    pi_proj: float
    tail_mass: int
    curvature_exposure: float
    jitter: float
    subspace_drift: float
    eig_cv: float
    cov_var: float
    spectrum: list[float]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def tail_mass(delta_w: np.ndarray, threshold: float) -> int:
    """Count of update coordinates with magnitude above the threshold."""
    if threshold <= 0.0:
        raise ValidationError("threshold must be positive")
    delta_w = np.asarray(delta_w, dtype=np.float64)
    if not np.all(np.isfinite(delta_w)):
        raise ValidationError("update vector must be finite")
    return int(np.sum(np.abs(delta_w) > threshold))


def _check_orthonormal(basis: np.ndarray, name: str) -> np.ndarray:
    basis = np.asarray(basis, dtype=np.float64)
    if basis.ndim != 2:
        raise ShapeError(f"{name} must be a 2-d basis matrix")
    gram = basis.T @ basis
    if np.max(np.abs(gram - np.eye(basis.shape[1]))) > 1e-6:
        raise ValidationError(f"{name} columns are not orthonormal")
    return basis


def alignment_overlap(fisher_basis: np.ndarray, update_basis: np.ndarray) -> float:
    """Principal-angle overlap (1/k) * ||U^T V||_F^2 between two top-k bases."""
    u = _check_orthonormal(fisher_basis, "fisher_basis")
    v = _check_orthonormal(update_basis, "update_basis")
    if u.shape != v.shape:
        raise ShapeError(f"basis shapes differ: {u.shape} vs {v.shape}")
    k = u.shape[1]
    return float(np.sum((u.T @ v) ** 2) / k)


def retained_mass(projector: Projector, delta_w: np.ndarray) -> tuple[float, bool]:
    """||P delta_w||^2 / ||delta_w||^2; (0.0, True) flags a zero update."""
    delta_w = np.asarray(delta_w, dtype=np.float64)
    denom = float(np.dot(delta_w, delta_w))
    if denom == 0.0:
        return 0.0, True
    coeff = projector.basis.T @ delta_w
    return float(np.dot(coeff, coeff) / denom), False


def curvature_exposure(h_pt: np.ndarray, projector_full: np.ndarray) -> float:
    """tr(P H P): pretraining curvature visible inside the projected subspace."""
    h = symmetrize(h_pt)
    p = np.asarray(projector_full, dtype=np.float64)
    if p.shape != h.shape:
        raise ShapeError(f"projector shape {p.shape} does not match {h.shape}")
    return float(np.trace(p @ h @ p))


def exposure_from_basis(h_pt: np.ndarray, basis: np.ndarray) -> float:
    """tr(Q^T H Q), equal to curvature_exposure with P = Q Q^T but cheaper."""
    h = symmetrize(h_pt)
    if basis.shape[0] != h.shape[0]:
        raise ShapeError(f"basis rows {basis.shape[0]} do not match {h.shape}")
    return float(np.trace(basis.T @ h @ basis))


def update_jitter(p_t: np.ndarray, p_prev: np.ndarray) -> tuple[float, bool]:
    """1 - cos(p_t, p_prev); (0.0, True) flags a zero vector."""
    p_t = np.asarray(p_t, dtype=np.float64).ravel()
    p_prev = np.asarray(p_prev, dtype=np.float64).ravel()
    nt = np.linalg.norm(p_t)
    np_ = np.linalg.norm(p_prev)
    if nt == 0.0 or np_ == 0.0:
        return 0.0, True
    cos = float(np.dot(p_t, p_prev) / (nt * np_))
    return 1.0 - min(1.0, max(-1.0, cos)), False


def subspace_drift(u_t: np.ndarray, u_next: np.ndarray) -> float:
    """Frobenius norm of principal-angle sines: sqrt(k - ||U_t^T U_next||_F^2)."""
    u1 = _check_orthonormal(u_t, "u_t")
    u2 = _check_orthonormal(u_next, "u_next")
    if u1.shape != u2.shape:
        raise ShapeError(f"basis shapes differ: {u1.shape} vs {u2.shape}")
    k = u1.shape[1]
    overlap = float(np.sum((u1.T @ u2) ** 2))
    return float(np.sqrt(max(0.0, k - overlap)))


def stability_stats(
    cov_sequence: list[np.ndarray], k: int
) -> tuple[float, float, list[int]]:
    """Within-sequence covariance variance and top-k eigenvalue dispersion.

    cov_var is the mean squared Frobenius deviation from the time mean.
    eig_cv averages Std/Mean over the top-k eigenvalue trajectories
    (population std); indices with zero mean are skipped and reported.
    """
    if len(cov_sequence) < 2:
        raise ValidationError("need at least two covariance snapshots")
    mats = np.stack([symmetrize(c) for c in cov_sequence])
    mean_mat = mats.mean(axis=0)
    cov_var = float(np.mean(np.sum((mats - mean_mat) ** 2, axis=(1, 2))))
    spectra = np.stack([sym_eig(m).eigenvalues[:k] for m in mats])
    means = spectra.mean(axis=0)
    stds = spectra.std(axis=0)
    skipped = [i for i in range(k) if means[i] == 0.0]
    kept = [i for i in range(k) if means[i] != 0.0]
    eig_cv = float(np.mean([stds[i] / means[i] for i in kept])) if kept else 0.0
    return cov_var, eig_cv, skipped


def xi_multiplier(
    r_eff: float, rho_align: float, pi_proj: float, gammas: tuple[float, float, float]
) -> float:
    """(1 + g_r * r_eff)(1 + g_a * rho)(1 + g_p * pi); >= 1 for non-negative inputs."""
    g_r, g_a, g_p = gammas
    if g_r < 0.0 or g_a < 0.0 or g_p < 0.0:
        raise ValidationError("gamma coefficients must be non-negative")
    return (1.0 + g_r * r_eff) * (1.0 + g_a * rho_align) * (1.0 + g_p * pi_proj)


def pca_embed(
    update_vectors: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Mean-center the cloud and embed into the top-2 principal components.

    Works on the Gram matrix (n x n) so the eigenproblem stays small whatever
    the ambient dimension. Returns (coords n x 2, explained variances,
    degenerate) where degenerate flags an ambient dimension below 2.
    """
    if len(update_vectors) < 3:
        raise ValidationError("need at least three vectors for a PCA export")
    x = np.stack([np.asarray(v, dtype=np.float64).ravel() for v in update_vectors])
    n, dim = x.shape
    degenerate = dim < 2
    xc = x - x.mean(axis=0)
    gram = xc @ xc.T / max(n - 1, 1)
    decomp = sym_eig(gram, name="pca gram")
    top = max(decomp.eigenvalues[0], 0.0)
    coords = np.zeros((n, 2))
    explained = np.zeros(2)
    for j in range(2):
        lam = max(decomp.eigenvalues[j], 0.0)
        if lam <= 1e-12 * top:  # numerically rank-deficient direction
            continue
        explained[j] = lam
        # Gram eigenvector u maps to component w = X_c^T u / sqrt(lam (n-1));
        # scores are X_c w = sqrt(lam (n-1)) * u.
        coords[:, j] = decomp.eigenvectors[:, j] * np.sqrt(lam * max(n - 1, 1))
    return coords, explained, degenerate


def pca_export(
    update_vectors: list[np.ndarray], csv_path: str | Path | None = None
) -> np.ndarray:
    """PCA embedding of an update cloud, optionally written as a CSV (pc1, pc2)."""
    coords, _, _ = pca_embed(update_vectors)
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pc1", "pc2"])
            for row in coords:
                writer.writerow([repr(float(row[0])), repr(float(row[1]))])
    return coords


def adapter_subspace_basis(adapter: AdapterPair) -> np.ndarray:
    """Orthonormal basis (row-major vec coordinates) of the update tangent space.

    The reachable directions at (a, b) are {x a + b y}; their vec span is the
    column space of [I kron a^T, b kron I]. Basis extracted by SVD with a
    relative singular-value cutoff.
    """
    d_out, r = adapter.b.shape
    _, d_in = adapter.a.shape
    span = np.hstack(
        [
            np.kron(np.eye(d_out), adapter.a.T),
            np.kron(adapter.b, np.eye(d_in)),
        ]
    )
    u, s, _ = np.linalg.svd(span, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((d_out * d_in, 0))
    keep = s > 1e-10 * s[0]
    return u[:, keep]


def hessian_fd(grad_fn, w: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Dense Hessian by central finite differences of an exact gradient, symmetrized."""
    w = np.asarray(w, dtype=np.float64)
    n = w.size
    h = np.zeros((n, n))
    for i in range(n):
        wp = w.copy()
        wp[i] += step
        wm = w.copy()
        wm[i] -= step
        h[:, i] = (grad_fn(wp) - grad_fn(wm)) / (2.0 * step)
    return symmetrize(h)


class TelemetryWriter:
    """Append-only newline-delimited geometry stream with a schema header."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        header = json.dumps(
            {"schema": "geometry", "version": TELEMETRY_SCHEMA_VERSION},
            sort_keys=True,
        )
        self.path.write_text(header + "\n")

    def append(self, record: GeometryRecord) -> None:
        with open(self.path, "a") as fh:
            fh.write(record.to_json() + "\n")


def read_telemetry(path: str | Path) -> list[GeometryRecord]:
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValidationError("empty telemetry stream")
    header = json.loads(lines[0])
    if header.get("version") != TELEMETRY_SCHEMA_VERSION:
        raise ValidationError(f"unsupported telemetry version {header.get('version')!r}")
    return [GeometryRecord(**json.loads(line)) for line in lines[1:]]
