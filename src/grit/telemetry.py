"""Geometry summaries and the eigenvalue-dispersion diagnostic, plus their append-only stream.

The stream's schema is GeometryRecord: after a header line, each line is
one record's fields (vars(record), keys sorted by JsonlWriter), every
spectrum as long as the first; read_telemetry builds each line with
runio.from_document, and reads a version-1 stream by discarding the three
stability fields version 2 dropped (jitter, subspace_drift, cov_var).
eig_cvs reads its caller's spectra and decomposes nothing. The trainer's
telemetry pass reads all layers of a snapshot at once, eig_cvs on the
(layers x window x r) stack of its window's spectra, and the adapters of a
whole block in adapter_subspace_bases, one SVD per factor shape;
stability_stats and adapter_subspace_basis are their one-layer cases, bit
for bit. The curvature exposure reads the factored Hessian blocks
(model.LayerCurvature) of tasks.TaskInstance.pt_curvature; the dense
finite-difference Hessian it is checked against is in oracles. No setting
tunes a diagnostic: the trainer fixes the r_eff energy fraction and each
layer's tail-mass cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import sym_eig
from .model import AdapterPair, LayerCurvature
from .reprojection import effective_rank  # noqa: F401  (re-exported)
from .runio import JsonlWriter, from_document, json_lines

TELEMETRY_SCHEMA_VERSION = 2


@dataclass
class GeometryRecord:
    """One telemetry row per (step, layer); its fields are the stream line's keys."""

    step: int
    layer: int
    k_selected: int
    r_eff: int
    rho_align: float
    pi_proj: float
    tail_mass: int
    curvature_exposure: float
    eig_cv: float
    spectrum: list[float]


def tail_mass(delta_w: np.ndarray, threshold: float) -> int:
    """Count of update coordinates with magnitude above the threshold."""
    if not threshold > 0.0:  # NaN included
        raise ValidationError(f"threshold must be positive, got {threshold!r}")
    delta_w = np.asarray(delta_w, dtype=np.float64)
    if not np.all(np.isfinite(delta_w)):
        raise ValidationError("update vector must be finite")
    return int(np.sum(np.abs(delta_w) > threshold))


def _check_orthonormal(basis: np.ndarray, name: str) -> np.ndarray:
    basis = np.asarray(basis, dtype=np.float64)
    if basis.ndim != 2:
        raise ShapeError(f"{name} must be a 2-d basis matrix")
    if basis.shape[1] == 0:
        raise ValidationError(f"{name} has no columns")
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
    return float(np.sum((u.T @ v) ** 2)) / u.shape[1]


def covariance_variance(cov_sequence: list[np.ndarray]) -> float:
    """Mean squared Frobenius deviation of the symmetrized snapshots from their time mean."""
    if len(cov_sequence) < 2:
        raise ValidationError("need at least two covariance snapshots")
    shapes = {np.shape(c) for c in cov_sequence}
    if len(shapes) != 1:
        raise ShapeError(f"covariance snapshots differ in shape: {sorted(shapes)}")
    (shape,) = shapes
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ShapeError(f"expected square covariance snapshots, got shape {shape}")
    raw = np.asarray(cov_sequence, dtype=np.float64)
    mats = 0.5 * (raw + raw.swapaxes(1, 2))
    deviations = mats - mats.mean(axis=0)
    return float(np.mean(np.sum(deviations**2, axis=(1, 2))))


def stability_stats(
    cov_sequence: list[np.ndarray], k: int, spectra: list[np.ndarray]
) -> tuple[float, float]:
    """(cov_var, eig_cv): within-sequence covariance variance and top-k eigenvalue dispersion.

    cov_var is covariance_variance(cov_sequence). eig_cv averages Std/Mean
    over the top-k eigenvalue trajectories (population std), skipping
    indices with zero mean. spectra has every snapshot's
    eigenvalues in sym_eig's descending order; no snapshot is decomposed
    here. eig_cv is eig_cvs on one window.
    """
    cov_var = covariance_variance(cov_sequence)
    dim = np.shape(cov_sequence[0])[0]
    if not 1 <= k <= dim:
        raise ValidationError(f"k must be between 1 and {dim}, got {k}")
    if len(spectra) != len(cov_sequence):
        raise ValidationError(
            f"{len(spectra)} spectra given for {len(cov_sequence)} covariance snapshots"
        )
    top = np.asarray([eigenvalues[:k] for eigenvalues in spectra], dtype=np.float64)
    return cov_var, float(eig_cvs(top[None], [k])[0])


def eig_cvs(spectra: np.ndarray, ks: list[int]) -> np.ndarray:
    """eig_cv of each layer of a (layers x window x r) spectra stack, over its top ks[layer] eigenvalues."""
    cvs = np.zeros(len(ks))
    for layer, k in enumerate(ks):
        top = spectra[layer, :, :k]
        means = top.mean(axis=0)
        kept = means != 0.0
        if kept.any():
            cvs[layer] = np.mean(top.std(axis=0)[kept] / means[kept])
    return cvs


def xi_multiplier(
    r_eff: float, rho_align: float, pi_proj: float, gammas: tuple[float, float, float]
) -> float:
    """(1 + g_r * r_eff)(1 + g_a * rho)(1 + g_p * pi); >= 1 for non-negative inputs."""
    g_r, g_a, g_p = gammas
    if not (g_r >= 0.0 and g_a >= 0.0 and g_p >= 0.0):  # NaN included
        raise ValidationError(f"gamma coefficients must be non-negative, got {gammas!r}")
    return (1.0 + g_r * r_eff) * (1.0 + g_a * rho_align) * (1.0 + g_p * pi_proj)


def pca_export(update_vectors: list[np.ndarray]) -> np.ndarray:
    """The (pc1, pc2) coordinates of an update cloud's PCA embedding, one row per vector.

    The cloud is mean-centered and embedded into its top-2 principal
    components through the Gram matrix (n x n), so the eigenproblem stays
    small whatever the ambient dimension. A numerically rank-deficient
    component gives a zero column.
    """
    if len(update_vectors) < 3:
        raise ValidationError("need at least three vectors for a PCA export")
    rows = [np.asarray(v, dtype=np.float64).ravel() for v in update_vectors]
    lengths = sorted({len(row) for row in rows})
    if len(lengths) != 1:
        raise ShapeError(f"update vectors differ in length: {lengths}")
    x = np.stack(rows)
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    gram = xc @ xc.T / max(n - 1, 1)
    decomp = sym_eig(gram, name="pca gram")
    top = max(decomp.eigenvalues[0], 0.0)
    coords = np.zeros((n, 2))
    for j in range(2):
        lam = max(decomp.eigenvalues[j], 0.0)
        if lam <= 1e-12 * top:  # numerically rank-deficient direction
            continue
        # Gram eigenvector u maps to component w = X_c^T u / sqrt(lam (n-1));
        # scores are X_c w = sqrt(lam (n-1)) * u.
        coords[:, j] = decomp.eigenvectors[:, j] * np.sqrt(lam * max(n - 1, 1))
    return coords


@dataclass
class TangentBasis:
    """Factors of the tangent space {x a + b y} of the adapter update at (a, b).

    q_in is an orthonormal basis of row(a) (d_in x r_a) and q_out one of
    col(b) (d_out x r_b). On row-major vec coordinates the tangent projector
    is I kron P_in + P_out kron I - P_out kron P_in, with P = q q^T, and
    the space has dimension d_out * r_a + r_b * (d_in - r_a).
    """

    q_in: np.ndarray
    q_out: np.ndarray


def _column_bases(mats: list[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal basis of each col(m), cut at singular values below 1e-10 * s_max.

    The matrices of one shape go through one stacked SVD.
    """
    bases: list[np.ndarray] = [None] * len(mats)
    by_shape: dict[tuple, list[int]] = {}
    for i, m in enumerate(mats):
        by_shape.setdefault(m.shape, []).append(i)
    for indices in by_shape.values():
        u, s, _ = np.linalg.svd(np.stack([mats[i] for i in indices]), full_matrices=False)
        for i, u_i, s_i in zip(indices, u, s):
            bases[i] = u_i[:, s_i > 1e-10 * s_i.max(initial=0.0)]  # none when m = 0
    return bases


def adapter_subspace_bases(adapters: list[AdapterPair]) -> list[TangentBasis]:
    """The factored tangent basis of each adapter (see TangentBasis), one SVD call per factor shape."""
    q_in = _column_bases([adapter.a.T for adapter in adapters])
    q_out = _column_bases([adapter.b for adapter in adapters])
    return [TangentBasis(q_in=qi, q_out=qo) for qi, qo in zip(q_in, q_out)]


def adapter_subspace_basis(adapter: AdapterPair) -> TangentBasis:
    """Factored basis of the update tangent space: adapter_subspace_bases of one adapter."""
    return adapter_subspace_bases([adapter])[0]


def exposure_from_basis(curvature: LayerCurvature, basis: TangentBasis) -> float:
    """Curvature exposure tr(H P) over the tangent space, from both sets of factors.

    For H = sum_s C_s kron x_s x_s^T the exposure is
    sum_s tr(C_s) ||q_in^T x_s||^2 + tr(q_out^T M q_out), with
    M = sum_s w_s C_s and w_s = ||x_s||^2 - ||q_in^T x_s||^2. With a shared H
    (every layer above is identity), M = H * (d^T diag(w) d) + diag(e^T w)
    (elementwise product) reads only H and the O(m d) factors, and no
    m x d_out x d_out array is formed; a per-sample H contracts the
    materialized blocks. The cost is O(m d^2).
    """
    x, d = curvature.x, curvature.d
    q_in, q_out = basis.q_in, basis.q_out
    if x.shape[1] != q_in.shape[0] or d.shape[1] != q_out.shape[0]:
        raise ShapeError(
            f"curvature factors for a {d.shape[1]}x{x.shape[1]} layer do not match "
            f"a {q_out.shape[0]}x{q_in.shape[0]} tangent basis"
        )
    x_in = x @ q_in
    in_sq = np.sum(x_in * x_in, axis=1)
    out_weight = curvature.x_sq - in_sq
    exposure = np.dot(curvature.c_trace, in_sq)
    if curvature.h.ndim == 2:
        weighted = curvature.h * (d.T @ (out_weight[:, None] * d))
        weighted.flat[:: d.shape[1] + 1] += out_weight @ curvature.e  # the diagonal
    else:
        weighted = np.tensordot(out_weight, curvature.c, axes=1)
    exposure += np.vdot(q_out, weighted @ q_out)
    return float(exposure)


class TelemetryWriter:
    """Append-only geometry stream: a schema header line, then one record per line."""

    def __init__(self, path: str | Path):
        self.lines = JsonlWriter(path)
        self.lines.append({"schema": "geometry", "version": TELEMETRY_SCHEMA_VERSION})

    def append(self, *records: GeometryRecord) -> None:
        self.lines.append(*map(vars, records))

    def close(self) -> None:
        self.lines.close()


def read_telemetry(path: str | Path) -> tuple[list[GeometryRecord], np.ndarray]:
    """The records of a geometry stream after its header, and their spectra as one array, a row per record.

    The header must be {"schema": "geometry", "version": v} with v the
    integer 1 or 2. A version-1 stream reads with each line's jitter,
    subspace_drift and cov_var discarded. A line that is not a JSON object,
    whose keys are not the record's fields, whose values are not of their
    fields' kinds, or whose spectrum is not as long as the first record's or
    not finite, raises ValidationError naming the file and the line; the
    stream is parsed in one call (runio.json_lines), and a damaged one is
    reported as the line-by-line read would. The finiteness check reads the
    returned array, so the audit's energy curves are taken from the spectra
    it checked.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValidationError("empty telemetry stream")
    objects = json_lines(lines, path)
    header = next(objects)
    version = header.get("version")
    if type(version) is not int or version not in (1, TELEMETRY_SCHEMA_VERSION):  # True == 1 and 2.0 == 2
        raise ValidationError(f"unsupported telemetry version {version!r}")
    if header.get("schema") != "geometry":
        raise ValidationError(f"{path}: schema is {header.get('schema')!r}, not 'geometry'")
    records = []
    for number, obj in enumerate(objects, start=2):
        if version == 1:  # the stability fields version 2 dropped
            for key in ("jitter", "subspace_drift", "cov_var"):
                obj.pop(key, None)
        record = from_document(GeometryRecord, obj, f"{path} line {number}", "geometry record")
        if records and len(record.spectrum) != len(records[0].spectrum):  # the audit stacks the spectra
            raise ValidationError(f"{path} line {number}: spectrum of length {len(record.spectrum)}, not line 2's {len(records[0].spectrum)}")
        records.append(record)
    spectra = np.array([record.spectrum for record in records], ndmin=2, dtype=np.float64)
    finite = np.isfinite(spectra).all(axis=1)
    if not finite.all():  # the audit's energy curves need it
        raise ValidationError(f"{path} line {2 + finite.argmin()}: spectrum has non-finite entries")
    return records, spectra
