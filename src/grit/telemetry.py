"""Geometry summaries and stability diagnostics, plus their append-only stream.

The stream's schema is GeometryRecord: after a header line, each line is
one record's fields (vars(record), keys sorted by JsonlWriter).
stability_stats reads its caller's spectra and decomposes nothing. The
trainer's telemetry step reads all layers at once: stability_stats_stack
on the (layers x window x r x r) stack of their windows and
adapter_subspace_bases with one SVD per factor shape; stability_stats and
adapter_subspace_basis are their one-layer cases. The curvature exposure
reads the factored Hessian blocks of
tasks.TaskInstance.pt_curvature; the dense finite-difference Hessian it is
checked against is in oracles.

Naming note: the energy threshold used by rank selection is tau_energy
(config key rank_adaptation_threshold) while the update-magnitude cutoff for
tail mass is tau_tail (config key tail_threshold); they are unrelated knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import sym_eig
from .model import AdapterPair
from .reprojection import effective_rank  # noqa: F401  (re-exported)
from .runio import JsonlWriter, check_value_types, json_lines

TELEMETRY_SCHEMA_VERSION = 1


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
    jitter: float
    subspace_drift: float
    eig_cv: float
    cov_var: float
    spectrum: list[float]


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


def update_jitter(p_t: np.ndarray, p_prev: np.ndarray) -> float:
    """1 - cos(p_t, p_prev); 0.0 when either vector is zero."""
    p_t = np.asarray(p_t, dtype=np.float64).ravel()
    p_prev = np.asarray(p_prev, dtype=np.float64).ravel()
    nt = np.linalg.norm(p_t)
    np_ = np.linalg.norm(p_prev)
    if nt == 0.0 or np_ == 0.0:
        return 0.0
    cos = float(np.dot(p_t, p_prev) / (nt * np_))
    return 1.0 - min(1.0, max(-1.0, cos))


def subspace_drift(u_t: np.ndarray, u_next: np.ndarray) -> float:
    """Frobenius norm of principal-angle sines: sqrt(k - ||U_t^T U_next||_F^2)."""
    u1 = _check_orthonormal(u_t, "u_t")
    u2 = _check_orthonormal(u_next, "u_next")
    if u1.shape != u2.shape:
        raise ShapeError(f"basis shapes differ: {u1.shape} vs {u2.shape}")
    k = u1.shape[1]
    overlap = float(np.sum((u1.T @ u2) ** 2))
    return float(np.sqrt(max(0.0, k - overlap)))


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
    return float(_covariance_variances(np.asarray(cov_sequence, dtype=np.float64)[None])[0])


def _covariance_variances(windows: np.ndarray) -> np.ndarray:
    """covariance_variance of each window of a (layers x window x r x r) stack."""
    mats = 0.5 * (windows + windows.swapaxes(2, 3))
    deviations = mats - mats.mean(axis=1, keepdims=True)
    return np.mean(np.sum(deviations**2, axis=(2, 3)), axis=1)


def stability_stats(
    cov_sequence: list[np.ndarray], k: int, spectra: list[np.ndarray]
) -> tuple[float, float]:
    """(cov_var, eig_cv): within-sequence covariance variance and top-k eigenvalue dispersion.

    cov_var is covariance_variance(cov_sequence). eig_cv averages Std/Mean
    over the top-k eigenvalue trajectories (population std), skipping
    indices with zero mean. spectra has every snapshot's
    eigenvalues in sym_eig's descending order; no snapshot is decomposed
    here. This is stability_stats_stack on one window.
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
    return cov_var, float(_eig_cvs(top[None], [k])[0])


def stability_stats_stack(
    windows: np.ndarray, ks: list[int], spectra: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """stability_stats of every layer's window at once: (cov_var, eig_cv), one entry per layer.

    windows stacks the layers' covariance snapshots (layers x window x r x r),
    spectra their eigenvalues (layers x window x r), and ks holds each
    layer's k. Each entry is bitwise the one stability_stats gives that
    layer's window.
    """
    return _covariance_variances(windows), _eig_cvs(spectra, ks)


def _eig_cvs(spectra: np.ndarray, ks: list[int]) -> np.ndarray:
    """eig_cv of each layer's (window x r) spectra over its top ks[layer] eigenvalues.

    The window statistics of all columns are taken at once. NumPy sums a
    lone column pairwise but the columns of a wider array one row after the
    other, so the first column of a k = 1 layer is taken again on its own,
    to round as a one-layer window of k columns does.
    """
    means = spectra.mean(axis=1)
    stds = spectra.std(axis=1)
    single = np.asarray(ks) == 1
    if single.any():
        first = spectra[single, :, 0]
        means[single, 0] = first.mean(axis=1)
        stds[single, 0] = first.std(axis=1)
    eig_cvs = np.zeros(len(ks))
    for layer, k in enumerate(ks):
        kept = means[layer, :k] != 0.0
        if kept.any():
            eig_cvs[layer] = np.mean(stds[layer, :k][kept] / means[layer, :k][kept])
    return eig_cvs


def xi_multiplier(
    r_eff: float, rho_align: float, pi_proj: float, gammas: tuple[float, float, float]
) -> float:
    """(1 + g_r * r_eff)(1 + g_a * rho)(1 + g_p * pi); >= 1 for non-negative inputs."""
    g_r, g_a, g_p = gammas
    if g_r < 0.0 or g_a < 0.0 or g_p < 0.0:
        raise ValidationError("gamma coefficients must be non-negative")
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
    x = np.stack([np.asarray(v, dtype=np.float64).ravel() for v in update_vectors])
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


@dataclass
class LayerCurvature:
    """Exact factors of one layer's pretraining Hessian block.

    On row-major vec coordinates of the layer weight the block is
    sum_s C_s kron x_s x_s^T, with x the layer inputs (m x d_in) and C_s the
    Hessian of the loss in sample s's pre-activations,
    C_s = diag(d_s) H diag(d_s) + diag(e_s). Here d = act'(z) and
    e = act''(z) * dloss/dh are m x d_out, and h is H, the Hessian in the
    layer's outputs. H is one d_out x d_out matrix, shared by every sample,
    when every layer above is an identity layer, as in every layer of the
    built-in tasks; the factors then take O(m (d_in + d_out)) memory besides
    H. Below a tanh layer H differs per sample, and h is m x d_out x d_out.
    """

    x: np.ndarray
    d: np.ndarray
    h: np.ndarray
    e: np.ndarray
    # per sample ||x_s||^2 and tr(C_s), read by every exposure_from_basis call
    x_sq: np.ndarray = field(init=False, repr=False)
    c_trace: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.x_sq = np.sum(self.x * self.x, axis=1)
        h_diag = np.diagonal(self.h, axis1=-2, axis2=-1)
        self.c_trace = np.sum(self.d * self.d * h_diag, axis=1) + np.sum(self.e, axis=1)

    @property
    def c(self) -> np.ndarray:
        """The per-sample blocks C_s (m x d_out x d_out), materialized on each call.

        For the oracles, the tests and a per-sample H; no run of the built-in
        tasks calls it.
        """
        c = self.d[:, :, None] * self.h * self.d[:, None, :]
        diag = np.arange(c.shape[1])
        c[:, diag, diag] += self.e
        return c


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


def read_telemetry(path: str | Path) -> list[GeometryRecord]:
    """The records of a geometry stream after its header.

    A line that is not a JSON object, whose keys are not the record's
    fields, or whose values are not of their fields' kinds (numbers, and a
    list of numbers for spectrum) raises ValidationError naming the file and
    the line; the stream is parsed in one call (runio.json_lines), and a
    damaged one is reported as the line-by-line read would.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValidationError("empty telemetry stream")
    objects = json_lines(lines, path)
    header = next(objects)
    if header.get("version") != TELEMETRY_SCHEMA_VERSION:
        raise ValidationError(f"unsupported telemetry version {header.get('version')!r}")
    records = []
    for number, obj in enumerate(objects, start=2):
        try:
            record = GeometryRecord(**obj)
        except TypeError as exc:
            raise ValidationError(f"{path} line {number}: not a geometry record ({exc})") from exc
        check_value_types(record, f"{path} line {number}")
        records.append(record)
    return records
