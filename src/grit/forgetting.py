"""Quadratic forgetting estimators and the two-stage forgetting-law fit.

The base-behavior drift of a fine-tuned model follows, empirically,
L = c0 + A * D^beta / N^alpha where D is the fine-tuning volume and N the
model size. Geometry-aware runs are modeled with an effective capacity
multiplier entering as N -> Xi * N, with Xi the three-factor product over
(r_eff, rho_align, pi_proj). Fitting proceeds in two stages: a 1-d search
for the joint offset c0 with linear least squares over (log A, beta, alpha),
then projected Gauss-Newton for the non-negative gamma coefficients at fixed
baseline constants.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    ShapeError,
    UnderdeterminedFitError,
    UnidentifiableGammaError,
    ValidationError,
)
from .linalg import SpectralDecomp, symmetrize
from .runio import RunRecord, write_json
from .telemetry import xi_multiplier

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def quadratic_forgetting(h_decomp: SpectralDecomp, delta_w: np.ndarray) -> float:
    """0.5 * sum_j max(lambda_j, 0) * (u_j . delta_w)^2."""
    delta_w = np.asarray(delta_w, dtype=np.float64).ravel()
    if delta_w.size != h_decomp.dim:
        raise ShapeError(
            f"update dimension {delta_w.size} does not match Hessian dim {h_decomp.dim}"
        )
    lam = np.maximum(h_decomp.eigenvalues, 0.0)
    proj = h_decomp.eigenvectors.T @ delta_w
    return float(0.5 * np.sum(lam * proj * proj))


def trace_forgetting(h: np.ndarray, sigma_delta: np.ndarray) -> float:
    """0.5 * tr(H Sigma): expected quadratic forgetting over updates with covariance Sigma."""
    h = symmetrize(h)
    sigma = symmetrize(sigma_delta)
    if h.shape != sigma.shape:
        raise ShapeError(f"dimension mismatch: {h.shape} vs {sigma.shape}")
    return float(0.5 * np.trace(h @ sigma))


@dataclass
class ScalingFit:
    """Fitted forgetting-law constants; gamma_* all zero reduces to the baseline law."""

    c0: float
    a_coef: float
    alpha: float
    beta: float
    gamma_r: float = 0.0
    gamma_a: float = 0.0
    gamma_p: float = 0.0
    residual_rms: float = 0.0
    unidentifiable: list[str] = field(default_factory=list)

    @property
    def gammas(self) -> tuple[float, float, float]:
        return (self.gamma_r, self.gamma_a, self.gamma_p)


def save_fit(fit: ScalingFit, path: str | Path) -> None:
    write_json(path, asdict(fit))


def load_fit(path: str | Path) -> ScalingFit:
    return ScalingFit(**json.loads(Path(path).read_text()))


def _check_finite(values: np.ndarray, names: str) -> None:
    """ValidationError indexing the first row of values (one per record) with a NaN or infinity."""
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ValidationError(f"{names} must be finite", index=int(np.argmin(finite)))


def _extract_dnl(records: Sequence[RunRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d = np.array([float(r.d_ft) for r in records])
    n = np.array([float(r.n_params) for r in records])
    loss = np.array([float(r.pt_loss_after) for r in records])
    _check_finite(np.column_stack([d, n, loss]), "d_ft, n_params and pt_loss_after")
    bad = (d <= 0.0) | (n <= 0.0)
    if bad.any():
        raise ValidationError("d_ft and n_params must be positive", index=int(np.argmax(bad)))
    return d, n, loss


def _lls_at_offset(
    c0: float, d: np.ndarray, n: np.ndarray, loss: np.ndarray
) -> tuple[float, np.ndarray]:
    """Least-squares over (log A, beta, alpha) at a fixed offset; returns (sse, theta)."""
    resid = loss - c0
    if np.any(resid <= 0.0):
        return np.inf, np.zeros(3)
    y = np.log(resid)
    x = np.column_stack([np.ones_like(d), np.log(d), -np.log(n)])
    theta, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
    sse = float(np.sum((x @ theta - y) ** 2))
    return sse, theta


def _golden_section(fn, lo: float, hi: float, tol: float = 1e-8) -> float:
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def fit_baseline_law(records: Sequence[RunRecord]) -> ScalingFit:
    """Recover (c0, A, alpha, beta) from (d_ft, n_params, pt_loss_after) triples.

    Needs at least six records spanning two model sizes and three data volumes.
    c0 is searched on [0, min L) by a coarse grid plus golden-section refinement;
    candidates leaving any non-positive residual are rejected.
    """
    if len(records) < 6:
        raise UnderdeterminedFitError(
            f"need at least 6 records, got {len(records)}", axis="count"
        )
    d, n, loss = _extract_dnl(records)
    if np.unique(n).size < 2:
        raise UnderdeterminedFitError("need at least 2 distinct model sizes", axis="n_params")
    if np.unique(d).size < 3:
        raise UnderdeterminedFitError("need at least 3 distinct data volumes", axis="d_ft")

    hi = float(np.min(loss))
    if hi <= 0.0:
        raise ValidationError("pt losses must be positive for the offset search", index=int(np.argmax(loss <= 0.0)))

    def objective(c0: float) -> float:
        return _lls_at_offset(c0, d, n, loss)[0]

    grid = np.linspace(0.0, hi * (1.0 - 1e-9), 65)
    values = [objective(c) for c in grid]
    best = int(np.argmin(values))
    lo_b = grid[max(best - 1, 0)]
    hi_b = grid[min(best + 1, grid.size - 1)]
    c0 = _golden_section(objective, lo_b, hi_b)
    sse, theta = _lls_at_offset(c0, d, n, loss)
    if not np.isfinite(sse):
        raise UnderdeterminedFitError("offset search found no feasible c0", axis="c0")
    log_a, beta, alpha = theta
    fit = ScalingFit(c0=float(c0), a_coef=float(np.exp(log_a)), alpha=float(alpha), beta=float(beta))
    pred = np.array([predict(fit, di, ni, (0.0, 0.0, 1.0)) for di, ni in zip(d, n)])
    fit.residual_rms = float(np.sqrt(np.mean((pred - loss) ** 2)))
    return fit


def _geometry_matrix(records: Sequence[RunRecord]) -> np.ndarray:
    s = np.array(
        [
            [
                float(r.geometry_summary.r_eff),
                float(r.geometry_summary.rho_align),
                float(r.geometry_summary.pi_proj),
            ]
            for r in records
        ]
    )
    _check_finite(s, "r_eff, rho_align and pi_proj")
    return s


GAMMA_NAMES = ("gamma_r", "gamma_a", "gamma_p")


def fit_xi_coefficients(
    records: Sequence[RunRecord], baseline: ScalingFit
) -> ScalingFit:
    """Fit non-negative gamma coefficients at fixed baseline constants.

    Regresses log Xi = sum_j log(1 + gamma_j s_j) against the log residuals of
    the baseline law. Statistics that are constant across records are flagged
    unidentifiable and excluded (their gamma stays 0). Non-negativity is kept
    by projecting after each Gauss-Newton step.
    """
    if not records:
        raise UnidentifiableGammaError("no records with geometry summaries")
    d, n, loss = _extract_dnl(records)
    s = _geometry_matrix(records)
    resid = loss - baseline.c0
    if np.any(resid <= 0.0):
        raise ValidationError("a record lies at or below the fitted offset", index=int(np.argmax(resid <= 0.0)))
    # log Xi implied by each record under the baseline constants
    y = (
        np.log(baseline.a_coef)
        + baseline.beta * np.log(d)
        - baseline.alpha * np.log(n)
        - np.log(resid)
    ) / baseline.alpha

    spread = s.std(axis=0)
    scale = np.abs(s).mean(axis=0) + 1.0
    identifiable = spread > 1e-9 * scale
    flags = [GAMMA_NAMES[j] for j in range(3) if not identifiable[j]]
    if not identifiable.any():
        raise UnidentifiableGammaError(
            "all geometry statistics are constant across records"
        )
    cols = np.where(identifiable)[0]
    sz = s[:, cols]

    # Linearized start (log(1 + g s) ~ g s), clipped to the feasible set.
    g0, _, _, _ = np.linalg.lstsq(sz, y, rcond=None)
    g = np.maximum(g0, 0.0)
    for _ in range(200):
        basis = 1.0 + sz * g
        if np.any(basis <= 0.0):
            g = np.maximum(g * 0.5, 0.0)
            continue
        r_vec = np.sum(np.log(basis), axis=1) - y
        jac = sz / basis
        jtj = jac.T @ jac + 1e-12 * np.eye(cols.size)
        step = np.linalg.solve(jtj, jac.T @ r_vec)
        g_new = np.maximum(g - step, 0.0)
        if np.max(np.abs(g_new - g)) < 1e-14:
            g = g_new
            break
        g = g_new

    gammas = [0.0, 0.0, 0.0]
    for idx, j in enumerate(cols):
        gammas[j] = float(g[idx])
    fit = ScalingFit(
        c0=baseline.c0,
        a_coef=baseline.a_coef,
        alpha=baseline.alpha,
        beta=baseline.beta,
        gamma_r=gammas[0],
        gamma_a=gammas[1],
        gamma_p=gammas[2],
        unidentifiable=flags,
    )
    pred = np.array(
        [
            predict(fit, di, ni, tuple(si))
            for di, ni, si in zip(d, n, s)
        ]
    )
    fit.residual_rms = float(np.sqrt(np.mean((pred - loss) ** 2)))
    return fit


def predict(
    fit: ScalingFit, d_ft: float, n: float, geometry: tuple[float, float, float]
) -> float:
    """c0 + A * D^beta / (Xi * N)^alpha with Xi from the fitted gammas."""
    r_eff, rho, pi = geometry
    xi = xi_multiplier(r_eff, rho, pi, fit.gammas)
    return float(fit.c0 + fit.a_coef * d_ft**fit.beta / (xi * n) ** fit.alpha)
