"""Per-layer rank-space curvature statistics and natural-gradient preconditioning.

The Fisher block of an adapted layer factorizes (approximately) as
g_cov kron a_cov where a_cov = E[(a x)(a x)^T] and g_cov = E[(b^T g)(b^T g)^T]
are r x r second moments of the rank-projected activations and output
gradients. Preconditioning then decouples: the b-factor gradient is multiplied
by inv(g_cov + lambda I) on the right, the a-factor gradient by
inv(a_cov + lambda I) on the left.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionUnavailableError, ShapeError
from .linalg import damped_solve, symmetrize
from .model import AdapterPair, LayerTape


@dataclass
class RankSpaceStats:
    """Running rank-space covariances plus cached damped inverses for one layer.

    accumulate and reset rebind a_cov and g_cov to new arrays and never
    write into the old ones, so a consumer may hold a reference to either
    and tell by identity whether it is still current. reprojection's
    LayerGeometry relies on this: it keeps one accumulation's arrays, and
    the trainer's stability window keeps the last few geometries.
    """

    rank: int
    damping: float
    ema_beta: float | None = None  # None: sample-weighted running mean
    a_cov: np.ndarray = field(default=None)  # type: ignore[assignment]
    g_cov: np.ndarray = field(default=None)  # type: ignore[assignment]
    n_cov: int = 0
    inv_a: np.ndarray | None = None
    inv_g: np.ndarray | None = None
    inv_ready: bool = False
    sanitized_count: int = 0

    def __post_init__(self):
        if self.a_cov is None:
            self.a_cov = np.zeros((self.rank, self.rank))
        if self.g_cov is None:
            self.g_cov = np.zeros((self.rank, self.rank))

    def reset(self):
        """Explicit reset; the only path on which inv_ready may go true -> false."""
        self.a_cov = np.zeros((self.rank, self.rank))
        self.g_cov = np.zeros((self.rank, self.rank))
        self.n_cov = 0
        self.inv_a = None
        self.inv_g = None
        self.inv_ready = False


def _batch_second_moment(rows: np.ndarray) -> np.ndarray:
    return rows.T @ rows / rows.shape[0]


def accumulate(stats: RankSpaceStats, tape: LayerTape, adapter: AdapterPair) -> RankSpaceStats:
    """Fold one captured batch into the covariances.

    Rank-space samples are a_r = x @ a^T and g_r = dy @ b (row per example).
    Running-mean mode weights the batch mean by batch size; EMA mode applies
    c <- beta * c + (1 - beta) * c_mb, initializing from the first batch.
    """
    if tape.x is None or tape.dy is None:
        raise ShapeError("tape not populated; run forward and backward first")
    if adapter.rank != stats.rank:
        raise ShapeError(
            f"stats rank {stats.rank} does not match adapter rank {adapter.rank}"
        )
    a_r = tape.x @ adapter.a.T
    g_r = tape.dy @ adapter.b
    batch = a_r.shape[0]
    s_a = _batch_second_moment(a_r)
    s_g = _batch_second_moment(g_r)
    if stats.ema_beta is None:
        n_new = stats.n_cov + batch
        w_old = stats.n_cov / n_new
        w_new = batch / n_new
        stats.a_cov = w_old * stats.a_cov + w_new * s_a
        stats.g_cov = w_old * stats.g_cov + w_new * s_g
    else:
        if stats.n_cov == 0:
            stats.a_cov = s_a
            stats.g_cov = s_g
        else:
            beta = stats.ema_beta
            stats.a_cov = beta * stats.a_cov + (1.0 - beta) * s_a
            stats.g_cov = beta * stats.g_cov + (1.0 - beta) * s_g
    stats.n_cov += batch
    return stats


def refresh_inverses(stats: RankSpaceStats, min_samples: int) -> bool:
    """Recompute cached damped inverses; no-op (returns False) while the sample gate is unmet."""
    if stats.n_cov < min_samples:
        return False
    eye = np.eye(stats.rank)
    inv_a, _ = damped_solve(symmetrize(stats.a_cov), stats.damping, eye)
    inv_g, _ = damped_solve(symmetrize(stats.g_cov), stats.damping, eye)
    stats.inv_a = inv_a
    stats.inv_g = inv_g
    stats.inv_ready = True
    return True


def precondition(
    grad_a: np.ndarray, grad_b: np.ndarray, stats: RankSpaceStats
) -> tuple[np.ndarray, np.ndarray]:
    """Natural-gradient map: (inv_a @ grad_a, grad_b @ inv_g).

    Non-finite outputs are zeroed and counted on stats.sanitized_count.
    """
    if not stats.inv_ready:
        raise PreconditionUnavailableError(
            "inverses not ready; caller should fall back to raw gradients"
        )
    nat_a = stats.inv_a @ grad_a
    nat_b = grad_b @ stats.inv_g
    bad_a = ~np.isfinite(nat_a)
    bad_b = ~np.isfinite(nat_b)
    if bad_a.any() or bad_b.any():
        stats.sanitized_count += int(bad_a.sum() + bad_b.sum())
        nat_a = np.where(bad_a, 0.0, nat_a)
        nat_b = np.where(bad_b, 0.0, nat_b)
    return nat_a, nat_b
