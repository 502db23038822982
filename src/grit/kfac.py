"""Per-layer rank-space curvature statistics and natural-gradient preconditioning.

a_cov = E[(a x)(a x)^T] and g_cov = E[(b^T g)(b^T g)^T] are r x r second
moments of the rank-projected activations and output gradients. The
preconditioner applies them per factor, as damped inverses inv_a =
inv(a_cov + lambda I) and inv_g = inv(g_cov + lambda I): inv_a @ grad_a for
the a factor (r x d_in) and grad_b @ inv_g for the b factor (d_out x r).
refresh_inverses builds both from the covariances' eigendecompositions
(linalg.damped_inverse), the ones the trainer's layer geometry already
keeps, so no covariance is factored a second time; lambda climbs the
damping ladder until the shifted spectrum is positive, and the rung and
condition number of each inverse are kept for the invert event. Nothing
clears the statistics, so once a layer's inverses are ready they stay
ready for the rest of the run.
Which Kronecker factorization of the Fisher block this pairing
approximates is ROADMAP item 6's question. It finds this pairing swapped:
for y = W0 x + s b a x the a factor's rank-space factor is g_cov (its
gradient is s sum_i (b^T dy_i) x_i^T) and the b factor's is a_cov (its input
is a x; Martens & Grosse 2015).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionUnavailableError, ShapeError
from .linalg import SpectralDecomp, damped_inverse, sym_eig_stack
from .linalg import damped_solve  # noqa: F401  (perfbench/spans.py traces it by this name)
from .model import AdapterPair, LayerTape


@dataclass
class RankSpaceStats:
    """Running rank-space covariances plus cached damped inverses for one layer."""

    rank: int
    damping: float
    ema_beta: float | None = None  # None: sample-weighted running mean
    a_cov: np.ndarray = field(default=None)  # type: ignore[assignment]
    g_cov: np.ndarray = field(default=None)  # type: ignore[assignment]
    n_cov: int = 0
    inv_a: np.ndarray | None = None
    inv_g: np.ndarray | None = None
    inv_ready: bool = False
    # (a, g) ladder multiplier and condition number of the last inverses
    rung: tuple[float, float] | None = None
    cond: tuple[float, float] | None = None
    sanitized_count: int = 0

    def __post_init__(self):
        if self.a_cov is None:
            self.a_cov = np.zeros((self.rank, self.rank))
        if self.g_cov is None:
            self.g_cov = np.zeros((self.rank, self.rank))


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


def refresh_inverses(
    stats: RankSpaceStats,
    min_samples: int,
    decomps: tuple[SpectralDecomp, SpectralDecomp] | None = None,
) -> bool:
    """Recompute cached damped inverses; no-op (returns False) while the sample gate is unmet.

    decomps gives the eigendecompositions of (a_cov, g_cov); when absent
    both covariances are decomposed here.
    """
    if stats.n_cov < min_samples:
        return False
    if decomps is None:
        decomps = sym_eig_stack([stats.a_cov, stats.g_cov], ("a_cov", "g_cov"))
    stats.inv_a, rung_a, cond_a = damped_inverse(decomps[0], stats.damping)
    stats.inv_g, rung_g, cond_g = damped_inverse(decomps[1], stats.damping)
    stats.rung = (rung_a, rung_g)
    stats.cond = (cond_a, cond_g)
    stats.inv_ready = True
    return True


def precondition(
    grad_a: np.ndarray, grad_b: np.ndarray, stats: RankSpaceStats
) -> tuple[np.ndarray, np.ndarray]:
    """Natural-gradient map: (inv_a @ grad_a, grad_b @ inv_g).

    Non-finite outputs are zeroed and counted on stats.sanitized_count.
    The entry masks are built only when the outputs' sum of squares is not
    finite: always when an entry is not, and also when finite entries
    overflow it, where the masks find nothing to zero.
    """
    if not stats.inv_ready:
        raise PreconditionUnavailableError(
            "inverses not ready; caller should fall back to raw gradients"
        )
    nat_a = stats.inv_a @ grad_a
    nat_b = grad_b @ stats.inv_g
    if not math.isfinite(np.vdot(nat_a, nat_a) + np.vdot(nat_b, nat_b)):
        bad_a = ~np.isfinite(nat_a)
        bad_b = ~np.isfinite(nat_b)
        stats.sanitized_count += int(bad_a.sum() + bad_b.sum())
        nat_a = np.where(bad_a, 0.0, nat_a)
        nat_b = np.where(bad_b, 0.0, nat_b)
    return nat_a, nat_b
