"""Spectral subspace maintenance for adapter factors.

Rank selection keeps the smallest eigenvalue prefix whose cumulative energy
reaches the threshold tau (effective_rank, the package's one energy-threshold
rule, which the telemetry r_eff also uses, on every layer's spectrum at once
through effective_ranks); the corresponding top-k
eigenvectors define idempotent projectors that are applied to the adapter
factors (a from the left, b from the right), optionally blended. Directions
outside the retained subspace are zeroed, not deleted: tensors keep their
shape, so suppressed directions can re-enter later.

LayerGeometry is a layer's rank-space geometry for one accumulation's
statistics. Only the trainer's accumulation makes one, through
LayerGeometry.of_each, which decomposes the covariances of every layer in
one stacked call (all rank-space covariances are r x r), and it stays fixed
from then on. It decides the b factor's side once (g_side, side_decomp),
and builds its rank k, its projectors and their complement operators
Q = I - P once each on first use. The damped inverses, the lambda_r
penalty's complements, reprojection's projectors and the telemetry all
read the same decompositions. Every setting is read from GritConfig, and
each rank-space rule lives here once: uses_g_side picks the basis side,
fixed_rank decides when k is the configured reprojection_k, and
LayerGeometry.rank states the rank rule. The trainer owns the reprojection
cadence; before the first accumulation there is no geometry, and
reprojection reports the no-samples gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import GritConfig
from .errors import ShapeError, ValidationError
from .kfac import RankSpaceStats
from .linalg import SpectralDecomp, sym_eig_stack
from .linalg import sym_eig  # noqa: F401  (perfbench/spans.py traces it by this name)
from .model import AdapterPair


def uses_g_side(config: GritConfig, n_cov: int) -> bool:
    """Whether the gradient-side basis stands in for the b factor's side.

    True when use_two_sided is on and the statistics hold at least
    g_gate_min_samples samples; otherwise the activation-side basis is used
    on both factors. LayerGeometry.of_each asks once per geometry;
    reprojection, the reprojection penalty and the alignment and drift
    diagnostics read that geometry's g_side.
    """
    return config.use_two_sided and n_cov >= config.g_gate_min_samples


def fixed_rank(config: GritConfig, rank: int, step: int) -> int | None:
    """reprojection_k clamped to [1, rank] while rank adaptation is off, else None.

    Rank adaptation is off when enable_rank_adaptation is false, and before
    rank_adaptation_start_step; from that step on k comes from the spectrum.
    """
    if config.enable_rank_adaptation and step >= config.rank_adaptation_start_step:
        return None
    return max(1, min(config.reprojection_k, rank))


@dataclass(frozen=True)
class Projector:
    """Column-orthonormal basis of the retained subspace; P = basis @ basis.T."""

    basis: np.ndarray

    def matrix(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def apply_left(self, mat: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ mat)

    def apply_right(self, mat: np.ndarray) -> np.ndarray:
        return (mat @ self.basis) @ self.basis.T

    def complement(self) -> np.ndarray:
        """Q = I - P, the orthogonal projector onto the discarded directions."""
        return np.eye(self.basis.shape[0]) - self.matrix()


# A prefix within this many ulps of the energy threshold (or of the edge of
# the hysteresis band) counts as reaching it, so ulp-level eigensolver noise
# cannot move a rank across the boundary.
_THRESHOLD_ULPS = 16


def effective_rank(eigenvalues: np.ndarray, eta: float) -> tuple[int, bool]:
    """Smallest prefix whose energy reaches fraction eta, clamped to [1, r].

    The energy-threshold rule behind both the selected rank k and the
    telemetry r_eff: effective_ranks on a one-row stack. Returns
    (rank, degenerate); an all-zero spectrum yields (1, True).
    """
    eigs = np.asarray(eigenvalues, dtype=np.float64)
    if eigs.ndim != 1 or eigs.size == 0:
        raise ShapeError("eigenvalues must be a non-empty vector")
    ranks, degenerate = effective_ranks(eigs[None], eta)
    return int(ranks[0]), bool(degenerate[0])


def effective_ranks(spectra: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """effective_rank of each row of a stack of spectra (n x r): (ranks, degenerate), both length n.

    Negative eigenvalues count as zero. A row's rank is one more than the
    number of its energy prefixes below the boundary, which is where
    searchsorted would place the boundary in the non-decreasing prefix sums.
    """
    eigs = np.maximum(spectra, 0.0)  # tolerate tiny negative tails from covariance noise
    total = eigs.sum(axis=1)
    boundary = eta * total * (1.0 - _THRESHOLD_ULPS * np.finfo(np.float64).eps)
    below = (np.cumsum(eigs, axis=1) < boundary[:, None]).sum(axis=1)
    degenerate = total <= 0.0
    return np.where(degenerate, 1, np.minimum(below + 1, eigs.shape[1])), degenerate


def select_rank(
    eigenvalues: np.ndarray, tau: float, min_rank: int
) -> tuple[int, bool]:
    """effective_rank at tau on a sorted spectrum, floored at min(min_rank, r).

    Returns (k, degenerate) where degenerate marks an all-zero spectrum
    (which falls back to min_rank).
    """
    eigs = np.asarray(eigenvalues, dtype=np.float64)
    if eigs.ndim == 1 and np.any(np.diff(eigs) > 0.0):
        raise ValidationError("eigenvalues must be sorted non-increasing")
    k, degenerate = effective_rank(eigs, tau)
    return max(k, min(min_rank, eigs.size)), degenerate


def cumulative_energy(eigenvalues: np.ndarray) -> np.ndarray:
    """Prefix energy fractions E(j); ends at 1 for a non-degenerate spectrum."""
    eigs = np.asarray(eigenvalues, dtype=np.float64)
    total = float(np.sum(eigs))
    if total <= 0.0:
        return np.zeros_like(eigs)
    return np.cumsum(eigs) / total


def make_projector(decomp: SpectralDecomp, k: int) -> Projector:
    """Top-k eigenprojector from a spectral decomposition."""
    if not 1 <= k <= decomp.dim:
        raise ValidationError(f"k = {k} out of range [1, {decomp.dim}]")
    return Projector(basis=decomp.eigenvectors[:, :k].copy())


@dataclass(eq=False)
class LayerGeometry:
    """One layer's rank-space geometry for one accumulation's statistics.

    Keeps the a_cov the statistics had when it was made (the stability
    window reads it), the eigendecomposition of each covariance, the config
    and g_side, whether the b factor's side is the gradient side
    (uses_g_side at the accumulation's n_cov). The spectral k and each k's
    operator set (the projector pair and its complements) are built on
    first use and kept.
    """

    a_cov: np.ndarray
    decomp_a: SpectralDecomp
    decomp_g: SpectralDecomp
    config: GritConfig
    g_side: bool
    # (spectral k, degenerate) at the config's threshold, once computed
    _spectral: tuple[int, bool] | None = field(default=None, init=False, repr=False)
    # k -> (P_a, P_side, Q_a, Q_side)
    _operators: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of_each(cls, stats: list[RankSpaceStats], config: GritConfig) -> list[LayerGeometry]:
        """The geometry of each statistics, from one stacked eigendecomposition of all their covariances.

        A DecompositionError names the covariance: "a_cov of layer i" or "g_cov of layer i".
        """
        decomps = sym_eig_stack(
            [cov for st in stats for cov in (st.a_cov, st.g_cov)],
            [f"{side} of layer {i}" for i in range(len(stats)) for side in ("a_cov", "g_cov")],
        )
        return [
            cls(st.a_cov, decomps[2 * i], decomps[2 * i + 1], config, uses_g_side(config, st.n_cov))
            for i, st in enumerate(stats)
        ]

    @property
    def side_decomp(self) -> SpectralDecomp:
        """The decomposition whose eigenvectors stand in for the b factor's side."""
        return self.decomp_g if self.g_side else self.decomp_a

    def rank(self, step: int, prev_k: int | None = None) -> int:
        """k at this step, for an adapter of the geometry's rank.

        fixed_rank when that gives one, else select_rank on the a-side
        spectrum at rank_adaptation_threshold. With prev_k, k stays at
        prev_k (clamped to the rank) while prev_k's energy lies within
        hysteresis_eps of the threshold, or within 16 ulps of that band edge,
        as in effective_rank.
        """
        config = self.config
        rank = self.decomp_a.dim
        k = fixed_rank(config, rank, step)
        if k is not None:
            return k
        tau = config.rank_adaptation_threshold
        if self._spectral is None:
            self._spectral = select_rank(self.decomp_a.eigenvalues, tau, config.min_lora_rank)
        k, degenerate = self._spectral
        if config.hysteresis_eps > 0.0 and prev_k is not None and not degenerate:
            held = min(prev_k, rank)
            energy = cumulative_energy(self.decomp_a.eigenvalues)
            edge = config.hysteresis_eps + _THRESHOLD_ULPS * np.finfo(np.float64).eps  # energies lie in [0, 1]
            if abs(energy[held - 1] - tau) <= edge:
                k = held
        return k

    def _operator_set(self, k: int) -> tuple:
        ops = self._operators.get(k)
        if ops is None:
            proj_a = make_projector(self.decomp_a, k)
            proj_side = make_projector(self.decomp_g, k) if self.g_side else proj_a
            q_a = proj_a.complement()
            q_side = proj_side.complement() if self.g_side else q_a
            ops = self._operators[k] = (proj_a, proj_side, q_a, q_side)
        return ops

    def projectors(self, k: int) -> tuple[Projector, Projector]:
        """(P_a, P_side): top-k projectors, P_side from side_decomp."""
        return self._operator_set(k)[:2]

    def complements(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(Q_a, Q_side) = (I - P_a, I - P_side), r x r, for the same k."""
        return self._operator_set(k)[2:]


@dataclass
class ReprojectionEvent:
    """Outcome of one reprojection attempt; the reproject event logs all but applied and gate."""

    step: int
    applied: bool
    gate: str | None = None
    k: int = 0
    side_used: str = ""
    tau: float = 0.0
    retained_mass: float = 1.0
    delta_w_norm_before: float = 0.0
    delta_w_norm_after: float = 0.0


def reproject(
    adapter: AdapterPair,
    geometry: LayerGeometry | None,
    config: GritConfig,
    step: int,
    prev_k: int | None = None,
) -> ReprojectionEvent:
    """Project adapter factors onto the leading eigenspaces of the covariances.

    a <- (1 - gamma) a + gamma * P_a a and b <- (1 - gamma) b + gamma * b P_side,
    with gamma = config.blend_gamma, k = geometry.rank(step, prev_k) and the
    projectors from geometry.projectors; P_side comes from the gradient-side
    basis when geometry.g_side, else from the activation-side basis. The
    geometry is made with the same config. Gated before
    reprojection_warmup_steps and while there is no geometry (no
    accumulation yet); the caller decides the cadence.
    """
    if step < config.reprojection_warmup_steps:
        return ReprojectionEvent(step=step, applied=False, gate="warmup")
    if geometry is None:
        return ReprojectionEvent(step=step, applied=False, gate="no-samples")
    if config.min_lora_rank > adapter.rank:
        raise ValidationError("min_lora_rank exceeds adapter rank")

    k = geometry.rank(step, prev_k)
    proj_a, proj_side = geometry.projectors(k)

    gamma = config.blend_gamma
    norm_before = float(np.linalg.norm(adapter.scaling * adapter.delta_w()))
    a_proj = proj_a.apply_left(adapter.a)
    b_proj = proj_side.apply_right(adapter.b)
    mass_before = float(np.sum(adapter.a**2) + np.sum(adapter.b**2))
    mass_after = float(np.sum(a_proj**2) + np.sum(b_proj**2))
    retained = mass_after / mass_before if mass_before > 0.0 else 1.0
    adapter.a = (1.0 - gamma) * adapter.a + gamma * a_proj
    adapter.b = (1.0 - gamma) * adapter.b + gamma * b_proj
    norm_after = float(np.linalg.norm(adapter.scaling * adapter.delta_w()))
    return ReprojectionEvent(
        step=step,
        applied=True,
        k=k,
        side_used="g" if geometry.g_side else "a",
        tau=config.rank_adaptation_threshold,
        retained_mass=retained,
        delta_w_norm_before=norm_before,
        delta_w_norm_after=norm_after,
    )
