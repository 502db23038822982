"""Spectral subspace maintenance for adapter factors.

prefix_energies is the one code that turns spectra into energy fractions;
the rank threshold, the hysteresis band and grit audit's energy curve read
it. Rank selection keeps the smallest eigenvalue prefix whose energy
reaches tau (effective_rank, the package's one energy-threshold rule, also
the telemetry r_eff's, through effective_ranks on a stack); the top-k
eigenvectors define idempotent projectors applied to the adapter factors
(a from the left, b from the right), optionally blended. Directions outside
the retained subspace are zeroed, not deleted, so they can re-enter later.

LayerGeometry is a layer's rank-space geometry for one accumulation's
statistics, made only by the trainer's accumulation through
LayerGeometry.of_each: one stacked eigendecomposition of every layer's r x r
covariances, then one prefix_energies call on their clipped rank_spectra (the
layers x r stack that is the rank's only input), fix each layer's
decompositions, b-factor side (g_side, side_decomp), spectrum (its row),
spectral k (the effective_rank rule at tau, floored at min(min_lora_rank, r))
and, from the same energies, its hysteresis band. After that only its memo of
each k's projectors and complements Q = I - P grows, on first use, until the
next accumulation. The damped inverses, the lambda_r penalty, reprojection
and the telemetry all read it. Each rank-space rule lives here once:
rank_spectra picks the rank's input, uses_g_side the basis side, of_each
gives the spectral k (select_rank on one spectrum), and LayerGeometry.rank
states the rank rule: reprojection_k before rank_adaptation_start_step (so a
start step past the run's steps keeps it throughout), from it on the spectral
k, or the previous k where the band holds it. The trainer owns the
reprojection cadence; before the first accumulation there is no geometry, and
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
    reprojection, the reprojection penalty and the alignment diagnostic
    read that geometry's g_side.
    """
    return config.use_two_sided and n_cov >= config.g_gate_min_samples


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


# An energy within 16 ulps of the threshold (or of the edge of the hysteresis
# band) counts as reaching it, so ulp-level eigensolver noise cannot move a
# rank across the boundary.
_ULP_SLACK = 16 * np.finfo(np.float64).eps


def effective_rank(eigenvalues: np.ndarray, eta: float) -> tuple[int, bool]:
    """Smallest prefix whose energy reaches fraction eta, clamped to [1, r].

    The energy-threshold rule behind both the selected rank k and the
    telemetry r_eff: effective_ranks on a one-row stack. Returns
    (rank, degenerate); an all-zero spectrum yields (1, True).
    """
    eigs = np.asarray(eigenvalues, dtype=np.float64)
    if eigs.ndim != 1 or eigs.size == 0:
        raise ShapeError("eigenvalues must be a non-empty vector")
    if not np.isfinite(eigs).all():
        raise ValidationError("eigenvalues must be finite")
    if np.isnan(eta):  # no energy compares with it
        raise ValidationError("the energy threshold must not be NaN")
    return int(effective_ranks(eigs[None], eta)[0]), not (eigs > 0.0).any()


def prefix_energies(spectra: np.ndarray) -> np.ndarray:
    """Energy fractions E(j) of each row of a stack of spectra (n x r): its cumulative sums over the last one.

    A row with a positive total ends at exactly 1.0; any other row is all NaN.
    """
    prefix = np.cumsum(spectra, axis=1)
    total = prefix[:, -1:]
    return np.divide(prefix, total, out=np.full(prefix.shape, np.nan), where=total > 0.0)


def _ranks_of_energies(energies: np.ndarray, eta: float) -> np.ndarray:
    """One more than the count of each row's energies below eta less 16 ulps, at most r; an all-NaN row counts none."""
    return np.minimum((energies < eta * (1.0 - _ULP_SLACK)).sum(axis=1) + 1, energies.shape[1])


def effective_ranks(spectra: np.ndarray, eta: float) -> np.ndarray:
    """effective_rank of each row of a stack of spectra (n x r), the ranks alone; negative eigenvalues count as zero."""
    return _ranks_of_energies(prefix_energies(np.maximum(spectra, 0.0)), eta)  # tolerates covariance noise's tails


def select_rank(eigenvalues: np.ndarray, tau: float, min_rank: int) -> tuple[int, bool]:
    """effective_rank at tau of one sorted spectrum, floored at min(min_rank, r): (k, degenerate).

    degenerate marks an all-zero spectrum (which falls back to the floor).
    """
    k, degenerate = effective_rank(eigenvalues, tau)  # which rejects a non-vector or non-finite spectrum, and a NaN tau
    eigs = np.asarray(eigenvalues, dtype=np.float64)
    # e[i + 1] > e[i] exactly where np.diff(e) > 0, without the difference array
    if (eigs[1:] > eigs[:-1]).any():
        raise ValidationError("eigenvalues must be sorted non-increasing")
    if isinstance(min_rank, bool) or not isinstance(min_rank, (int, np.integer)):
        raise ValidationError(f"min_rank must be an integer, got {min_rank!r}")
    return max(k, min(int(min_rank), eigs.size)), degenerate  # a plain int, as JSON takes


def rank_spectra(decomps: list[SpectralDecomp]) -> np.ndarray:
    """The rank's input (layers x r) from sym_eig_stack's list, each layer's a_cov then g_cov decomposition.

    Today a_cov's eigenvalues. of_each looks this name up per call, so a harness substitutes the source
    here; it returns finite rows, each non-increasing, as select_rank requires.
    """
    return np.array([decomp.eigenvalues for decomp in decomps[::2]])


def make_projector(decomp: SpectralDecomp, k: int) -> Projector:
    """Top-k eigenprojector from a spectral decomposition."""
    if not 1 <= k <= decomp.dim:
        raise ValidationError(f"k = {k} out of range [1, {decomp.dim}]")
    return Projector(basis=decomp.eigenvectors[:, :k].copy())


@dataclass(eq=False)
class LayerGeometry:
    """One layer's rank-space geometry for one accumulation's statistics.

    Keeps the eigendecomposition of each covariance, the config, g_side
    (uses_g_side at the accumulation's n_cov), spectrum (its row of rank_spectra),
    spectral_k, its select_rank at rank_adaptation_threshold and min_lora_rank,
    and band[k - 1], whether that spectrum's E(k) is in the hysteresis band.
    Each k's operator set (projectors and complements) is built on first use.
    """

    decomp_a: SpectralDecomp
    decomp_g: SpectralDecomp
    config: GritConfig
    g_side: bool
    spectral_k: int
    band: list[bool]
    spectrum: np.ndarray
    # k -> (P_a, P_side, Q_a, Q_side)
    _operators: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of_each(cls, stats: list[RankSpaceStats], config: GritConfig) -> list[LayerGeometry]:
        """The geometry of each statistics: one stacked eigendecomposition, one prefix_energies call.

        With hysteresis_eps = 0 every band is all False. A DecompositionError
        names the covariance: "a_cov of layer i" or "g_cov of layer i".
        """
        decomps = sym_eig_stack(
            [cov for st in stats for cov in (st.a_cov, st.g_cov)],
            [f"{side} of layer {i}" for i in range(len(stats)) for side in ("a_cov", "g_cov")],
        )
        spectra = rank_spectra(decomps)
        tau = config.rank_adaptation_threshold
        energies = prefix_energies(np.maximum(spectra, 0.0))  # as effective_ranks reads them
        ks = np.maximum(_ranks_of_energies(energies, tau), min(config.min_lora_rank, spectra.shape[1]))
        bands = np.zeros(spectra.shape, dtype=bool)
        if config.hysteresis_eps > 0.0:  # a degenerate spectrum's energies are NaN, outside every band
            bands = np.abs(energies - tau) <= config.hysteresis_eps + _ULP_SLACK
        return [  # plain ints, as event JSON takes, and plain bools
            cls(decomps[2 * i], decomps[2 * i + 1], config, uses_g_side(config, st.n_cov), k, band, spectrum)
            for i, (st, k, band, spectrum) in enumerate(zip(stats, ks.tolist(), bands.tolist(), spectra))
        ]

    @property
    def side_decomp(self) -> SpectralDecomp:
        """The decomposition whose eigenvectors stand in for the b factor's side."""
        return self.decomp_g if self.g_side else self.decomp_a

    def rank(self, step: int, prev_k: int | None = None) -> int:
        """k at this step, for an adapter of the geometry's rank.

        reprojection_k clamped to [1, rank] before rank_adaptation_start_step,
        else spectral_k, or prev_k (clamped to the rank) where band holds it:
        where its energy lies within hysteresis_eps of the threshold, or
        within 16 ulps of that band edge. A prev_k below 1 raises ValidationError.
        """
        if prev_k is not None and prev_k < 1:
            raise ValidationError(f"prev_k must be at least 1, got {prev_k}")
        rank = self.decomp_a.dim
        if step < self.config.rank_adaptation_start_step:
            return max(1, min(self.config.reprojection_k, rank))
        if prev_k is not None and self.band[min(prev_k, rank) - 1]:
            return min(prev_k, rank)
        return self.spectral_k

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
