"""Geometry-aware low-rank adaptation at desk scale.

Curvature statistics, natural-gradient preconditioning, spectral
reprojection, and dynamic rank live in rank space; the forgetting module
fits the drift power law with its effective-capacity multiplier; everything
is checkable against brute-force oracles on small models.
"""

from .config import GritConfig, config_hash, load_config, parse_config_text
from .forgetting import (
    ScalingFit,
    fit_baseline_law,
    fit_xi_coefficients,
    predict,
    quadratic_forgetting,
    trace_forgetting,
)
from .kfac import RankSpaceStats, accumulate, precondition, refresh_inverses
from .linalg import SpectralDecomp, damped_solve, sym_eig
from .model import AdapterPair, BaseLayer, LayerTape, Model, build_model, trainable_count
from .reprojection import (
    Projector,
    effective_rank,
    make_projector,
    reproject,
    select_rank,
)
from .runio import GeometrySummary, RunManifest, RunRecord
from .telemetry import (
    GeometryRecord,
    alignment_overlap,
    pca_export,
    stability_stats,
    tail_mass,
    xi_multiplier,
)
from .trainer import Trainer, curvature_penalty, reprojection_penalty, run_experiment, seed_stream

__all__ = [
    "AdapterPair",
    "BaseLayer",
    "GeometryRecord",
    "GeometrySummary",
    "GritConfig",
    "LayerTape",
    "Model",
    "Projector",
    "RankSpaceStats",
    "RunManifest",
    "RunRecord",
    "ScalingFit",
    "SpectralDecomp",
    "Trainer",
    "accumulate",
    "alignment_overlap",
    "build_model",
    "config_hash",
    "curvature_penalty",
    "damped_solve",
    "effective_rank",
    "fit_baseline_law",
    "fit_xi_coefficients",
    "load_config",
    "make_projector",
    "parse_config_text",
    "pca_export",
    "precondition",
    "predict",
    "quadratic_forgetting",
    "refresh_inverses",
    "reproject",
    "reprojection_penalty",
    "run_experiment",
    "seed_stream",
    "select_rank",
    "stability_stats",
    "sym_eig",
    "tail_mass",
    "trace_forgetting",
    "trainable_count",
    "xi_multiplier",
]
