"""Run configuration: a flat key/value document mapped onto GritConfig.

The on-disk format is one `key = value` pair per line with `#` comments.
Normalization (used both for parsing and hashing) lowercases keys and strips
comments, so identical configs hash identically on purpose.
"""

from __future__ import annotations

import hashlib
import typing
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

MODES = ("grit", "lora_control")


@dataclass
class GritConfig:
    # curvature statistics
    kfac_update_freq: int = 50
    kfac_min_samples: int = 64
    kfac_damping: float = 1e-3
    ema_beta: float | None = None
    ng_warmup_steps: int = 0
    # reprojection and rank adaptation
    reprojection_freq: int = 50
    reprojection_k: int = 8
    enable_rank_adaptation: bool = True
    rank_adaptation_threshold: float = 0.99
    min_lora_rank: int = 4
    rank_adaptation_start_step: int = 0
    reprojection_warmup_steps: int = 0
    use_two_sided: bool = False
    g_gate_min_samples: int = 64
    blend_gamma: float = 1.0
    hysteresis_eps: float = 0.0
    # regularizers
    lambda_k: float = 0.0
    lambda_r: float = 0.0
    # optimization
    learning_rate: float = 0.01
    grad_clip: float = 1.0
    seed: int = 42
    mode: str = "grit"
    # run definition
    task: str = ""
    steps: int = 200
    batch_size: int = 16
    lora_rank: int = 8
    lora_alpha: float = 1.0
    eval_size: int = 256
    telemetry_every: int = 10
    telemetry_eta: float = 0.9
    tail_threshold: float = 0.0  # 0 means auto (3x median coordinate of first logged step)


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(name: str, raw: str, target_type):
    raw = raw.strip()
    optional = [t for t in typing.get_args(target_type) if t is not type(None)]
    if optional:
        if raw.lower() in ("none", ""):
            return None
        (target_type,) = optional
    if target_type is bool:
        if raw.lower() not in _BOOL_WORDS:
            raise ConfigError(f"key {name!r}: expected a boolean, got {raw!r}", key=name)
        return _BOOL_WORDS[raw.lower()]
    if target_type is int:
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"key {name!r}: expected an integer, got {raw!r}", key=name) from exc
    if target_type is float:
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"key {name!r}: expected a number, got {raw!r}", key=name) from exc
    return raw


_FIELD_TYPES = typing.get_type_hints(GritConfig)

REQUIRED_KEYS = ("task",)


def parse_config_text(text: str) -> GritConfig:
    """Parse the flat key/value document; unknown or missing required keys raise ConfigError."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip().lower()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}", key=key)
        if key in values:
            raise ConfigError(f"duplicate config key {key!r}", key=key)
        values[key] = _coerce(key, raw, _FIELD_TYPES[key])
    for key in REQUIRED_KEYS:
        if key not in values or values[key] == "":
            raise ConfigError(f"missing required config key {key!r}", key=key)
    config = GritConfig(**values)
    validate_config(config)
    return config


def load_config(path: str | Path) -> GritConfig:
    return parse_config_text(Path(path).read_text())


def validate_config(config: GritConfig) -> None:
    if config.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {config.mode!r}", key="mode")
    if not 0.0 < config.rank_adaptation_threshold <= 1.0:
        raise ConfigError("rank_adaptation_threshold must lie in (0, 1]", key="rank_adaptation_threshold")
    if config.ema_beta is not None and not 0.0 <= config.ema_beta < 1.0:
        raise ConfigError("ema_beta must lie in [0, 1)", key="ema_beta")
    if not 0.0 <= config.blend_gamma <= 1.0:
        raise ConfigError("blend_gamma must lie in [0, 1]", key="blend_gamma")
    if config.min_lora_rank < 1 or config.min_lora_rank > config.lora_rank:
        raise ConfigError("min_lora_rank must lie in [1, lora_rank]", key="min_lora_rank")
    for key in ("kfac_update_freq", "reprojection_freq", "batch_size", "lora_rank", "eval_size"):
        if getattr(config, key) < 1:
            raise ConfigError(f"{key} must be positive", key=key)
    if config.reprojection_k < config.min_lora_rank:
        raise ConfigError("reprojection_k must be at least min_lora_rank", key="reprojection_k")
    for key in (
        "steps", "seed", "telemetry_every", "kfac_min_samples", "g_gate_min_samples",
        "ng_warmup_steps", "reprojection_warmup_steps", "rank_adaptation_start_step",
    ):
        if getattr(config, key) < 0:
            raise ConfigError(f"{key} must be non-negative", key=key)
    for key in ("kfac_damping", "learning_rate", "grad_clip", "lora_alpha"):
        if getattr(config, key) <= 0.0:
            raise ConfigError(f"{key} must be positive", key=key)
    for key in ("lambda_k", "lambda_r", "tail_threshold", "hysteresis_eps"):
        if getattr(config, key) < 0.0:
            raise ConfigError(f"{key} must be non-negative", key=key)
    if not 0.0 < config.telemetry_eta <= 1.0:
        raise ConfigError("telemetry_eta must lie in (0, 1]", key="telemetry_eta")


def _render_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_text(config: GritConfig) -> str:
    lines = [
        f"{f.name} = {_render_value(getattr(config, f.name))}"
        for f in sorted(fields(config), key=lambda f: f.name)
    ]
    return "\n".join(lines) + "\n"


def config_hash(config: GritConfig) -> str:
    """Stable digest of the normalized (sorted, canonically rendered) config."""
    return hashlib.sha256(config_to_text(config).encode()).hexdigest()
