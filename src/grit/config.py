"""Run configuration: a flat key/value document mapped onto GritConfig.

The on-disk format is one `key = value` pair per line with `#` comments.
Normalization (used both for parsing and hashing) lowercases keys and strips
comments, so identical configs hash identically on purpose.

Each setting, a config key here or a task argument in tasks.py, is declared
once on its field (`setting`), and one parser and one checker serve them all.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import operator
import typing
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path

from .errors import ConfigError


def setting(default, **rules):
    """A declared field: its default, and its range (ge, gt, le, lt) or its choices (one_of)."""
    return field(default=default, metadata={"rules": rules})


@dataclass
class GritConfig:
    # curvature statistics
    kfac_update_freq: int = setting(50, ge=1)
    kfac_min_samples: int = setting(64, ge=0)
    kfac_damping: float = setting(1e-3, gt=0)
    ema_beta: float | None = setting(None, ge=0, lt=1)
    ng_warmup_steps: int = setting(0, ge=0)
    # reprojection and rank adaptation
    reprojection_freq: int = setting(50, ge=1)
    reprojection_k: int = 8  # at least min_lora_rank (validate_config)
    rank_adaptation_threshold: float = setting(0.99, gt=0, le=1)
    min_lora_rank: int = setting(4, ge=1)  # at most lora_rank (validate_config)
    rank_adaptation_start_step: int = setting(0, ge=0)
    reprojection_warmup_steps: int = setting(0, ge=0)
    use_two_sided: bool = False
    g_gate_min_samples: int = setting(64, ge=0)
    blend_gamma: float = setting(1.0, ge=0, le=1)
    hysteresis_eps: float = setting(0.0, ge=0)
    # regularizers
    lambda_k: float = setting(0.0, ge=0)
    lambda_r: float = setting(0.0, ge=0)
    # optimization
    learning_rate: float = setting(0.01, gt=0)
    grad_clip: float = setting(1.0, gt=0)
    seed: int = setting(42, ge=0)
    mode: str = setting("grit", one_of=("grit", "lora_control"))
    # run definition
    task: str = ""
    steps: int = setting(200, ge=0)
    batch_size: int = setting(16, ge=1)
    lora_rank: int = setting(8, ge=1)
    lora_alpha: float = setting(1.0, gt=0)
    eval_size: int = setting(256, ge=1)
    telemetry_every: int = setting(10, ge=0)


class Declared(typing.NamedTuple):
    kind: type  # bool, int, float or str
    optional: bool  # None is a value too
    rules: dict  # bounds (ge, gt, le, lt) or choices (one_of)


def declarations(cls) -> dict[str, Declared]:
    """Each field of a settings dataclass by name, with its type hints resolved."""
    hints = typing.get_type_hints(cls)
    declared = {}
    for f in fields(cls):
        kinds = typing.get_args(hints[f.name]) or (hints[f.name],)  # (T, NoneType) for T | None
        declared[f.name] = Declared(kinds[0], len(kinds) > 1, f.metadata.get("rules", {}))
    return declared


_SETTINGS = declarations(GritConfig)

# declared type -> (what a value must be, the types it may have: the exact types
# first, since an ABC check is slow, and the ABCs for NumPy's numbers)
_KINDS = {
    bool: ("a boolean", bool),
    int: ("an integer", (int, Integral)),
    float: ("a finite number", (float, int, Real)),
    str: ("a string", str),
}
# rule -> (what a value must be, whether a value meets the rule's operand)
_RULES = {
    "ge": ("at least", operator.ge), "gt": ("greater than", operator.gt),
    "le": ("at most", operator.le), "lt": ("less than", operator.lt),
    "one_of": ("one of", lambda v, choices: v in choices),
}


def _check_value(what: str, name: str, value, declared: Declared, key: str | None = None) -> None:
    """Raise ConfigError (key, else name) unless value has the declared type and meets its rules."""
    if value is None and declared.optional:
        return
    must, types = _KINDS[declared.kind]
    is_kind = isinstance(value, types) and isinstance(value, bool) == (declared.kind is bool)
    if is_kind and (declared.kind is not float or math.isfinite(value)):
        unmet = [f"{_RULES[r][0]} {x}" for r, x in declared.rules.items() if not _RULES[r][1](value, x)]
        must = unmet[0] if unmet else None
    if must is not None:
        raise ConfigError(f"{what} {name!r} must be {must}, got {value!r}", key=key or name)


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(raw: str, declared: Declared):
    """The value text stands for; an integer takes any integral number, such as 1e3.

    Text that stands for no value of the type is returned for _check_value to reject.
    """
    raw = raw.strip()
    if declared.optional and raw.lower() in ("none", ""):
        return None
    if declared.kind is bool:
        return _BOOL_WORDS.get(raw.lower(), raw)
    if declared.kind is str:
        return raw
    with contextlib.suppress(ValueError):
        return int(raw) if declared.kind is int else float(raw)
    with contextlib.suppress(ValueError):
        number = float(raw)
        return int(number) if number.is_integer() else number
    return raw


def parse_settings(pieces: list, declared: dict[str, Declared], what: str, key: str | None = None) -> dict:
    """The checked values of (where, "name = value") pieces by lowercased name.

    A ConfigError has key, else the name; a piece without "=" is reported at where.
    """
    values: dict = {}
    for where, piece in pieces:
        name, equals, raw = piece.partition("=")
        name = name.strip().lower()
        if not equals:
            raise ConfigError(f"{where}: expected 'key = value', got {piece.strip()!r}", key=key)
        if name not in declared:
            raise ConfigError(f"unknown {what} {name!r}; declared: {sorted(declared)}", key=key or name)
        if name in values:
            raise ConfigError(f"duplicate {what} {name!r}", key=key or name)
        values[name] = _coerce(raw, declared[name])
        _check_value(what, name, values[name], declared[name], key)
    return values


def parse_config_text(text: str) -> GritConfig:
    """Parse the flat key/value document; unknown or missing required keys raise ConfigError."""
    lines = [(f"line {n}", line.split("#", 1)[0]) for n, line in enumerate(text.splitlines(), start=1)]
    values = parse_settings([(where, line) for where, line in lines if line.strip()], _SETTINGS, "config key")
    if not values.get("task"):
        raise ConfigError("missing required config key 'task'", key="task")
    config = GritConfig(**values)
    validate_config(config)
    return config


def load_config(path: str | Path) -> GritConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    return parse_config_text(text)


def validate_config(config: GritConfig) -> None:
    """Hold every key to its declaration, then apply the rules that relate two keys."""
    for name, declared in _SETTINGS.items():
        _check_value("config key", name, getattr(config, name), declared)
    if config.min_lora_rank > config.lora_rank:
        raise ConfigError("min_lora_rank must lie in [1, lora_rank]", key="min_lora_rank")
    if config.reprojection_k < config.min_lora_rank:
        raise ConfigError("reprojection_k must be at least min_lora_rank", key="reprojection_k")


def _render_value(value, declared: Declared) -> str:
    """The value the run uses: repr(float(v)) for a float key, int(v) for an int key."""
    if value is None:
        return "none"
    if declared.kind is bool:
        return "true" if value else "false"
    if declared.kind is float:
        return repr(float(value))
    return str(int(value) if declared.kind is int else value)


def config_to_text(config: GritConfig) -> str:
    lines = [f"{name} = {_render_value(getattr(config, name), _SETTINGS[name])}" for name in sorted(_SETTINGS)]
    return "\n".join(lines) + "\n"


def config_hash(config: GritConfig) -> str:
    """Stable digest of the normalized (sorted, canonically rendered) config."""
    return hashlib.sha256(config_to_text(config).encode()).hexdigest()
