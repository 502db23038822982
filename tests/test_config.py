import dataclasses
from pathlib import Path

import numpy as np
import pytest

from grit.config import (
    _SETTINGS,
    GritConfig,
    _coerce,
    config_hash,
    config_to_text,
    parse_config_text,
    validate_config,
)
from grit.errors import ConfigError
from grit.tasks import _ARGUMENTS, parse_task_spec


class TestParse:
    def test_defaults_mirror_knob_table(self):
        cfg = GritConfig(task="synthetic_lowrank()")
        assert cfg.kfac_update_freq == 50
        assert cfg.kfac_min_samples == 64
        assert cfg.kfac_damping == 1e-3
        assert cfg.reprojection_freq == 50
        assert cfg.reprojection_k == 8
        assert cfg.rank_adaptation_threshold == 0.99
        assert cfg.min_lora_rank == 4
        assert cfg.use_two_sided is False
        assert cfg.rank_adaptation_start_step == 0
        assert cfg.reprojection_warmup_steps == 0
        assert cfg.ng_warmup_steps == 0

    def test_round_trip_through_text(self):
        cfg = GritConfig(task="synthetic_lowrank(d=8)", seed=7, ema_beta=0.9, use_two_sided=True)
        parsed = parse_config_text(config_to_text(cfg))
        assert parsed == cfg

    def test_comments_and_case_insensitive_keys(self):
        cfg = parse_config_text("TASK = synthetic_lowrank()  # the task\nSeed=5\n")
        assert cfg.seed == 5

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("task = synthetic_lowrank()\nbogus = 2\n")
        assert err.value.key == "bogus"

    def test_missing_task(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("steps = 5\n")
        assert err.value.key == "task"

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("task = a()\ntask = b()\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("task = synthetic_lowrank()\nsteps = many\n")
        assert err.value.key == "steps"
        with pytest.raises(ConfigError) as err:
            parse_config_text("task = synthetic_lowrank()\nema_beta = many\n")
        assert err.value.key == "ema_beta"

    def test_ema_beta_none(self):
        cfg = parse_config_text("task = synthetic_lowrank()\nema_beta = none\n")
        assert cfg.ema_beta is None

    def test_bool_words(self):
        cfg = parse_config_text("task = synthetic_lowrank()\nuse_two_sided = yes\n")
        assert cfg.use_two_sided is True


class TestValidate:
    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            validate_config(GritConfig(task="t()", mode="fancy"))

    def test_threshold_range(self):
        with pytest.raises(ConfigError):
            validate_config(GritConfig(task="t()", rank_adaptation_threshold=1.5))

    def test_min_rank_vs_rank(self):
        with pytest.raises(ConfigError):
            validate_config(GritConfig(task="t()", min_lora_rank=9, lora_rank=8))

    def test_negative_steps(self):
        with pytest.raises(ConfigError):
            validate_config(GritConfig(task="t()", steps=-1))


class TestRangeChecks:
    @pytest.mark.parametrize(
        "key",
        [
            "telemetry_every", "kfac_min_samples", "g_gate_min_samples", "ng_warmup_steps",
            "reprojection_warmup_steps", "rank_adaptation_start_step",
        ],
    )
    def test_negative_count_names_key(self, key):
        with pytest.raises(ConfigError) as err:
            validate_config(GritConfig(task="t()", **{key: -1}))
        assert err.value.key == key
        assert key in str(err.value)
        validate_config(GritConfig(task="t()", **{key: 0}))  # 0 is in range (telemetry off)

    def test_reprojection_k_below_min_rank(self):
        with pytest.raises(ConfigError) as err:
            validate_config(GritConfig(task="t()", reprojection_k=1, min_lora_rank=2))
        assert err.value.key == "reprojection_k"
        with pytest.raises(ConfigError) as err:
            parse_config_text("task = t()\nreprojection_k = 0\nrank_adaptation_start_step = 1000\n")
        assert err.value.key == "reprojection_k"

    def test_reprojection_k_at_min_rank_or_above_rank_accepted(self):
        validate_config(GritConfig(task="t()", reprojection_k=2, min_lora_rank=2))
        # above lora_rank is clamped at run time, not rejected
        validate_config(GritConfig(task="t()", reprojection_k=64, lora_rank=8))


class TestPythonBuiltTypes:
    @pytest.mark.parametrize(
        "key, value", [("use_two_sided", "no"), ("steps", "10"), ("steps", 2.5), ("mode", 1), ("task", None)]
    )
    def test_wrong_type_names_key(self, key, value):
        with pytest.raises(ConfigError) as err:
            validate_config(GritConfig(**{"task": "t()", key: value}))
        assert err.value.key == key
        assert key in str(err.value)

    def test_numpy_numbers_accepted_and_rendered_as_numbers(self):
        validate_config(GritConfig(task="t()", lambda_k=1, steps=np.int64(5), learning_rate=np.float64(0.1)))
        assert "learning_rate = 0.1\n" in config_to_text(GritConfig(task="t()", learning_rate=np.float64(0.1)))

    def test_integer_key_takes_an_integral_number(self):
        cfg = parse_config_text("task = t()\nsteps = 1e3\nseed = 12345678901234567891\n")
        assert (cfg.steps, cfg.seed) == (1000, 12345678901234567891)
        assert type(cfg.steps) is int


def settings_under_test():
    """(owner, name, declaration) of every config key (owner None) and every task's arguments."""
    for name, declared in _SETTINGS.items():
        yield None, name, declared
    for task, arguments in _ARGUMENTS.items():
        for name, declared in arguments.items():
            yield task, name, declared


def parse_one(owner, name, text):
    """The value of name = text parsed as a config key (owner None) or an argument of task owner."""
    if owner is None:
        lines = {"task": "synthetic_lowrank()", "min_lora_rank": "1", name: text}  # lora_rank = 1 needs min_lora_rank <= 1
        return getattr(parse_config_text("".join(f"{k} = {v}\n" for k, v in lines.items())), name)
    return parse_task_spec(f"{owner}({name}={text})")[1][name]


def assert_rejected(owner, name, text):
    with pytest.raises(ConfigError) as err:
        parse_one(owner, name, text)
    assert err.value.key == (name if owner is None else "task")
    assert repr(name) in str(err.value)


def bound_cases():
    """(owner, name, value, accepted) at each declared bound, just past it and, when open, just inside it."""
    for owner, name, declared in settings_under_test():
        for rule, bound in declared.rules.items():
            if rule == "one_of":
                continue
            outward = -1 if rule in ("ge", "gt") else 1
            if declared.kind is int:
                past, inside = bound + outward, bound - outward
            else:
                past, inside = (float(np.nextafter(float(bound), way * np.inf)) for way in (outward, -outward))
            case = f"{owner or 'config'}-{name}-{rule}"
            yield pytest.param(owner, name, bound, rule in ("ge", "le"), id=f"{case}-at")
            yield pytest.param(owner, name, past, False, id=f"{case}-past")
            if rule in ("gt", "lt"):
                yield pytest.param(owner, name, inside, True, id=f"{case}-inside")


class TestDeclaredRules:
    """Generated from the declarations: every bound of every config key and task argument."""

    @pytest.mark.parametrize("owner, name, value, accepted", bound_cases())
    def test_bound(self, owner, name, value, accepted):
        text = repr(value) if isinstance(value, float) else str(value)
        if accepted:
            assert parse_one(owner, name, text) == value
        else:
            assert_rejected(owner, name, text)
        if owner is None:  # a config built in Python is held to the same rules
            config = GritConfig(**{"task": "t()", "min_lora_rank": 1, name: value})
            if accepted:
                validate_config(config)
            else:
                with pytest.raises(ConfigError) as err:
                    validate_config(config)
                assert err.value.key == name

    @pytest.mark.parametrize(
        "owner, name", [(owner, name) for owner, name, declared in settings_under_test() if declared.kind is float]
    )
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_float_setting_rejects_non_finite(self, owner, name, text):
        assert_rejected(owner, name, text)
        if owner is None:
            with pytest.raises(ConfigError) as err:
                validate_config(GritConfig(**{"task": "t()", name: float(text)}))
            assert err.value.key == name


def readme_config_table() -> list[tuple[str, str, str]]:
    """(key, default cell, range cell) of each row of the README's config table, in order."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| key | default | range | meaning |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, default, valid = (cell.strip().strip("`") for cell in line.strip("|").split("|")[:3])
        rows.append((key, default, valid))
    return rows


# the ranges that validate_config states as rules between two keys
CROSS_KEY_RANGES = {"reprojection_k": "[min_lora_rank, inf)", "min_lora_rank": "[1, lora_rank]"}


def rendered_range(declared) -> str:
    """A declaration's range as the README writes it: interval notation, or the choices."""
    rules = declared.rules
    if "one_of" in rules:
        return "`, `".join(rules["one_of"])
    if declared.kind is bool:
        return "true, false"
    if not rules:
        return "-"
    low = f"[{rules['ge']}" if "ge" in rules else f"({rules['gt']}"
    high = f"{rules['le']}]" if "le" in rules else f"{rules['lt']})" if "lt" in rules else "inf)"
    return f"{low}, {high}"


class TestReadmeTable:
    def test_every_field_listed_once(self):
        keys = [key for key, _, _ in readme_config_table()]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(GritConfig))

    def test_defaults_match_the_dataclass(self):
        for key, default, _ in readme_config_table():
            field = next(f for f in dataclasses.fields(GritConfig) if f.name == key)
            if key == "task":
                assert default == "(required)" and field.default == ""
                continue
            assert _coerce(default, _SETTINGS[key]) == field.default, key

    def test_ranges_match_the_declarations(self):
        for key, _, valid in readme_config_table():
            assert valid == CROSS_KEY_RANGES.get(key, rendered_range(_SETTINGS[key])), key


class TestHash:
    def test_identical_configs_collide(self):
        a = GritConfig(task="synthetic_lowrank()", seed=1)
        b = GritConfig(task="synthetic_lowrank()", seed=1)
        assert config_hash(a) == config_hash(b)

    def test_different_seed_differs(self):
        a = GritConfig(task="synthetic_lowrank()", seed=1)
        b = GritConfig(task="synthetic_lowrank()", seed=2)
        assert config_hash(a) != config_hash(b)

    @pytest.mark.parametrize(
        "key, value, text",
        [("lora_alpha", 1, "1.0"), ("learning_rate", np.float32(0.1), "0.10000000149011612"),
         ("steps", np.int64(7), "7"), ("ema_beta", None, "none")],
    )
    def test_text_writes_the_value_the_run_uses(self, key, value, text):
        config = GritConfig(task="synthetic_lowrank()", **{key: value})
        assert f"\n{key} = {text}\n" in config_to_text(config)
        reparsed = parse_config_text(config_to_text(config))
        assert getattr(reparsed, key) == (None if value is None else float(value))
        assert config_hash(reparsed) == config_hash(config)

    def test_a_float32_rate_hashes_apart_from_the_rate_it_rounds(self):
        assert config_hash(GritConfig(task="t()", learning_rate=np.float32(0.1))) != config_hash(
            GritConfig(task="t()", learning_rate=0.1)
        )

    def test_hash_ignores_comments_and_case(self):
        a = parse_config_text("task = synthetic_lowrank()\nseed = 3\n")
        b = parse_config_text("# header\nTASK = synthetic_lowrank()\n\nSEED = 3  # trailing\n")
        assert config_hash(a) == config_hash(b)
