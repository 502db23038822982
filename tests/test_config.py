import pytest

from grit.config import (
    GritConfig,
    config_hash,
    config_to_text,
    parse_config_text,
    validate_config,
)
from grit.errors import ConfigError


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
        assert cfg.enable_rank_adaptation is True
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
            parse_config_text("task = t()\nreprojection_k = 0\nenable_rank_adaptation = false\n")
        assert err.value.key == "reprojection_k"

    def test_reprojection_k_at_min_rank_or_above_rank_accepted(self):
        validate_config(GritConfig(task="t()", reprojection_k=2, min_lora_rank=2))
        # above lora_rank is clamped at run time, not rejected
        validate_config(GritConfig(task="t()", reprojection_k=64, lora_rank=8))


class TestHash:
    def test_identical_configs_collide(self):
        a = GritConfig(task="synthetic_lowrank()", seed=1)
        b = GritConfig(task="synthetic_lowrank()", seed=1)
        assert config_hash(a) == config_hash(b)

    def test_different_seed_differs(self):
        a = GritConfig(task="synthetic_lowrank()", seed=1)
        b = GritConfig(task="synthetic_lowrank()", seed=2)
        assert config_hash(a) != config_hash(b)

    def test_hash_ignores_comments_and_case(self):
        a = parse_config_text("task = synthetic_lowrank()\nseed = 3\n")
        b = parse_config_text("# header\nTASK = synthetic_lowrank()\n\nSEED = 3  # trailing\n")
        assert config_hash(a) == config_hash(b)
