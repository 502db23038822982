"""The criterion-8 study config, shared by the scripts in this directory.

Two-task forgetting at width d: grit with two-sided reprojection every 40
steps after 80 warmup steps, statistics every 5 steps, the lambda_r penalty,
and rank adaptation at tau = 0.85 over a rank-8 adapter; the same config
with mode = lora_control is its matched control. Import it from a script
run out of this directory:

    from study import study_config
"""

from grit.config import GritConfig

TASK = "two_task_forgetting(d={d}, hidden={d}, pretrain_steps=100, ft_noise=0.25, delta_scale=0.2)"


def study_config(
    mode: str, seed: int, d: int = 12, steps: int = 500, telemetry_every: int = 100, **overrides
) -> GritConfig:
    """The study config for one run; keyword overrides replace any other key."""
    settings = dict(
        reprojection_freq=40, reprojection_warmup_steps=80, ng_warmup_steps=0,
        kfac_update_freq=5, kfac_min_samples=64, g_gate_min_samples=64,
        min_lora_rank=2, rank_adaptation_threshold=0.85, lora_rank=8,
        use_two_sided=True, kfac_damping=0.1, lambda_r=0.02,
        learning_rate=0.02,
    )
    settings.update(overrides)
    return GritConfig(
        task=TASK.format(d=d), steps=steps, seed=seed, mode=mode,
        telemetry_every=telemetry_every, **settings,
    )
