"""sha256 of every deterministic run artifact over a fixed set of configs.

Changes that keep the arithmetic must leave run directories byte-identical
for a fixed config and seed. Run this on two checkouts and diff the output:

    PYTHONPATH=src python3 scripts/fingerprint_runs.py > before.json
    (other checkout)
    PYTHONPATH=src python3 scripts/fingerprint_runs.py > after.json
    diff before.json after.json

The configs are the criterion-8 protocol (grit on seeds 0 and 1, and its
control), the d = 48 scaling-grid control, and two dense-telemetry runs
(telemetry every 5 steps, control and grit). The manifest carries a
timestamp, so it is left out. Prints one JSON object: run name -> artifact
name -> sha256. Takes a few seconds.
"""

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

from grit.config import GritConfig
from grit.trainer import run_experiment

TASK = "two_task_forgetting(d={d}, hidden={d}, pretrain_steps=100, ft_noise=0.25, delta_scale=0.2)"

ARTIFACTS = (
    "config.cfg", "telemetry.jsonl", "events.jsonl", "stats.jsonl",
    "updates.jsonl", "checkpoint.json", "record.json",
)


def study_config(mode: str, seed: int, d: int = 12, steps: int = 500, telemetry_every: int = 100) -> GritConfig:
    return GritConfig(
        task=TASK.format(d=d), steps=steps, seed=seed, mode=mode,
        reprojection_freq=40, reprojection_warmup_steps=80, ng_warmup_steps=0,
        kfac_update_freq=5, kfac_min_samples=64, g_gate_min_samples=64,
        min_lora_rank=2, rank_adaptation_threshold=0.85, lora_rank=8,
        use_two_sided=True, kfac_damping=0.1, lambda_r=0.02,
        learning_rate=0.02, telemetry_every=telemetry_every,
    )


RUNS = {
    "grit-s0": study_config("grit", 0),
    "grit-s1": study_config("grit", 1),
    "control-s0": study_config("lora_control", 0),
    "control-d48-s0": study_config("lora_control", 0, d=48, steps=400),
    "control-dense-s0": study_config("lora_control", 0, steps=400, telemetry_every=5),
    "grit-dense-s0": study_config("grit", 0, steps=400, telemetry_every=5),
}


def fingerprint(run_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in ARTIFACTS
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.parse_args()
    prints = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in RUNS.items():
            run_dir = Path(tmp) / name
            run_experiment(config, out_dir=run_dir)
            prints[name] = fingerprint(run_dir)
    print(json.dumps(prints, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
