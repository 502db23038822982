"""sha256 of every deterministic run artifact over a fixed set of configs.

Changes that keep the arithmetic must leave run directories byte-identical
for a fixed config and seed. Run this on two checkouts and diff the output:

    PYTHONPATH=src python3 scripts/fingerprint_runs.py > before.json
    (other checkout)
    PYTHONPATH=src python3 scripts/fingerprint_runs.py > after.json
    diff before.json after.json

The configs are the criterion-8 protocol (grit on seeds 0 and 1, and its
control), the d = 48 scaling-grid control, two dense-telemetry runs
(telemetry every 5 steps, control and grit), and six grit variants that
take the other rank-space paths: hysteresis with a soft blend (twice, once
with a band wide enough to hold k), a fixed k,
one-sided reprojection with a late rank-adaptation start, EMA statistics,
and statistics every step with neither the lambda_r penalty nor
reprojection. The manifest carries a timestamp, so it is left out. Prints
one JSON object: run name -> artifact name -> sha256. Takes a few seconds.
"""

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

from grit.trainer import run_experiment
from study import study_config

ARTIFACTS = (
    "config.cfg", "telemetry.jsonl", "events.jsonl", "stats.jsonl",
    "updates.jsonl", "checkpoint.json", "record.json",
)

RUNS = {
    "grit-s0": study_config("grit", 0),
    "grit-s1": study_config("grit", 1),
    "control-s0": study_config("lora_control", 0),
    "control-d48-s0": study_config("lora_control", 0, d=48, steps=400),
    "control-dense-s0": study_config("lora_control", 0, steps=400, telemetry_every=5),
    "grit-dense-s0": study_config("grit", 0, steps=400, telemetry_every=5),
    "grit-hysteresis-blend-s0": study_config("grit", 0, hysteresis_eps=0.05, blend_gamma=0.5),
    # the band never holds k in the run above; here it holds it at 10 of 22 reprojections
    "grit-hysteresis-held-s2": study_config("grit", 2, hysteresis_eps=0.1, blend_gamma=0.5),
    "grit-fixed-k-s0": study_config("grit", 0, enable_rank_adaptation=False, reprojection_k=3),
    "grit-one-sided-late-rank-s0": study_config(
        "grit", 0, use_two_sided=False, rank_adaptation_start_step=200
    ),
    "grit-ema-s0": study_config("grit", 0, ema_beta=0.9),
    "grit-every-step-stats-s0": study_config(
        "grit", 0, lambda_r=0.0, kfac_update_freq=1, reprojection_freq=10**6
    ),
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
