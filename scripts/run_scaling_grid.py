"""Sweep data volume and model size, then fit the forgetting law end to end.

Runs the low-rank control across a (steps x width) grid to populate run
directories, runs matching geometry-aware runs for the capacity-multiplier
stage, and finishes by invoking the law fitter over everything. Real training
runs only approximate the power law, so expect a nonzero residual; the exact
round-trip lives in the oracle suite (`grit oracle fitlaw`).

Usage:
    python3 scripts/run_scaling_grid.py --out runs/scaling
"""

import argparse
from pathlib import Path

from grit.cli import main as cli_main
from grit.config import GritConfig
from grit.trainer import run_experiment

STEP_GRID = (100, 200, 400, 800)
WIDTH_GRID = (12, 24, 48, 96)


def make_config(mode: str, seed: int, steps: int, d: int) -> GritConfig:
    return GritConfig(
        task=f"two_task_forgetting(d={d}, hidden={d}, pretrain_steps=100, ft_noise=0.25, delta_scale=0.2)",
        steps=steps, seed=seed, mode=mode,
        reprojection_freq=40, reprojection_warmup_steps=80,
        kfac_update_freq=5, kfac_min_samples=64, g_gate_min_samples=64,
        min_lora_rank=2, rank_adaptation_threshold=0.85, lora_rank=8,
        use_two_sided=True, kfac_damping=0.1, lambda_r=0.02,
        learning_rate=0.02, telemetry_every=200,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/scaling")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    out_root = Path(args.out)
    run_dirs = []
    for d in WIDTH_GRID:
        for steps in STEP_GRID:
            for mode in ("lora_control", "grit"):
                run_dir = out_root / f"{mode}-d{d}-steps{steps}"
                record = run_experiment(
                    make_config(mode, args.seed, steps, d), out_dir=run_dir
                )
                run_dirs.append(str(run_dir))
                print(
                    f"{mode:12s} d={d:3d} steps={steps:4d}: "
                    f"drift {record.delta_pt_loss:.4f}, task {record.final_task_loss:.4f}"
                )

    fit_path = out_root / "forgetting_law.json"
    rc = cli_main(["fit-law", *run_dirs, "--out", str(fit_path)])
    print(f"fit-law exit code {rc}; document at {fit_path}")


if __name__ == "__main__":
    main()
