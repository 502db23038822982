"""Sweep data volume and model size, then fit the forgetting law end to end.

Runs the low-rank control across a (steps x width) grid to populate run
directories, runs matching geometry-aware runs for the capacity-multiplier
stage, and finishes by invoking the law fitter over everything. Real training
runs only approximate the power law, so expect a nonzero residual; the exact
round-trip lives in the oracle suite (`grit oracle fitlaw`). The script
exits with fit-law's exit code, so a grid the law cannot be fitted on (fit-law
exits nonzero and writes no document) fails the run.

Usage:
    python3 scripts/run_scaling_grid.py --out runs/scaling
"""

import argparse
from pathlib import Path

from grit.cli import main as cli_main
from grit.trainer import run_experiment
from study import study_config

STEP_GRID = (100, 200, 400, 800)
WIDTH_GRID = (12, 24, 48, 96)


def main() -> int:
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
                    study_config(mode, args.seed, d=d, steps=steps, telemetry_every=200),
                    out_dir=run_dir,
                )
                run_dirs.append(str(run_dir))
                print(
                    f"{mode:12s} d={d:3d} steps={steps:4d}: "
                    f"drift {record.delta_pt_loss:.4f}, task {record.final_task_loss:.4f}"
                )

    fit_path = out_root / "forgetting_law.json"
    rc = cli_main(["fit-law", *run_dirs, "--out", str(fit_path)])
    print(f"fit-law exit code {rc}; " + (f"document at {fit_path}" if rc == 0 else "no document written"))
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
