"""Head-to-head retention study: geometry-aware runs vs the plain low-rank control.

Trains matched pairs (same task, seed, and budget) across a seed grid, then
prints per-seed drift, the medians, and the geometry summaries. Run dirs land
under --out so `grit audit` and `grit fit-law` can consume them afterwards.

Usage:
    python3 scripts/run_forgetting_comparison.py --seeds 9 --out runs/forgetting
"""

import argparse
import json
from pathlib import Path

import numpy as np

from grit.trainer import run_experiment
from study import TASK, study_config


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=9)
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--out", default="runs/forgetting")
    args = parser.parse_args()

    out_root = Path(args.out)
    rows = []
    for seed in range(args.seeds):
        results = {}
        for mode in ("grit", "lora_control"):
            run_dir = out_root / f"{mode}-s{seed}"
            record = run_experiment(study_config(mode, seed, steps=args.steps), out_dir=run_dir)
            results[mode] = record
        g, c = results["grit"], results["lora_control"]
        rows.append(
            dict(
                seed=seed,
                grit_drift=g.delta_pt_loss,
                control_drift=c.delta_pt_loss,
                grit_task=g.final_task_loss,
                control_task=c.final_task_loss,
                grit_exposure=g.geometry_summary.curvature_exposure,
                control_exposure=c.geometry_summary.curvature_exposure,
                grit_k=g.geometry_summary.k_selected,
            )
        )
        print(
            f"seed {seed}: drift {g.delta_pt_loss:.4f} vs {c.delta_pt_loss:.4f} | "
            f"task {g.final_task_loss:.4f} vs {c.final_task_loss:.4f} | "
            f"exposure {g.geometry_summary.curvature_exposure:.1f} vs "
            f"{c.geometry_summary.curvature_exposure:.1f}"
        )

    summary = {
        "task": TASK.format(d=12),
        "seeds": args.seeds,
        "steps": args.steps,
        "median_grit_drift": float(np.median([r["grit_drift"] for r in rows])),
        "median_control_drift": float(np.median([r["control_drift"] for r in rows])),
        "median_grit_exposure": float(np.median([r["grit_exposure"] for r in rows])),
        "median_control_exposure": float(np.median([r["control_exposure"] for r in rows])),
        "rows": rows,
    }
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    print(
        f"\nmedian drift: {summary['median_grit_drift']:.4f} (geometry-aware) vs "
        f"{summary['median_control_drift']:.4f} (control)"
    )
    print(
        f"median exposure: {summary['median_grit_exposure']:.1f} vs "
        f"{summary['median_control_exposure']:.1f}"
    )
    print(f"summary written to {out_root / 'summary.json'}")


if __name__ == "__main__":
    main()
