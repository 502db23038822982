"""sha256 of every deterministic run artifact over a fixed set of configs.

Changes that keep the arithmetic must leave run directories byte-identical
for a fixed config and seed. Run this on two checkouts and compare:

    PYTHONPATH=src python3 scripts/fingerprint_runs.py > before.json
    (other checkout)
    PYTHONPATH=src python3 scripts/fingerprint_runs.py --compare before.json

With --compare, it prints one "<run> <artifact>" line for each artifact
whose hash differs from the file's (or that only one side has) and exits 1
if there is any; otherwise it prints "all N artifacts identical" and exits 0.

The configs are the criterion-8 protocol (grit on seeds 0 and 1, and its
control), the d = 48 scaling-grid control, two dense-telemetry runs
(telemetry every 5 steps, control and grit), and eight grit variants that
take the other rank-space paths: hysteresis with a soft blend (twice, once
with a band wide enough to hold k), a fixed k, one-sided reprojection with
a late rank-adaptation start, EMA statistics, statistics every step with
neither the lambda_r penalty nor reprojection, the lambda_k curvature
penalty, and a natural-gradient warmup of 100 steps with no reprojection
warmup, the one run that reprojects before its statistics hold a sample
(its steps 0, 40 and 80 log the no-samples gate). One more control run
starts its base off the teacher (init_jitter = 0.05), so its 20
pretraining steps move the weights. The last run is the config of the CLI
determinism check (criterion 12): the one-layer, identity-activation
synthetic_lowrank model, which no other run builds. The manifest carries a
timestamp, so it is left out.

Each run is also audited with `grit audit`, and its six CSVs are hashed
under "audit/<name>". The run is then audited again into the same
directory; if any CSV differs from the first audit's, the script exits 1
naming the run. A change to how a stream is written that keeps its
values then shows the audit outputs unmoved while the stream's own hash
changes. Without --compare it prints one JSON object: run name ->
artifact name -> sha256. Takes a few seconds.
"""

import argparse
import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

from grit.cli import main as grit_cli
from grit.config import GritConfig
from grit.trainer import run_experiment
from study import study_config

ARTIFACTS = (
    "config.cfg", "telemetry.jsonl", "events.jsonl", "stats.jsonl",
    "updates.jsonl", "checkpoint.json", "record.json",
)
AUDIT_CSVS = (
    "spectra.csv", "cumulative_energy.csv", "effective_rank.csv",
    "alignment.csv", "tail_mass.csv", "pca_updates.csv",
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
    "grit-curvature-penalty-s0": study_config("grit", 0, lambda_k=1.0),
    # reprojects at steps 0, 40 and 80, before the first accumulation at step 100
    "grit-ng-warmup-s0": study_config("grit", 0, ng_warmup_steps=100, reprojection_warmup_steps=0),
    "control-jitter-s0": dataclasses.replace(
        study_config("lora_control", 0),
        task="two_task_forgetting(d=12, hidden=12, pretrain_steps=20, init_jitter=0.05, "
        "ft_noise=0.25, delta_scale=0.2)",
    ),
    # the config of the CLI determinism run (tests/test_acceptance.py's CLI_CONFIG)
    "grit-synthetic-s21": GritConfig(
        task="synthetic_lowrank(d=10, r_true=2, noise=0.05)", steps=40, seed=21,
        lora_rank=4, min_lora_rank=2, kfac_update_freq=5, kfac_min_samples=16,
        reprojection_freq=10, reprojection_warmup_steps=10, telemetry_every=10, eval_size=64,
    ),
}


def audit(run_dir: Path) -> dict[str, bytes]:
    """`grit audit` of run_dir into run_dir/audit; its six CSVs by name."""
    if grit_cli(["--quiet", "audit", str(run_dir), "--out", str(run_dir / "audit")]) != 0:
        raise SystemExit(f"grit audit failed on {run_dir.name}")
    return {name: (run_dir / "audit" / name).read_bytes() for name in AUDIT_CSVS}


def fingerprint(run_dir: Path) -> dict[str, str]:
    first = audit(run_dir)
    changed = [name for name, data in audit(run_dir).items() if data != first[name]]
    if changed:
        raise SystemExit(f"a second grit audit of {run_dir.name} changed {', '.join(changed)}")
    names = list(ARTIFACTS) + [f"audit/{name}" for name in AUDIT_CSVS]
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in names}


def differences(before: dict, after: dict) -> list[tuple[str, str]]:
    """(run, artifact) pairs whose hash differs, or that only one side has, sorted."""
    keys = {(run, name) for prints in (before, after) for run in prints for name in prints[run]}
    return sorted(
        (run, name) for run, name in keys
        if before.get(run, {}).get(name) != after.get(run, {}).get(name)
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--compare", metavar="BEFORE_JSON", help="fingerprint file to compare against")
    args = parser.parse_args()
    prints = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in RUNS.items():
            run_dir = Path(tmp) / name
            run_experiment(config, out_dir=run_dir)
            prints[name] = fingerprint(run_dir)
    if args.compare is None:
        print(json.dumps(prints, indent=1, sort_keys=True))
        return 0
    changed = differences(json.loads(Path(args.compare).read_text()), prints)
    for run, name in changed:
        print(f"{run} {name}")
    if changed:
        return 1
    print(f"all {sum(len(p) for p in prints.values())} artifacts identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
