"""sha256 of every deterministic run artifact over a fixed set of configs.

Changes that keep the arithmetic must leave run directories byte-identical
for a fixed config and seed. Run this on two checkouts and compare:

    PYTHONPATH=src python3 scripts/fingerprint_runs.py > before.json
    (other checkout)
    PYTHONPATH=src python3 scripts/fingerprint_runs.py --compare before.json

With --compare, it prints one "<run> <artifact>" line for each artifact
whose hash differs from the file's (or that only one side has) and exits 1
if there is any; otherwise it prints "all N artifacts identical" and exits 0.

To see by how much the values moved, keep the run directories of one
checkout and compare the other's against them:

    PYTHONPATH=src python3 scripts/fingerprint_runs.py --keep before-runs > before.json
    (other checkout)
    PYTHONPATH=src python3 scripts/fingerprint_runs.py --values before-runs

--keep DIR writes each run directory to DIR/<run> instead of a temporary
directory. --values DIR prints, for each artifact whose bytes differ from
DIR/<run>/<artifact>, the number of numeric values that differ and the
worst relative difference |new - old| / |old| among them (0 for a zero
that changes sign, inf for a value that turns into or out of NaN), reading
every number of the JSON, JSONL and CSV files (encode_array payloads decoded
with runio.decode_array, so each float64 is compared bit for bit, and read as
the nested list they replaced, so a version-1 checkpoint's lists line up
with a version-2 checkpoint's payloads); a difference
in anything else (a key, a string, the number of values) is printed as a
structural difference, and an artifact that only one side has as "only in
DIR" or "only in this checkout". It exits 1 if any artifact differs.

The configs are the criterion-8 protocol (grit on seeds 0 and 1, and its
control), the d = 48 scaling-grid control, two dense-telemetry runs
(telemetry every 5 steps, control and grit), and nine grit variants that
take the other rank-space paths: hysteresis with a soft blend (twice, once
with a band wide enough to hold k), a fixed k (rank adaptation starting at
the step budget, so the spectral k never takes over), one-sided
reprojection with a late rank-adaptation start, EMA statistics, a g-side
gate that opens at step 200 (with batches of 12 and a gradient clip of
0.5), statistics every step with neither the lambda_r penalty nor
reprojection, the lambda_k curvature penalty, and a natural-gradient warmup
of 100 steps with no reprojection warmup, the one run that reprojects
before its statistics hold a sample (its steps 0, 40 and 80 log the
no-samples gate). One grit run sets kfac_min_samples above the run's
samples, so it accumulates statistics but never inverts or preconditions:
the byte-identity reference for a grit run with an identity preconditioner
(tests/test_trainer.py holds the two equal). One more control run starts
its base off the teacher (init_jitter = 0.05), so its 20 pretraining steps
move the weights. One
grit run has telemetry every 7 steps and reprojection every 12 from step
24, off the trainer's block of 8 updates, so the update covariance is read
and reset with updates pending in the middle of a block. One grit run takes
the paths of the block-drawn data and the per-accumulation penalty
operators: two_task_forgetting with hidden = 10 != d = 12 and ft_noise = 0,
250 steps (not a multiple of the trainer's DATA_BLOCK = 16, so its last
block is partial), and rank adaptation starting at step 103, between the
accumulations at 100 and 105. One run is the config of the CLI determinism
check (criterion 12): the one-layer, identity-activation synthetic_lowrank
model, which no other run builds. The last is a synthetic_lowrank run with
lora_alpha = 2 and a rank-one target subspace, whose five reprojections all
select k = 1: the only run through the scaled effective weight and tape
gradients, and through the telemetry's eig_cv at k = 1. Every
GritConfig key takes a value other than its default in at least one run
(tests/test_fingerprint_runs.py checks this), so a key added later needs a
run of its own. The manifest carries a timestamp, so it is left out.

Each run is also audited with `grit audit`, and its six CSVs are hashed
under "audit/<name>". The run is then audited again into the same
directory; if any CSV differs from the first audit's, the script exits 1
naming the run. A change to how a stream is written that keeps its
values then shows the audit outputs unmoved while the stream's own hash
changes. Without --compare it prints one JSON object: run name ->
artifact name -> sha256. Takes a few seconds.
"""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from grit.cli import main as grit_cli
from grit.config import GritConfig
from grit.runio import AUDIT_CSVS, decode_array
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
    # a start step at the run's 500 steps keeps reprojection_k throughout
    "grit-fixed-k-s0": study_config("grit", 0, rank_adaptation_start_step=500, reprojection_k=3),
    "grit-one-sided-late-rank-s0": study_config(
        "grit", 0, use_two_sided=False, rank_adaptation_start_step=200
    ),
    "grit-ema-s0": study_config("grit", 0, ema_beta=0.9),
    # the g-side gate opens late (480 samples, 40 accumulated batches of 12, by step 195): a-side
    # reprojections at steps 80-160 and g-side from 200, the only run whose side switches
    "grit-late-g-gate-s0": study_config("grit", 0, g_gate_min_samples=480, batch_size=12, grad_clip=0.5),
    "grit-every-step-stats-s0": study_config(
        "grit", 0, lambda_r=0.0, kfac_update_freq=1, reprojection_freq=10**6
    ),
    "grit-curvature-penalty-s0": study_config("grit", 0, lambda_k=1.0),
    # reprojects at steps 0, 40 and 80, before the first accumulation at step 100
    "grit-ng-warmup-s0": study_config("grit", 0, ng_warmup_steps=100, reprojection_warmup_steps=0),
    # a sample gate above the run's samples: statistics accumulate but no inverse is ever made
    "grit-no-inverses-s0": study_config("grit", 0, kfac_min_samples=10**9),
    "control-jitter-s0": dataclasses.replace(
        study_config("lora_control", 0),
        task="two_task_forgetting(d=12, hidden=12, pretrain_steps=20, init_jitter=0.05, "
        "ft_noise=0.25, delta_scale=0.2)",
    ),
    # telemetry and resets land mid-block (trainer.UPDATE_BLOCK = 8), with updates pending
    "grit-off-block-s0": study_config(
        "grit", 0, steps=120, telemetry_every=7, reprojection_freq=12, reprojection_warmup_steps=24
    ),
    # hidden != d and noiseless targets, 250 steps (not a multiple of trainer.DATA_BLOCK = 16),
    # and the spectral rank taking over at step 103, between the accumulations at 100 and 105
    "grit-hidden10-noiseless-s0": dataclasses.replace(
        study_config("grit", 0, steps=250, rank_adaptation_start_step=103),
        task="two_task_forgetting(d=12, hidden=10, pretrain_steps=100, ft_noise=0, delta_scale=0.2)",
    ),
    # the config of the CLI determinism run (tests/test_acceptance.py's CLI_CONFIG)
    "grit-synthetic-s21": GritConfig(
        task="synthetic_lowrank(d=10, r_true=2, noise=0.05)", steps=40, seed=21,
        lora_rank=4, min_lora_rank=2, kfac_update_freq=5, kfac_min_samples=16,
        reprojection_freq=10, reprojection_warmup_steps=10, telemetry_every=10, eval_size=64,
    ),
    # lora_alpha != 1 (the scaled effective weight and gradients) and a spectral k of 1 at
    # each of its five reprojections (the single-column eig_cv path)
    "grit-alpha2-k1-s3": GritConfig(
        task="synthetic_lowrank(d=12, r_true=1, noise=0.02)", steps=120, seed=3,
        lora_rank=4, min_lora_rank=1, lora_alpha=2.0, rank_adaptation_threshold=0.85,
        kfac_update_freq=5, kfac_min_samples=16, reprojection_freq=20, reprojection_warmup_steps=20,
        telemetry_every=10, eval_size=64,
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


def leaves(value):
    """Every leaf of a parsed JSON value, in order.

    An encode_array payload gives the leaves of its array's nested list, so
    it lines up with the plain JSON list that an older artifact held.
    """
    if isinstance(value, dict):
        if set(value) == {"shape", "f64"}:
            yield from leaves(decode_array(value).tolist())
            return
        for key in sorted(value):
            yield key
            yield from leaves(value[key])
    elif isinstance(value, list):
        yield ("items", len(value))
        for item in value:
            yield from leaves(item)
    else:
        yield value


def artifact_leaves(path: Path) -> list:
    """The leaves of a run artifact: JSON, one JSON value per JSONL line, or CSV cells."""
    text = path.read_text()
    if path.suffix == ".json":
        return list(leaves(json.loads(text)))
    if path.suffix == ".jsonl":
        return list(leaves([json.loads(line) for line in text.splitlines()]))
    cells = list(csv.reader(text.splitlines())) if path.suffix == ".csv" else [text.split()]
    out = []
    for row in cells:
        out.append(("items", len(row)))
        for cell in row:
            with contextlib.suppress(ValueError):
                cell = float(cell)
            out.append(cell)
    return out


def numeric(value) -> bool:
    return type(value) in (int, float)  # not bool


def value_differences(old: Path, new: Path) -> str:
    """How new's values differ from old's: the count and worst relative difference of numbers."""
    before, after = artifact_leaves(old), artifact_leaves(new)
    if len(before) != len(after) or any(
        numeric(b) != numeric(a) or (not numeric(b) and a != b) for b, a in zip(before, after)
    ):
        return "structural difference"
    pairs = np.array([(b, a) for b, a in zip(before, after) if numeric(b)], dtype=np.float64).reshape(-1, 2)
    bits = pairs.view(np.int64)
    moved = pairs[bits[:, 0] != bits[:, 1]]  # bit for bit, so a NaN that stays NaN has not moved
    change = np.abs(moved[:, 1] - moved[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        relative = np.where(change == 0.0, 0.0, change / np.abs(moved[:, 0]))  # 0 / 0 for a signed zero
    # a value that turns into or out of NaN moved by inf, and a NaN must not hide the others' worst
    worst = float(np.max(np.where(np.isnan(relative), np.inf, relative), initial=0.0))
    return f"{len(moved)} of {len(pairs)} numeric values differ, worst relative difference {worst:.3g}"


def compare_values(old_root: Path, new_root: Path) -> int:
    """Print each differing (run, artifact) of new_root against old_root; the number printed."""
    differing = 0
    for run in RUNS:
        for name in list(ARTIFACTS) + [f"audit/{csv_name}" for csv_name in AUDIT_CSVS]:
            old, new = old_root / run / name, new_root / run / name
            if old.exists() != new.exists():
                print(f"{run} {name}: only in {old_root if old.exists() else 'this checkout'}")
            elif not old.exists() or old.read_bytes() == new.read_bytes():
                continue
            else:
                print(f"{run} {name}: {value_differences(old, new)}")
            differing += 1
    return differing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--compare", metavar="BEFORE_JSON", help="fingerprint file to compare against")
    parser.add_argument("--keep", metavar="DIR", type=Path, help="write the run directories to DIR")
    parser.add_argument(
        "--values", metavar="DIR", type=Path, help="compare values against another checkout's --keep DIR"
    )
    args = parser.parse_args()
    prints = {}
    with contextlib.ExitStack() as stack:
        root = args.keep if args.keep is not None else Path(stack.enter_context(tempfile.TemporaryDirectory()))
        for name, config in RUNS.items():
            run_dir = root / name
            run_experiment(config, out_dir=run_dir)
            prints[name] = fingerprint(run_dir)
        differing = compare_values(args.values, root) if args.values is not None else 0
    if args.compare is None and args.values is None:
        print(json.dumps(prints, indent=1, sort_keys=True))
        return 0
    changed = differences(json.loads(Path(args.compare).read_text()), prints) if args.compare else []
    for run, name in changed:
        print(f"{run} {name}")
    if changed or differing:
        return 1
    print(f"all {sum(len(p) for p in prints.values())} artifacts identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
