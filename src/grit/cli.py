"""Command-line surface: train, audit, fit-law, oracle.

Exit codes: 0 success, 1 runtime failure, 2 validation failure,
3 underdetermined fit. Without --out, train writes its run directory
<task>-s<seed>-<first 8 hex digits of the config hash> under ./runs, or
under $GRIT_OUT_ROOT when that is set. An --out that cannot be written is
a validation failure, reported before any other work. audit takes every
energy curve of cumulative_energy.csv from one reprojection.prefix_energies
call over the spectra array that read_telemetry checked finite. It formats
each CSV as one string, written in one call: the header, then a line per
row, each ended by "\r\n", an int written as str and a float as repr, the
bytes csv.writer writes for these values.

main is called many times in one process by scripts and benchmarks, so
the argument parser is built once per process; each command function is
looked up by name when it is called (cmd_<command>), so a module
attribute replaced after the first call is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .config import config_hash, load_config
from .errors import (
    ConfigError,
    GritError,
    UnderdeterminedFitError,
    UnidentifiableGammaError,
    ValidationError,
)
from .forgetting import fit_baseline_law, fit_xi_coefficients, save_fit
from .oracles import SUITES, run_suite
from .reprojection import prefix_energies
from .runio import (
    AUDIT_CSVS,
    AUDIT_DIR,
    EVENTS_NAME,
    MANIFEST_NAME,
    RECORD_NAME,
    TELEMETRY_NAME,
    UPDATES_NAME,
    decode_array,
    read_jsonl,
    read_manifest,
    read_record,
)
from .tasks import parse_task_spec
from .trainer import run_experiment


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def cmd_train(args) -> int:
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.out:
            out_dir = Path(args.out)
        else:
            task_name, _ = parse_task_spec(config.task)
            out_dir = _default_out_root() / f"{task_name}-s{config.seed}-{config_hash(config)[:8]}"
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if _unwritable(out_dir, is_dir=True):
        return 2
    try:
        record = run_experiment(config, out_dir=out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GritError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    _say(args.quiet, f"run complete: {out_dir}")
    task_loss = "none (no step ran)" if record.final_task_loss is None else f"{record.final_task_loss:.6g}"
    _say(
        args.quiet,
        f"pt loss {record.pt_loss_before:.6g} -> {record.pt_loss_after:.6g}; task loss {task_loss}",
    )
    return 0


def _default_out_root() -> Path:
    return Path(os.environ.get("GRIT_OUT_ROOT", "runs"))


def _unwritable(path: Path, is_dir: bool) -> bool:
    """Whether path cannot become an output directory (is_dir) or file; if so, say why.

    Missing directories on the way are made when the output is written, so
    only an existing path of the other kind, or an existing non-directory
    on the way, stops it.
    """
    if path.exists():
        problem = None if path.is_dir() == is_dir else f"{path} is {'not ' if is_dir else ''}a directory"
    else:
        ancestor = next((p for p in path.parents if p.exists()), path.parent)
        problem = None if ancestor.is_dir() else f"{ancestor} is not a directory"
    if problem is not None:
        print(f"cannot write {path}: {problem}", file=sys.stderr)
    return problem is not None


def _update_vectors(updates: list[dict]) -> list[np.ndarray]:
    """Every line's decoded delta_w; ValidationError unless all are finite and 1-D of one length.

    Finiteness is checked once over all vectors; the first bad line is
    looked up only when that check fails.
    """
    vectors = []
    for line, update in enumerate(updates, start=1):
        try:
            vectors.append(decode_array(update["delta_w"]))
        except (KeyError, TypeError, ValidationError) as exc:
            raise ValidationError(f"{UPDATES_NAME} line {line}: no valid delta_w ({exc})") from exc
        shape = vectors[-1].shape
        if len(shape) != 1 or shape != vectors[0].shape:
            raise ValidationError(
                f"{UPDATES_NAME} line {line}: delta_w of shape {shape}, not 1-D of line 1's length"
            )
    if vectors and not np.isfinite(vectors).all():
        line = next(line for line, v in enumerate(vectors, start=1) if not np.isfinite(v).all())
        raise ValidationError(f"{UPDATES_NAME} line {line}: delta_w has non-finite entries")
    return vectors


def cmd_audit(args) -> int:
    run_dir = Path(args.run_dir)
    out = Path(args.out) if args.out else run_dir / AUDIT_DIR
    # a run_dir that is not a directory is reported below as an incomplete run
    if run_dir.is_dir() and _unwritable(out, is_dir=True):
        return 2
    try:
        manifest = read_manifest(run_dir)
        if manifest.status != "complete":
            print(f"run is not complete (status {manifest.status})", file=sys.stderr)
            return 1
        from .telemetry import read_telemetry

        records, spectra = read_telemetry(run_dir / TELEMETRY_NAME)
        vectors = _update_vectors(read_jsonl(run_dir / UPDATES_NAME))
        events = read_jsonl(run_dir / EVENTS_NAME)
        if not (run_dir / RECORD_NAME).exists():
            raise ValidationError(f"missing {RECORD_NAME}")
    except (ValidationError, OSError) as exc:
        print(f"incomplete run: {exc}", file=sys.stderr)
        return 1

    # each row one line; an f-string writes an int as str and a float as repr, as csv.writer does
    spectra_lines, energy_lines, reff_lines, overlap_lines, tail_lines = [], [], [], [], []
    for rec, energy in zip(records, prefix_energies(spectra).tolist()):
        key = f"{rec.step},{rec.layer},"
        spectra_lines += [f"{key}{j},{lam}" for j, lam in enumerate(rec.spectrum, start=1)]
        if energy[-1:] == [1.0]:  # every curve ends at 1.0; rows before statistics exist are NaN
            energy_lines += [f"{key}{j},{e}" for j, e in enumerate(energy, start=1)]
        reff_lines.append(f"{key}{rec.r_eff},{rec.k_selected}")
        overlap_lines.append(f"{key}{rec.rho_align},{rec.pi_proj}")
        tail_lines.append(f"{key}{rec.tail_mass}")

    coord_lines = []  # below three vectors there is no embedding, only the header
    if len(vectors) >= 3:
        from .telemetry import pca_export

        coord_lines = [f"{pc1},{pc2}" for pc1, pc2 in pca_export(vectors).tolist()]

    tables = (  # header and lines of each CSV, in AUDIT_CSVS order
        ("step,layer,index,eigenvalue", spectra_lines),
        ("step,layer,index,energy", energy_lines),
        ("step,layer,r_eff,k_selected", reff_lines),
        ("step,layer,rho_align,pi_proj", overlap_lines),
        ("step,layer,tail_mass", tail_lines),
        ("pc1,pc2", coord_lines),
    )
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, lines) in zip(AUDIT_CSVS, tables, strict=True):
            (out / name).write_text("\r\n".join([header, *lines]) + "\r\n", newline="")
    except OSError as exc:
        # a failed audit leaves none of its CSVs, neither this one's nor an earlier one's
        for name in AUDIT_CSVS:
            if (out / name).is_file():
                (out / name).unlink()
        print(f"audit failed: {exc}", file=sys.stderr)
        return 1

    n_reproj = sum(1 for e in events if e.get("action") == "reproject")
    _say(args.quiet, f"audit written to {out} ({len(records)} records, {n_reproj} reprojection events)")
    return 0


def cmd_fit_law(args) -> int:
    out = Path(args.out)
    if _unwritable(out, is_dir=False):
        return 2
    records = []
    run_dir_of = {}  # id(record) -> its run dir
    for run_dir in args.run_dirs:
        try:
            # a run dir with a manifest holds a run's record only once it is complete
            if (Path(run_dir) / MANIFEST_NAME).exists():
                status = read_manifest(run_dir).status
                if status != "complete":
                    raise ValidationError(f"run is not complete (status {status})")
            records.append(read_record(run_dir))
        except (ValidationError, OSError) as exc:
            print(f"bad run dir {run_dir}: {exc}", file=sys.stderr)
            return 1
        run_dir_of[id(records[-1])] = run_dir
    baseline_records = [r for r in records if r.mode == "lora_control"] or records
    geometry_records = [r for r in records if r.mode == "grit"]
    fitting = baseline_records
    try:
        fit = fit_baseline_law(fitting)
        if geometry_records:
            fitting = geometry_records
            try:
                fit = fit_xi_coefficients(geometry_records, fit)
            except UnidentifiableGammaError as exc:
                fit.unidentifiable = ["gamma_r", "gamma_a", "gamma_p"]
                _say(args.quiet, f"gamma section unidentifiable: {exc}")
        else:
            fit.unidentifiable = ["gamma_r", "gamma_a", "gamma_p"]
    except UnderdeterminedFitError as exc:
        print(f"underdetermined fit along {exc.axis}: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:  # records the law cannot take, such as d_ft = 0
        where = "" if exc.index is None else f" (first in {run_dir_of[id(fitting[exc.index])]})"
        print(f"bad records: {exc}{where}", file=sys.stderr)
        return 1
    out.parent.mkdir(parents=True, exist_ok=True)
    save_fit(fit, out)
    _say(args.quiet, f"fit written to {args.out} (residual rms {fit.residual_rms:.3g})")
    return 0


def cmd_oracle(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; available: {sorted(SUITES)}", file=sys.stderr)
        return 2
    results = run_suite(args.suite)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  observed={r.observed:.3e}  tol={r.tolerance:.3e}")
        failures += 0 if r.passed else 1
    return 0 if failures == 0 else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grit",
        description="Geometry-aware low-rank adaptation experiments and audits.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one experiment from a config file")
    p_train.add_argument("config", help="path to the flat key/value config")
    p_train.add_argument("--out", help="run directory (default: <task>-s<seed>-<config hash[:8]> under $GRIT_OUT_ROOT or ./runs)")
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_audit = sub.add_parser("audit", help="export geometry CSVs from a completed run")
    p_audit.add_argument("run_dir")
    p_audit.add_argument("--out", help="audit output directory (default: <run_dir>/audit)")

    p_fit = sub.add_parser("fit-law", help="fit the forgetting law over completed runs")
    p_fit.add_argument("run_dirs", nargs="+")
    p_fit.add_argument("--out", required=True, help="output path for the fit document")

    p_oracle = sub.add_parser("oracle", help="run a brute-force oracle suite")
    p_oracle.add_argument("suite", help=f"one of {sorted(SUITES)}")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return globals()["cmd_" + args.command.replace("-", "_")](args)


if __name__ == "__main__":
    raise SystemExit(main())
