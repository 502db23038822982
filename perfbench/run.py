"""Run one benchmark workload against grit and print its metrics.

    python3 perfbench/run.py --workload forgetting_study --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: grit is imported from ./src. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones, timed with only Trainer.train_step wrapped; with --trace 1 they are the
per-layer ones from spans around every layer boundary (see spans.py). Lines
before it give each metric with its unit and sample count, the gate results
and the environment; the full report and the spans go to
.perfbench-work/<workload>/s<seed>-t<trace>/.
"""

import os
import sys

# BLAS threads are pinned before anything imports NumPy: with the default
# thread count, a second process on a 2-core box slowed one SVD ~100x.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
NUMPY_IMPORTED_BEFORE_PINNING = "numpy" in sys.modules
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("forgetting_study", "wide_control", "analysis")

# name -> unit; what each means per workload is tabled in perfbench/README.md
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms_p50": "ms",
    "telemetry_step_ms": "ms",
    "audit_s": "s",
    "peak_rss_mb": "MB",
}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "unknown: not a git checkout"
    except (OSError, subprocess.SubprocessError):
        git_sha = "unknown: git unavailable"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads_set_before_numpy_import": not NUMPY_IMPORTED_BEFORE_PINNING,
        "git_sha": git_sha,
        # informational (ROADMAP aim 2), not a gated metric
        "src_grit_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "grit").glob("*.py"))
        ),
    }


def percentile(values, q: float) -> float:
    """The sample at or above rank q (numpy method 'higher'): never a value
    interpolated between two classes of step."""
    import numpy as np

    return float(np.percentile(values, q, method="higher"))


def summarize(bench, timer, step_mode: str) -> tuple[dict, dict]:
    """End-to-end values, and every timed quantity under its own name with its sample count.

    Times are scaled to reference speed (see calibration.py); the detail
    keeps the raw wall-clock value next to each.
    """
    import numpy as np
    from calibration import CAL_REF_S

    def stat(samples, q, scale=1.0):
        if not samples:
            return math.nan, math.nan
        return (
            scale * percentile(bench.at_reference(samples), q),
            scale * percentile([wall for _, _, wall in samples], q),
        )

    steps = timer.samples[step_mode]
    telemetry_steps = timer.telemetry[step_mode]
    e2e = {
        "setup_s": stat(bench.times["setup"], 50)[0],
        "run_s": stat(bench.times["run"], 50)[0],
        "step_ms_p50": stat(steps, 50, 1e3)[0],
        "telemetry_step_ms": stat(telemetry_steps, 50, 1e3)[0],
        "audit_s": stat(bench.times["audit"], 50)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {}
    for kind, samples in sorted(bench.times.items()):
        ref, raw = stat(samples, 50)
        detail[f"{kind}_s"] = {"value": ref, "raw": raw, "unit": "s", "n": len(samples), "stat": "median"}
    for mode, samples in timer.samples.items():
        if samples:
            prefix = "grit" if mode == "grit" else "control"
            for q in (50, 99.5):
                ref, raw = stat(samples, q, 1e3)
                detail[f"{prefix}_step_ms_p{q:g}".replace(".", "")] = {
                    "value": ref, "raw": raw, "unit": "ms", "n": len(samples), "stat": f"p{q:g}",
                }
            ref, raw = stat(timer.telemetry[mode], 50, 1e3)
            detail[f"{prefix}_telemetry_step_ms"] = {
                "value": ref, "raw": raw, "unit": "ms", "n": len(timer.telemetry[mode]), "stat": "median",
            }
    detail["calibration_kernel_s"] = {
        "value": CAL_REF_S, "raw": float(np.median([k for _, k in bench.cal])), "unit": "s",
        "n": len(bench.cal), "stat": "median; value is the reference",
    }
    detail["failed_share"] = {
        "value": bench.failed / bench.attempted if bench.attempted else math.nan,
        "raw": None, "unit": "ratio", "n": bench.attempted, "stat": "failed/attempted",
    }
    if "drift_ratio" in bench.facts:
        detail["drift_ratio"] = {
            "value": bench.facts["drift_ratio"], "raw": None, "unit": "ratio",
            "n": len(bench.facts["per_seed_drift"]), "stat": "median grit dpt / median control dpt",
        }
    return e2e, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "grit" / "__init__.py").is_file():
        print(f"perfbench: no grit source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from spans import StepTimer, Tracer, layer_metrics, per_layer_units
    from workloads import WORKLOADS, Bench

    work = WORK / args.workload / f"s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    tracer = Tracer() if args.trace else None
    bench = Bench(work, args.seed, args.seconds, tracer)
    timer = StepTimer(calibration_spent=lambda: bench.cal_spent)
    timer.install()
    if tracer is not None:
        tracer.install()
    bench.start_calibrating()
    try:
        step_mode = WORKLOADS[args.workload](bench)
    finally:
        bench.stop_calibrating()
        if tracer is not None:
            tracer.remove()
        timer.remove()

    e2e, detail = summarize(bench, timer, step_mode)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "end_to_end": e2e, "detail": detail,
        "checks": bench.checks, "facts": bench.facts,
        "calibrations": bench.cal, "wall_times": bench.times, "step_times": timer.samples,
    }
    if tracer is not None:
        values, computed = layer_metrics(tracer, bench.first_pass_runs)
        units = per_layer_units()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        report["per_layer_runs"] = sorted(bench.first_pass_runs)
        report["per_layer_computed"] = computed
        untraced = work.parent / f"s{args.seed}-t0" / "result.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())["end_to_end"]
            report["tracing_overhead"] = {k: e2e[k] - base[k] for k in END_TO_END}
        else:
            report["tracing_overhead"] = f"no untraced result for seed {args.seed}; run --trace 0 first"
        tracer.write(work / "spans.jsonl")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = finite and bench.failed == 0 and all(c["ok"] for c in bench.checks)
    report["correct"] = correct
    (work / "result.json").write_text(json.dumps(report, indent=1, default=str))

    for name, d in detail.items():
        raw = f"; raw wall {d['raw']:.6g}" if d["raw"] is not None else ""
        print(f"{name:24s} {d['value']:.6g} {d['unit']}  ({d['stat']}, n={d['n']}{raw})")
    for c in bench.checks:
        print(f"{'PASS' if c['ok'] else 'FAIL'}  {c['check']}: {c['detail']}")
    if tracer is not None:
        print(f"tracing overhead (traced - untraced): {report['tracing_overhead']}")
    print("environment: " + json.dumps(report["environment"]))
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = 0.0
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
