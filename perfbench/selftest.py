"""Self-tests of the benchmark's tracing. Run from the root of a source checkout:

    python3 perfbench/selftest.py

1. Transparency: a traced run writes the same record.json, *.jsonl and
   checkpoint.json bytes as an untraced run of the same config and seed, and
   a traced `grit audit` writes the same CSVs.
2. Removal: once a tracer is removed, every patch point holds its original.
3. Repeatability: the per-layer counts of two traced runs of one seed agree
   exactly.
4. BENCHMARK.json lists exactly the metrics the benchmark prints.

Exits 0 when every check passes, 1 otherwise.
"""

import run  # noqa: F401  (pins BLAS threads before NumPy is imported)

import json
import shutil
import sys

from run import END_TO_END, ROOT, SRC, WORK

sys.path.insert(0, str(SRC))

from grit.cli import main as grit_cli  # noqa: E402
from grit.trainer import run_experiment  # noqa: E402

from spans import Tracer, layer_metrics, per_layer_units, wrapped_patch_points  # noqa: E402
from workloads import AUDIT_CSVS, DETERMINISTIC, study_config  # noqa: E402

# Values that count work; times are left out because they never repeat.
COUNT_UNITS = ("count", "rows", "B", "ratio")


def traced_run(config, out, run_id):
    tracer = Tracer()
    tracer.run_id = run_id
    tracer.install()
    try:
        run_experiment(config, out_dir=out)
        rc = grit_cli(["--quiet", "audit", str(out), "--out", str(out / "audit")])
    finally:
        tracer.remove()
    values, computed = layer_metrics(tracer, {run_id})
    units = per_layer_units()
    counts = {k: v for k, v in values.items() if units[k] in COUNT_UNITS}
    return rc, counts, computed


def artifacts(out):
    files = [out / name for name in DETERMINISTIC] + [out / "audit" / name for name in AUDIT_CSVS]
    return {str(p.relative_to(out)): p.read_bytes() for p in files}


def main() -> int:
    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    results = []

    def check(name, ok, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name} {detail}")

    for mode in ("grit", "lora_control"):
        config = study_config(mode, seed=0)
        plain = work / f"{mode}-untraced"
        run_experiment(config, out_dir=plain)
        grit_cli(["--quiet", "audit", str(plain), "--out", str(plain / "audit")])
        rc1, counts1, computed = traced_run(config, work / f"{mode}-traced-1", "a")
        check(f"{mode}: wrappers removed", not wrapped_patch_points(), str(wrapped_patch_points()))
        rc2, counts2, _ = traced_run(config, work / f"{mode}-traced-2", "b")
        reference = artifacts(plain)
        for tag in ("traced-1", "traced-2"):
            got = artifacts(work / f"{mode}-{tag}")
            differ = sorted(k for k in reference if reference[k] != got[k])
            check(f"{mode}: {tag} artifacts byte-identical to untraced", not differ, f"differ: {differ}")
        check(f"{mode}: traced audits exit 0", rc1 == 0 and rc2 == 0)
        differ = sorted(k for k in counts1 if counts1[k] != counts2[k])
        check(f"{mode}: per-layer counts repeat exactly", not differ, f"differ: {differ}")
        print(
            f"      {mode} seed 0: sym_eig {counts1['linalg.sym_eig.calls']:.0f} calls, "
            f"damped_solve {counts1['linalg.damped_solve.calls']:.0f} calls "
            f"({counts1['linalg.damped_solve.retries']:.0f} above rung 1), "
            f"sym_eig dims {computed['sym_eig_dim_histogram']}"
        )

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    check("BENCHMARK.json end_to_end matches run.py", listed == END_TO_END)
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check("BENCHMARK.json per_layer matches spans.py", listed == per_layer_units())
    shutil.rmtree(work, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
