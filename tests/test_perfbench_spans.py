"""The benchmark's tracer patches package names; each of them must exist.

perfbench/spans.py installs its wrappers with `vars(owner)[attr]`, so a
rename in the package would break traced benchmark runs. The first test only
reads the boundary table; it patches nothing. The second runs
perfbench/selftest.py in a subprocess: traced runs must write the same
checkpoint.json, streams and audit CSVs as untraced ones, the tracer must
come off cleanly, and BENCHMARK.json must list what the benchmark prints.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_patch_point_resolves():
    spans = load_spans()
    missing = []
    for _, module_path, owner_name, attr, _ in spans.BOUNDARIES:
        owner = spans._owner(module_path, owner_name)
        if attr not in vars(owner):
            missing.append(f"{module_path}:{owner_name or ''}.{attr}")
    assert missing == []
    assert spans.wrapped_patch_points() == []


def test_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")], capture_output=True, text=True, timeout=300
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert [line for line in lines if line.startswith("FAIL")] == []
    assert any(line.startswith("PASS") for line in lines)
