"""The benchmark's tracer patches package names; each of them must exist.

perfbench/spans.py installs its wrappers with `vars(owner)[attr]`, so a
rename in the package would break traced benchmark runs. The first test only
reads the boundary table; it patches nothing. The second runs
perfbench/selftest.py in a subprocess: traced runs must write the same
checkpoint.json, streams and audit CSVs as untraced ones, the tracer must
come off cleanly, and BENCHMARK.json must list what the benchmark prints.
The third reads the package's source: an import its module never uses is
allowed only where a boundary patches that name in that module.
"""

import ast
import subprocess
import sys
from pathlib import Path

from conftest import PERFBENCH, ROOT, load_module


def load_spans():
    return load_module("perfbench_spans", PERFBENCH / "spans.py")


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


# The one unused import that is not a patch point: the acceptance suite's
# criterion 4 imports effective_rank from grit.telemetry.
REEXPORTS = {("grit.telemetry", "effective_rank")}


def unused_imports(path: Path) -> set[str]:
    """Names the module at path imports (anywhere in it) but never reads; __all__ entries count as read."""
    tree = ast.parse(path.read_text())
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_every_unused_import_is_a_patch_point():
    """An import that nothing in its module reads is kept only for a perfbench span patching that name there.

    When a span is dropped from BOUNDARIES, this names the import that was kept for it, to be deleted.
    """
    patched = {(module_path, attr) for _, module_path, owner, attr, _ in load_spans().BOUNDARIES if owner is None}
    package = ROOT / "src" / "grit"
    unused = {(f"grit.{path.stem}", name) for path in package.glob("*.py") for name in unused_imports(path)}
    stale = sorted(unused - patched - REEXPORTS)
    assert stale == [], f"imported, never used and patched by no span there, so delete: {stale}"
