"""The benchmark's tracer patches package names; each of them must exist.

perfbench/spans.py installs its wrappers with `vars(owner)[attr]`, so a
rename in the package would break traced benchmark runs. This test only
reads the boundary table; it patches nothing.
"""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
