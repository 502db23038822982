"""Loading the scripts under scripts/ and perfbench/ by path, for the tests that read them.

Neither directory is a package. Each file is executed as a module of its own,
and a script's import of a sibling (`from study import study_config`)
resolves to the module given for it only while that script runs, so nothing
is left on sys.path or in sys.modules for an import elsewhere to find.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
PERFBENCH = ROOT / "perfbench"


def load_module(name: str, path: Path, **siblings):
    """The file at path executed as module `name`; `siblings` are importable by their names while it runs."""
    saved = {key: sys.modules.get(key) for key in siblings}
    sys.modules.update(siblings)
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for key, value in saved.items():
            if value is None:
                del sys.modules[key]
            else:
                sys.modules[key] = value
    return module


# The criterion-8 protocol, the one declaration the tests and scripts build their configs from.
study = load_module("study", SCRIPTS / "study.py")


def load_script(name: str):
    """scripts/<name>.py, its `import study` resolved to the module above."""
    return load_module(name, SCRIPTS / f"{name}.py", study=study)
