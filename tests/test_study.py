"""scripts/study.py, the criterion-8 protocol: its pinned hashes, its overrides, and perfbench's copy of it."""

import sys

import pytest

from grit.config import config_hash
from conftest import PERFBENCH, SCRIPTS, load_module, load_script, study

# config_hash(study_config(mode, seed)) as criterion 8 has run it since the protocol was fixed;
# an arm that needs another config passes overrides and leaves these as they are.
PINNED = {
    ("grit", 0): "86331be84f3cbaaf949161d43485433b9e60e73cc41401840a2db506603e486e",
    ("grit", 1): "f152de42c50dda870191e8682a00d6a49e5411fb18fdd30d256f23219c9cfaac",
    ("grit", 2): "135170f36ad11220c552a77ad3145ecf777c4ce7cdc05d10d325875740bed660",
    ("lora_control", 0): "620e7effc2f413f2ce004cda953624f409136630fe700f7852301c065c5d9b6f",
    ("lora_control", 1): "0bccc462c8cd80748c14d6e3a401b122bcf68bcbf6489b1ef415803dfaefbcb3",
    ("lora_control", 2): "69fb517bd2140fa49a7f23d75ac616dfa1f2d78b99db441435d511d776780f9d",
}


@pytest.mark.parametrize("mode, seed", sorted(PINNED))
def test_the_protocol_hash_is_pinned(mode, seed):
    assert config_hash(study.study_config(mode, seed)) == PINNED[mode, seed]


def test_loading_a_script_leaves_no_import_behind():
    """A script's `import study` resolves while it loads only, so no later `import study` depends on test order."""
    load_script("fingerprint_runs")
    assert "study" not in sys.modules and str(SCRIPTS) not in sys.path


def test_an_override_replaces_the_task():
    task = "synthetic_lowrank(d=10)"
    assert study.study_config("grit", 0, task=task).task == task
    assert study.study_config("grit", 0, d=48, task=task).task == task  # d only formats the default


def test_perfbench_copy_builds_the_study_config_for_every_workload_call():
    """perfbench/workloads.py declares the protocol again; each call its workloads make must build this config.

    The benchmark change that makes perfbench read scripts/study.py deletes this test.
    """
    calibration = load_module("perfbench_calibration", PERFBENCH / "calibration.py")
    workloads = load_module("perfbench_workloads", PERFBENCH / "workloads.py", calibration=calibration)
    wide = dict(d=workloads.WIDE_D, steps=workloads.WIDE_STEPS)  # wide_control
    dense = dict(steps=400, telemetry_every=5)  # analysis
    calls = (
        # criterion 8's seeds; forgetting_study runs seeds 2n and 2n + 1 of them
        [((mode, seed), {}) for mode in ("grit", "lora_control") for seed in range(9)]
        + [(("lora_control", seed), wide) for seed in range(3)]
        + [(("lora_control", seed), dense) for seed in range(3)]
    )
    for args, kwargs in calls:
        assert workloads.study_config(*args, **kwargs) == study.study_config(*args, **kwargs), (args, kwargs)
