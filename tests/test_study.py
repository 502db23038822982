"""scripts/study.py, the criterion-8 protocol: its pinned hashes, its overrides, perfbench's copy of it, and the scripts built on it."""

import json
import sys

import pytest

from grit.cli import main as cli_main
from grit.config import config_hash
from grit.runio import (
    CHECKPOINT_NAME, CONFIG_NAME, EVENTS_NAME, RECORD_NAME, STATS_NAME, TELEMETRY_NAME, UPDATES_NAME, read_manifest,
)
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


def assert_complete(run_dir):
    """The run's manifest says complete, and each artifact of a completed run is there."""
    assert read_manifest(run_dir).status == "complete", run_dir
    for name in (CONFIG_NAME, TELEMETRY_NAME, EVENTS_NAME, STATS_NAME, UPDATES_NAME, CHECKPOINT_NAME, RECORD_NAME):
        assert (run_dir / name).is_file(), (run_dir, name)


def test_forgetting_comparison_at_toy_size(tmp_path, monkeypatch):
    """run_forgetting_comparison.py writes its summary over complete run directories that grit audit reads."""
    script = load_script("run_forgetting_comparison")
    monkeypatch.setattr(sys, "argv", ["run_forgetting_comparison.py", "--seeds", "1", "--steps", "10", "--out", str(tmp_path)])
    script.main()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert (summary["seeds"], summary["steps"], [row["seed"] for row in summary["rows"]]) == (1, 10, [0])
    assert sorted(path.name for path in tmp_path.iterdir() if path.is_dir()) == ["grit-s0", "lora_control-s0"]
    for run_dir in (tmp_path / "grit-s0", tmp_path / "lora_control-s0"):
        assert_complete(run_dir)
    assert cli_main(["--quiet", "audit", str(tmp_path / "grit-s0")]) == 0


def test_scaling_grid_at_toy_size(tmp_path, monkeypatch, capsys):
    """run_scaling_grid.py runs both modes over its grid, then fits the law over every run."""
    script = load_script("run_scaling_grid")
    monkeypatch.setattr(script, "STEP_GRID", (10, 20, 40))
    monkeypatch.setattr(script, "WIDTH_GRID", (12, 13))
    monkeypatch.setattr(sys, "argv", ["run_scaling_grid.py", "--out", str(tmp_path)])
    script.main()
    assert "fit-law exit code 0" in capsys.readouterr().out
    assert json.loads((tmp_path / "forgetting_law.json").read_text())
    run_dirs = sorted(path for path in tmp_path.iterdir() if path.is_dir())
    assert [path.name for path in run_dirs] == sorted(
        f"{mode}-d{d}-steps{steps}" for mode in ("grit", "lora_control") for d in (12, 13) for steps in (10, 20, 40)
    )
    for run_dir in run_dirs:
        assert_complete(run_dir)
