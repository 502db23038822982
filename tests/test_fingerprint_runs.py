"""scripts/fingerprint_runs.py, the byte-identity gate, on tiny fake run directories."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from grit.config import GritConfig
from grit.runio import encode_array
from conftest import load_script

fingerprint_runs = load_script("fingerprint_runs")
RUN = next(iter(fingerprint_runs.RUNS))


def write_run(root: Path, artifacts: dict) -> Path:
    """root/RUN holding each artifact name as the JSON of its value."""
    (root / RUN).mkdir(parents=True)
    for name, value in artifacts.items():
        (root / RUN / name).write_text(json.dumps(value))
    return root


def compare(tmp_path, capsys, old, new) -> tuple[int, list[str]]:
    """compare_values of a run dir whose record.json holds new against one holding old: (count, printed lines)."""
    old_root = write_run(tmp_path / "old", {"record.json": old})
    new_root = write_run(tmp_path / "new", {"record.json": new})
    count = fingerprint_runs.compare_values(old_root, new_root)
    return count, capsys.readouterr().out.splitlines()


def test_every_config_key_leaves_its_default_in_some_run():
    """Each key's own path reaches the byte-identity gate: some run sets it to a value other than its default."""
    defaults = GritConfig()
    unset = [
        f.name for f in dataclasses.fields(GritConfig)
        if all(getattr(config, f.name) == getattr(defaults, f.name) for config in fingerprint_runs.RUNS.values())
    ]
    assert unset == []


class TestDifferences:
    def test_changed_hash_and_one_sided_runs_and_artifacts(self):
        before = {"a": {"x": "1", "y": "2"}, "b": {"x": "3"}}
        after = {"a": {"x": "1", "y": "changed", "z": "4"}, "c": {"x": "5"}}
        assert fingerprint_runs.differences(before, after) == [("a", "y"), ("a", "z"), ("b", "x"), ("c", "x")]

    def test_identical_prints_have_none(self):
        prints = {"a": {"x": "1"}}
        assert fingerprint_runs.differences(prints, json.loads(json.dumps(prints))) == []


class TestCompareValues:
    def test_identical_artifacts_print_nothing(self, tmp_path, capsys):
        assert compare(tmp_path, capsys, {"x": 1.0}, {"x": 1.0}) == (0, [])

    def test_moved_float_counted_with_its_relative_difference(self, tmp_path, capsys):
        count, lines = compare(tmp_path, capsys, {"x": 2.0, "y": 1.0}, {"x": 3.0, "y": 1.0})
        assert count == 1
        assert lines == [f"{RUN} record.json: 1 of 2 numeric values differ, worst relative difference 0.5"]

    def test_negative_zero_against_zero_has_moved(self, tmp_path, capsys):
        count, lines = compare(tmp_path, capsys, [0.0, 1.0], [-0.0, 1.0])
        assert count == 1
        assert lines == [f"{RUN} record.json: 1 of 2 numeric values differ, worst relative difference 0"]

    def test_signed_zero_does_not_hide_the_worst_difference(self, tmp_path, capsys):
        _, lines = compare(tmp_path, capsys, [0.0, 2.0], [-0.0, 3.0])
        assert lines == [f"{RUN} record.json: 2 of 2 numeric values differ, worst relative difference 0.5"]

    def test_nan_that_stays_nan_has_not_moved(self, tmp_path, capsys):
        nan = float("nan")
        _, lines = compare(tmp_path, capsys, [nan, 2.0], [nan, 3.0])
        assert lines == [f"{RUN} record.json: 1 of 2 numeric values differ, worst relative difference 0.5"]

    def test_value_that_leaves_nan_moved_by_inf(self, tmp_path, capsys):
        _, lines = compare(tmp_path, capsys, [float("nan"), 2.0], [1.0, 3.0])
        assert lines == [f"{RUN} record.json: 2 of 2 numeric values differ, worst relative difference inf"]

    def test_payload_lines_up_with_the_list_it_replaced(self, tmp_path, capsys):
        # a version-1 checkpoint's nested lists against a version-2 checkpoint's payload of the same values
        array = [[1.0, -0.0], [0.1 + 0.2, 3.0]]
        count, lines = compare(tmp_path, capsys, {"w0": array}, {"w0": encode_array(np.array(array))})
        assert (count, lines) == (1, [f"{RUN} record.json: 0 of 4 numeric values differ, worst relative difference 0"])

    def test_payload_of_another_shape_is_structural(self, tmp_path, capsys):
        array = [[1.0, 2.0], [3.0, 4.0]]
        _, lines = compare(tmp_path, capsys, {"w0": array}, {"w0": encode_array(np.array(array).ravel())})
        assert lines == [f"{RUN} record.json: structural difference"]

    @pytest.mark.parametrize(
        "old, new", [({"x": 1.0}, {"x": 1.0, "z": 2.0}), ({"x": 1.0}, {"y": 1.0}), ([1.0], ["1.0"])]
    )
    def test_extra_key_renamed_key_or_changed_type_is_structural(self, tmp_path, capsys, old, new):
        count, lines = compare(tmp_path, capsys, old, new)
        assert (count, lines) == (1, [f"{RUN} record.json: structural difference"])

    def test_artifact_on_one_side_only(self, tmp_path, capsys):
        old_root = write_run(tmp_path / "old", {"record.json": {"x": 1.0}, "checkpoint.json": {"y": 1.0}})
        new_root = write_run(tmp_path / "new", {"record.json": {"x": 1.0}, "events.jsonl": {"z": 1.0}})
        assert fingerprint_runs.compare_values(old_root, new_root) == 2
        assert capsys.readouterr().out.splitlines() == [
            f"{RUN} events.jsonl: only in this checkout",
            f"{RUN} checkpoint.json: only in {old_root}",
        ]
