import json
import os

import numpy as np
import pytest

from grit import runio
from grit.forgetting import ScalingFit, load_fit, save_fit
from grit.model import build_model, load_checkpoint, save_checkpoint
from grit.errors import ValidationError
from grit.runio import (
    JsonlWriter,
    RunManifest,
    RunRecord,
    decode_array,
    encode_array,
    read_record,
    write_manifest,
    write_record,
)
from grit.telemetry import GeometryRecord, TelemetryWriter


def record(**kw):
    fields = dict(d_ft=10, n_params=4, final_task_loss=0.1, pt_loss_before=0.0,
                  pt_loss_after=0.2, mode="grit", seed=0, task="t")
    fields.update(kw)
    return RunRecord(**fields)


class TestAtomicWrites:
    def test_failed_serialization_keeps_previous_record(self, tmp_path):
        write_record(record(), tmp_path)
        before = (tmp_path / "record.json").read_bytes()
        with pytest.raises(TypeError):
            write_record(record(mode=object()), tmp_path)
        assert (tmp_path / "record.json").read_bytes() == before
        assert os.listdir(tmp_path) == ["record.json"]

    def test_failed_replace_keeps_previous_manifest_and_no_temp_file(self, tmp_path, monkeypatch):
        manifest = RunManifest.create(run_id="r", config_hash="h", seed=0, task="t")
        write_manifest(manifest, tmp_path)
        before = (tmp_path / "manifest.json").read_bytes()

        def crash(src, dst):
            raise OSError("crash during rename")

        monkeypatch.setattr(runio.os, "replace", crash)
        manifest.status = "complete"
        with pytest.raises(OSError):
            write_manifest(manifest, tmp_path)
        assert (tmp_path / "manifest.json").read_bytes() == before
        assert os.listdir(tmp_path) == ["manifest.json"]

    def test_checkpoint_goes_through_the_helper(self, tmp_path, monkeypatch):
        model = build_model([3, 2], rank=1, scaling=1.0, rng=np.random.default_rng(0))
        path = tmp_path / "checkpoint.json"
        save_checkpoint(model, path, seed=5)
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("crash during rename")

        monkeypatch.setattr(runio.os, "replace", crash)
        with pytest.raises(OSError):
            save_checkpoint(model, path, seed=6)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["checkpoint.json"]
        assert load_checkpoint(path)[1] == 5

    def test_fit_document_goes_through_the_helper(self, tmp_path, monkeypatch):
        path = tmp_path / "fit.json"
        save_fit(ScalingFit(c0=2.0, a_coef=1.0, alpha=0.3, beta=0.5), path)
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("crash during rename")

        monkeypatch.setattr(runio.os, "replace", crash)
        with pytest.raises(OSError):
            save_fit(ScalingFit(c0=3.0, a_coef=1.0, alpha=0.3, beta=0.5), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["fit.json"]
        assert load_fit(path).c0 == 2.0

    def test_round_trip(self, tmp_path):
        write_record(record(), tmp_path)
        write_record(record(seed=3), tmp_path)
        assert read_record(tmp_path).seed == 3
        assert os.listdir(tmp_path) == ["record.json"]


class TestStreams:
    def test_each_line_is_on_disk_before_append_returns(self, tmp_path):
        writer = JsonlWriter(tmp_path / "events.jsonl")
        assert os.path.getsize(writer.path) == 0
        expected = ""
        for obj in ({"step": 0, "action": "accumulate"}, {"z": [1.5, 2.0], "a": None}, {}):
            before = os.path.getsize(writer.path)
            writer.append(obj)
            line = json.dumps(obj, sort_keys=True) + "\n"
            assert os.path.getsize(writer.path) - before == len(line)
            expected += line
            assert writer.path.read_text() == expected
        writer.close()
        assert writer.path.read_text() == expected

    def test_telemetry_lines_are_on_disk_before_append_returns(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        writer = TelemetryWriter(path)
        header = json.dumps({"schema": "geometry", "version": 1}, sort_keys=True) + "\n"
        assert path.read_text() == header
        rec = GeometryRecord(
            step=0, layer=1, k_selected=2, r_eff=1, rho_align=0.25, pi_proj=1.0, tail_mass=0,
            curvature_exposure=0.5, jitter=0.0, subspace_drift=0.0, eig_cv=0.0, cov_var=0.0,
            spectrum=[2.0, 0.1],
        )
        writer.append(rec)
        line = json.dumps(vars(rec), sort_keys=True) + "\n"
        assert os.path.getsize(path) == len(header) + len(line)
        writer.close()
        assert path.read_text() == header + line

    def test_reopening_truncates(self, tmp_path):
        writer = JsonlWriter(tmp_path / "stats.jsonl")
        writer.append({"step": 0})
        writer.close()
        JsonlWriter(tmp_path / "stats.jsonl").close()
        assert (tmp_path / "stats.jsonl").read_text() == ""

    @pytest.mark.parametrize("bad", ['{"step": 1', "[1, 2]", "3"], ids=["cut", "list", "number"])
    def test_line_that_is_not_an_object_is_named(self, tmp_path, bad):
        path = tmp_path / "events.jsonl"
        path.write_text('{"step": 0}\n\n' + bad + '\n{"step": 2}\n')
        with pytest.raises(ValidationError, match=r"events\.jsonl line 3: not"):
            runio.read_jsonl(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"step": 0}\n\n{"step": 1}\n')
        assert runio.read_jsonl(path) == [{"step": 0}, {"step": 1}]


SPECIALS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, np.nan, np.inf, -np.inf, 1.0 / 3.0, -1e300]


class TestArrayCodec:
    @pytest.mark.parametrize(
        "array",
        [
            np.array(SPECIALS),
            np.array(SPECIALS[:8]).reshape(2, 4),
            np.arange(12.0).reshape(3, 4).T,  # not C-contiguous
            np.zeros(0),
        ],
        ids=["1d", "2d", "transposed", "empty"],
    )
    def test_round_trip_is_bit_identical_through_json(self, array):
        doc = json.loads(json.dumps(encode_array(array)))
        assert set(doc) == {"shape", "f64"}
        out = decode_array(doc)
        assert out.dtype == np.float64 and out.shape == array.shape
        assert out.tobytes() == np.ascontiguousarray(array).tobytes()

    def test_bytes_are_little_endian_float64(self):
        import base64

        array = np.array([[1.5, -0.0], [np.nan, 5e-324]])
        doc = encode_array(array)
        assert doc["shape"] == [2, 2]
        raw = np.frombuffer(base64.b64decode(doc["f64"]), "<f8").reshape(doc["shape"])
        assert raw.tobytes() == array.tobytes()

    def test_plain_list_of_older_run_dirs(self):
        values = [1.5, -0.0, 5e-324, float("nan"), float("inf")]
        text = json.dumps({"delta_w": values})
        out = decode_array(json.loads(text)["delta_w"])
        assert out.dtype == np.float64
        assert out.tobytes() == np.array(values).tobytes()
        assert decode_array([[1.0, 2.0], [3.0, 4.0]]).shape == (2, 2)

    @pytest.mark.parametrize(
        "value",
        [
            None,
            "AAAAAAAA8D8=",
            {"shape": [1]},
            {"f64": "AAAAAAAA8D8="},
            {"shape": [1], "f64": "not base64!"},
            {"shape": [1], "f64": "AAAAAAAA8D8"},  # padding cut
            {"shape": [2], "f64": "AAAAAAAA8D8="},  # 8 bytes for 2 floats
            {"shape": [1], "f64": "AAAAAAAA8D8A"},  # 9 bytes
            {"shape": [-1], "f64": "AAAAAAAA8D8="},
            {"shape": "1", "f64": "AAAAAAAA8D8="},
            [1.0, [2.0]],
            ["x"],
        ],
    )
    def test_malformed_value_is_validation_error(self, value):
        with pytest.raises(ValidationError):
            decode_array(value)
