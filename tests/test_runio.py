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
    update_line,
    write_manifest,
    write_record,
)
from grit.telemetry import GeometryRecord, TelemetryWriter, read_telemetry


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

    def test_older_record_with_nan_task_loss_still_reads(self, tmp_path):
        # zero-step runs used to write NaN, which JSON does not allow; they now write null
        (tmp_path / "record.json").write_text(
            json.dumps(vars(record(final_task_loss=float("nan"))) | {"geometry_summary": {}})
        )
        assert np.isnan(read_record(tmp_path).final_task_loss)
        write_record(record(final_task_loss=None), tmp_path)
        assert read_record(tmp_path).final_task_loss is None


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


def write_telemetry(path, n_records, damage=None):
    """A geometry stream of n_records records; damage maps a line number to the text it gets."""
    writer = TelemetryWriter(path)
    for step in range(n_records):
        writer.append(GeometryRecord(
            step=step, layer=0, k_selected=2, r_eff=1, rho_align=0.25, pi_proj=1.0, tail_mass=0,
            curvature_exposure=0.5, jitter=0.0, subspace_drift=0.0, eig_cv=0.0, cov_var=0.0,
            spectrum=[2.0, 0.1],
        ))
    writer.close()
    lines = path.read_text().splitlines()
    for number, text in (damage or {}).items():
        lines[number - 1] = text
    path.write_text("".join(line + "\n" for line in lines))


# one damaged line each; the whole stream is parsed at once and must fail as line by line
DAMAGED_LINES = {
    "two_objects": '{"step": 1}{"step": 2}',
    "two_objects_comma": '{"step": 1}, {"step": 2}',
    "list": "[1, 2]",
    "number": "3",
    "cut": '{"step": 1',
}

# damage over several lines, from line 2, that joins into as many whole values as lines
SPLIT_LINES = {
    # one object over lines 2 and 3, two on line 4
    "object_split": {2: '{"step": 0, "a": 1', 3: '"b": 2}', 4: '{"t": 1}, {"u": 2}'},
    # a list that swallows the break between lines 2 and 3, and a break written on line 3
    "break_on_a_line": {2: '{"a": [1', 3: '2]}, "\\u0000", {"b": 1}'},
}


class TestOneParsePerStream:
    @pytest.mark.parametrize("reader", [runio.read_jsonl, read_telemetry], ids=["jsonl", "telemetry"])
    @pytest.mark.parametrize("bad", DAMAGED_LINES.values(), ids=DAMAGED_LINES.keys())
    def test_damaged_line_is_named_as_line_by_line(self, tmp_path, reader, bad):
        path = tmp_path / "telemetry.jsonl"
        write_telemetry(path, 4, damage={3: bad})
        with pytest.raises(ValidationError) as line_by_line:
            runio.json_object(bad, path, 3)
        with pytest.raises(ValidationError) as read:
            reader(path)
        assert str(read.value) == str(line_by_line.value)
        assert str(read.value).startswith(f"{path} line 3: not ")

    @pytest.mark.parametrize("reader", [runio.read_jsonl, read_telemetry], ids=["jsonl", "telemetry"])
    @pytest.mark.parametrize("damage", SPLIT_LINES.values(), ids=SPLIT_LINES.keys())
    def test_object_split_across_lines_is_named(self, tmp_path, reader, damage):
        path = tmp_path / "telemetry.jsonl"
        write_telemetry(path, 4, damage=damage)
        with pytest.raises(ValidationError) as line_by_line:
            runio.json_object(damage[2], path, 2)
        with pytest.raises(ValidationError) as read:
            reader(path)
        assert str(read.value) == str(line_by_line.value)

    def test_blank_line_inside_telemetry_is_named(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        write_telemetry(path, 4, damage={3: ""})
        with pytest.raises(ValidationError) as read:
            read_telemetry(path)
        assert str(read.value) == (
            f"{path} line 3: not valid JSON (Expecting value: line 1 column 1 (char 0))"
        )
        assert len(runio.read_jsonl(path)) == 4  # read_jsonl skips it

    def test_first_fault_in_line_order_is_named(self, tmp_path):
        # line 2 parses but is not a record; line 4 does not parse
        path = tmp_path / "telemetry.jsonl"
        write_telemetry(path, 4, damage={2: '{"step": 0}', 4: '{"step": 1'})
        with pytest.raises(ValidationError, match=r"telemetry\.jsonl line 2: not a geometry record"):
            read_telemetry(path)
        write_telemetry(path, 4, damage={1: '{"version": 2}', 3: "[]"})
        with pytest.raises(ValidationError, match="unsupported telemetry version 2"):
            read_telemetry(path)

    def test_intact_streams_read_as_line_by_line(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        write_telemetry(path, 5)
        lines = path.read_text().splitlines()
        assert runio.read_jsonl(path) == [json.loads(line) for line in lines]
        assert [vars(r) for r in read_telemetry(path)] == [json.loads(line) for line in lines[1:]]
        (tmp_path / "empty.jsonl").write_text("")
        assert runio.read_jsonl(tmp_path / "empty.jsonl") == []


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


class TestUpdateLine:
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 5, 64, 144, 2304])
    def test_equals_the_json_encoder_line(self, length):
        rng = np.random.default_rng(length)
        for step, layer in ((0, 0), (17, 1), (123456, 12)):
            delta = rng.normal(size=length) * 10.0 ** rng.integers(-300, 300, size=length)
            obj = {"step": step, "layer": layer, "delta_w": encode_array(delta)}
            assert update_line(step, layer, delta) == runio._JSONL_ENCODER.encode(obj)

    def test_written_as_given_beside_encoded_objects(self, tmp_path):
        delta = np.array([0.5, -0.0, 1e-300])
        writer = JsonlWriter(tmp_path / "updates.jsonl")
        writer.append(update_line(3, 1, delta), {"step": 4})
        writer.close()
        lines = (tmp_path / "updates.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"step": 3, "layer": 1, "delta_w": encode_array(delta)}, {"step": 4}
        ]
        assert decode_array(json.loads(lines[0])["delta_w"]).tobytes() == delta.tobytes()
