import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from grit import cli
from grit.cli import main
from grit.config import config_hash, load_config
from grit.forgetting import load_fit
from grit.oracles import SUITES
from grit.runio import (
    AUDIT_CSVS,
    GeometrySummary,
    RunManifest,
    RunRecord,
    decode_array,
    encode_array,
    update_line,
    write_manifest,
    write_record,
)
from grit.reprojection import prefix_energies
from grit.telemetry import pca_export, xi_multiplier

MINIMAL_CONFIG = """
# minimal run
task = synthetic_lowrank(d=10, r_true=2, noise=0.05)
steps = 30
seed = 11
lora_rank = 4
min_lora_rank = 2
kfac_update_freq = 5
kfac_min_samples = 16
reprojection_freq = 10
reprojection_warmup_steps = 10
telemetry_every = 10
eval_size = 64
"""


def with_entry(payload, value):
    """An encode_array payload of the same vector with its first entry set to value."""
    vector = np.array(decode_array(payload))
    vector[0] = value
    return encode_array(vector)


def write_config(tmp_path, text=MINIMAL_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestTrain:
    def test_missing_required_key(self, tmp_path, capsys):
        path = write_config(tmp_path, "steps = 5\n")
        assert main(["train", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "task" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        path = write_config(tmp_path, "task = synthetic_lowrank()\nwat = 1\n")
        assert main(["train", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "wat" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["tail_threshold = 0.5", "telemetry_eta = 0.5", "enable_rank_adaptation = false"]
    )
    def test_retired_key(self, tmp_path, capsys, line):
        path = write_config(tmp_path, MINIMAL_CONFIG + line + "\n")
        assert main(["train", str(path), "--out", str(tmp_path / "r")]) == 2
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_unknown_task_without_out_is_validation_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GRIT_OUT_ROOT", str(tmp_path / "root"))
        path = write_config(tmp_path, "task = nosuchtask\n")
        assert main(["train", str(path)]) == 2
        assert "nosuchtask" in capsys.readouterr().err

    def test_non_numeric_task_argument_is_validation_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "task = synthetic_lowrank(d=abc)\n")
        assert main(["train", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "abc" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, word",
        [("synthetic_lowrank(dd=6)", "dd"), ("synthetic_lowrank(d=6.5)", "integer")],
    )
    def test_undeclared_or_non_integer_task_argument_is_validation_error(
        self, tmp_path, capsys, spec, word
    ):
        path = write_config(tmp_path, f"task = {spec}\nsteps = 3\nlora_rank = 4\n")
        assert main(["train", str(path), "--out", str(tmp_path / "r")]) == 2
        assert word in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "spec, name",
        [
            ("synthetic_lowrank(noise=-1)", "noise"),
            ("synthetic_lowrank(delta_scale=-1)", "delta_scale"),
            ("synthetic_lowrank(r_true=0)", "r_true"),
            ("two_task_forgetting(pretrain_steps=-5)", "pretrain_steps"),
            ("two_task_forgetting(ft_noise=-0.5)", "ft_noise"),
            ("two_task_forgetting(d=0)", "d"),
            ("two_task_forgetting(hidden=0)", "hidden"),
        ],
    )
    def test_task_argument_out_of_range_is_validation_error(self, tmp_path, capsys, spec, name):
        path = write_config(tmp_path, f"task = {spec}\nsteps = 3\nlora_rank = 4\n")
        assert main(["train", str(path), "--out", str(tmp_path / "r")]) == 2
        assert f"task argument {name!r} must be at least" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "spec, name", [("two_task_forgetting(d=1, hidden=4)", "d"), ("two_task_forgetting(hidden=1)", "hidden")]
    )
    def test_width_one_two_task_forgetting_is_validation_error(self, tmp_path, capsys, spec, name):
        # at rank 1 no lora_rank check stops it, and the fine-tune teacher's rank-2 delta needs width 2
        path = write_config(tmp_path, f"task = {spec}\nsteps = 3\nlora_rank = 1\nmin_lora_rank = 1\n")
        assert main(["train", str(path), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"config error: task argument {name!r} must be at least 2, got 1\n"
        assert not (tmp_path / "r").exists()

    def test_rank_above_layer_width_is_validation_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "task = synthetic_lowrank(d=4)\nsteps = 3\nlora_rank = 8\n")
        assert main(["train", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "lora_rank" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "text, flags, key",
        [
            (MINIMAL_CONFIG.replace("eval_size = 64", "eval_size = 0"), [], "eval_size"),
            (MINIMAL_CONFIG.replace("seed = 11", "seed = -1"), [], "seed"),
            (MINIMAL_CONFIG, ["--seed", "-1"], "seed"),
        ],
        ids=["eval_size", "seed", "seed_flag"],
    )
    def test_bad_eval_size_or_seed_is_validation_error(self, tmp_path, capsys, text, flags, key):
        path = write_config(tmp_path, text)
        assert main(["train", str(path), "--out", str(tmp_path / "r"), *flags]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_negative_telemetry_every_is_validation_error(self, tmp_path, capsys):
        text = MINIMAL_CONFIG.replace("telemetry_every = 10", "telemetry_every = -3")
        path = write_config(tmp_path, text)
        assert main(["train", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "telemetry_every" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("key, value", [("grad_clip", "nan"), ("kfac_damping", "inf")])
    def test_non_finite_config_number_is_validation_error(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, MINIMAL_CONFIG + f"{key} = {value}\n")
        assert main(["train", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_path_is_validation_error(self, tmp_path, capsys, kind):
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(MINIMAL_CONFIG.encode() + b"# \xff\xfe\n")
        assert main(["train", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read ") and str(path) in err
        assert not (tmp_path / "r").exists()

    def test_out_that_is_a_file_is_validation_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("x")
        assert main(["--quiet", "train", str(path), "--out", str(taken)]) == 2
        assert capsys.readouterr().err == f"cannot write {taken}: {taken} is not a directory\n"
        assert taken.read_text() == "x"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "taken"]

    def test_stream_that_cannot_be_opened_is_run_failure(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        (out / "stats.jsonl").mkdir(parents=True)
        assert main(["--quiet", "train", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: ") and err.count("\n") == 1 and "stats.jsonl" in err
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"

    def test_valid_config_produces_run_dir(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["--quiet", "train", str(path), "--out", str(out)]) == 0
        for name in ("manifest.json", "telemetry.jsonl", "record.json"):
            assert (out / name).exists()

    def test_replay_identical_excluding_timestamps(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["--quiet", "train", str(path), "--out", str(out1)]) == 0
        assert main(["--quiet", "train", str(path), "--out", str(out2)]) == 0
        for name in ("record.json", "telemetry.jsonl", "events.jsonl", "checkpoint.json",
                     "stats.jsonl", "updates.jsonl", "config.cfg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        m1.pop("created_at"), m2.pop("created_at")
        m1.pop("run_id"), m2.pop("run_id")
        assert m1 == m2

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "r"
        assert main(["--quiet", "train", str(path), "--out", str(out), "--seed", "99"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_seed_override_reaches_the_config_copy(self, tmp_path):
        # the run's config.cfg replays the run: it carries the override and the manifest's hash
        path = write_config(tmp_path)
        out = tmp_path / "r"
        assert main(["--quiet", "train", str(path), "--out", str(out), "--seed", "7"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        saved = load_config(out / "config.cfg")
        assert saved.seed == 7
        assert config_hash(saved) == manifest["config_hash"]

    def test_out_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRIT_OUT_ROOT", str(tmp_path / "root"))
        path = write_config(tmp_path)
        assert main(["--quiet", "train", str(path)]) == 0
        runs = list((tmp_path / "root").iterdir())
        assert len(runs) == 1
        # <task>-s<seed>-<first 8 hex digits of the config hash>
        assert runs[0].name == f"synthetic_lowrank-s11-{config_hash(load_config(path))[:8]}"
        assert (runs[0] / "record.json").exists()


class TestAudit:
    def run_once(self, tmp_path, text=MINIMAL_CONFIG):
        path = write_config(tmp_path, text)
        out = tmp_path / "run"
        assert main(["--quiet", "train", str(path), "--out", str(out)]) == 0
        return out

    def test_audit_outputs(self, tmp_path):
        out = self.run_once(tmp_path)
        assert main(["--quiet", "audit", str(out)]) == 0
        assert sorted(p.name for p in (out / "audit").iterdir()) == sorted(AUDIT_CSVS)

    def test_cumulative_energy_monotone_to_one(self, tmp_path):
        out = self.run_once(tmp_path)
        main(["--quiet", "audit", str(out)])
        rows = (out / "audit" / "cumulative_energy.csv").read_text().splitlines()[1:]
        by_key = {}
        for row in rows:
            step, layer, index, energy = row.split(",")
            by_key.setdefault((step, layer), []).append((int(index), float(energy)))
        assert by_key  # at least one populated series
        for series in by_key.values():
            series.sort()
            values = [v for _, v in series]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
            assert abs(values[-1] - 1.0) < 1e-9

    def test_audit_rows_match_telemetry_stream(self, tmp_path):
        from grit.telemetry import read_telemetry

        out = self.run_once(tmp_path)
        main(["--quiet", "audit", str(out)])
        records, _ = read_telemetry(out / "telemetry.jsonl")
        rows = (out / "audit" / "alignment.csv").read_text().splitlines()[1:]
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            step, layer, rho, pi = row.split(",")
            assert (int(step), int(layer)) == (rec.step, rec.layer)
            assert float(rho) == rec.rho_align
            assert float(pi) == rec.pi_proj

    def test_audit_deterministic(self, tmp_path):
        out = self.run_once(tmp_path)
        main(["--quiet", "audit", str(out), "--out", str(tmp_path / "a1")])
        main(["--quiet", "audit", str(out), "--out", str(tmp_path / "a2")])
        for name in ("spectra.csv", "cumulative_energy.csv", "pca_updates.csv"):
            assert (tmp_path / "a1" / name).read_bytes() == (tmp_path / "a2" / name).read_bytes()

    def test_zero_event_run_constant_k(self, tmp_path):
        config = MINIMAL_CONFIG.replace(
            "reprojection_warmup_steps = 10", "reprojection_warmup_steps = 1000"
        )
        out = self.run_once(tmp_path, config)
        assert main(["--quiet", "audit", str(out)]) == 0
        events = [
            json.loads(line)
            for line in (out / "events.jsonl").read_text().splitlines()
            if line
        ]
        assert not [e for e in events if e.get("action") == "reproject"]
        rows = (out / "audit" / "effective_rank.csv").read_text().splitlines()[1:]
        ks = {row.split(",")[3] for row in rows}
        assert ks == {"4"}  # constant at the adapter rank

    def test_reaudit_rewrites_the_csvs_and_keeps_other_files(self, tmp_path):
        out = self.run_once(tmp_path)
        audit = out / "audit"
        assert main(["--quiet", "audit", str(out)]) == 0
        first = {name: (audit / name).read_bytes() for name in AUDIT_CSVS}
        (audit / "notes.txt").write_text("kept")
        (audit / "spectra.csv").write_bytes(b"edited")
        assert main(["--quiet", "audit", str(out)]) == 0
        for name in AUDIT_CSVS:
            assert (audit / name).read_bytes() == first[name]
        assert (audit / "notes.txt").read_text() == "kept"
        assert sorted(p.name for p in audit.iterdir()) == sorted([*AUDIT_CSVS, "notes.txt"])

    def test_commands_are_looked_up_when_called(self, tmp_path, monkeypatch):
        out = self.run_once(tmp_path)
        assert main(["--quiet", "audit", str(out)]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_audit", lambda args: seen.append(args.run_dir) or 0)
        assert main(["--quiet", "audit", str(out)]) == 0
        assert seen == [str(out)]

    @pytest.mark.parametrize("where", ["file", "below_file"])
    def test_unwritable_out_is_validation_error(self, tmp_path, capsys, where):
        out = self.run_once(tmp_path)
        blocker = tmp_path / "taken"
        blocker.write_text("x")
        target = blocker if where == "file" else blocker / "audit"
        assert main(["--quiet", "audit", str(out), "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err == f"cannot write {target}: {blocker} is not a directory\n"
        assert blocker.read_text() == "x"
        assert not (out / "audit").exists()

    def test_incomplete_run(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["audit", str(tmp_path / "empty")]) == 1

    def test_run_dir_that_is_a_file_is_incomplete_run(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.write_text("x")
        assert main(["--quiet", "audit", str(run_dir)]) == 1
        assert capsys.readouterr().err.startswith("incomplete run: ")

    @pytest.mark.parametrize("missing", ["updates.jsonl", "events.jsonl"])
    def test_missing_stream_is_incomplete_run(self, tmp_path, capsys, missing):
        out = self.run_once(tmp_path)
        (out / missing).unlink()
        assert main(["--quiet", "audit", str(out)]) == 1
        assert "incomplete run" in capsys.readouterr().err
        assert not (out / "audit").exists()

    def test_stream_that_cannot_be_read_is_incomplete_run(self, tmp_path, capsys):
        out = self.run_once(tmp_path)
        (out / "telemetry.jsonl").unlink()
        (out / "telemetry.jsonl").mkdir()
        assert main(["--quiet", "audit", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("incomplete run: ") and err.count("\n") == 1 and "telemetry.jsonl" in err
        assert not (out / "audit").exists()

    def test_failed_csv_write_leaves_none_of_the_csvs(self, tmp_path, capsys):
        out = self.run_once(tmp_path)
        audit = out / "audit"
        assert main(["--quiet", "audit", str(out)]) == 0
        (audit / "notes.txt").write_text("kept")
        (audit / "alignment.csv").unlink()
        (audit / "alignment.csv").mkdir()
        # the CSVs before alignment.csv are written again, and those after it are an earlier audit's
        assert main(["--quiet", "audit", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("audit failed: ") and err.count("\n") == 1 and "alignment.csv" in err
        assert sorted(p.name for p in audit.iterdir()) == ["alignment.csv", "notes.txt"]
        assert (audit / "alignment.csv").is_dir() and (audit / "notes.txt").read_text() == "kept"

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda u: u.pop("delta_w"),
            lambda u: u["delta_w"].update(f64="not*base64"),
            lambda u: u["delta_w"].update(shape=[u["delta_w"]["shape"][0] + 1]),
            lambda u: u.update(delta_w=encode_array(np.zeros(8))),
            lambda u: u.update(delta_w=with_entry(u["delta_w"], np.nan)),
            lambda u: u.update(delta_w=with_entry(u["delta_w"], np.inf)),
            lambda u: u.update(delta_w=with_entry(u["delta_w"], -np.inf)),
            lambda u: u.update(delta_w=[10**400, *decode_array(u["delta_w"]).tolist()[1:]]),
        ],
        ids=["missing_field", "invalid_base64", "bytes_not_shape", "shorter_vector",
             "nan_entry", "inf_entry", "minus_inf_entry", "plain_list_entry_past_float_range"],
    )
    def test_bad_update_vector_is_incomplete_run(self, tmp_path, capsys, corrupt):
        out = self.run_once(tmp_path)
        path = out / "updates.jsonl"
        updates = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(updates) >= 3  # enough vectors for the PCA export to run
        corrupt(updates[1])
        path.write_text("".join(json.dumps(u) + "\n" for u in updates))
        assert main(["--quiet", "audit", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("incomplete run: ") and err.count("\n") == 1 and "updates.jsonl line 2" in err
        assert not (out / "audit").exists()

    @pytest.mark.parametrize("name", ["updates.jsonl", "events.jsonl", "telemetry.jsonl"])
    def test_cut_stream_line_is_incomplete_run(self, tmp_path, capsys, name):
        out = self.run_once(tmp_path)
        lines = (out / name).read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        (out / name).write_text("".join(line + "\n" for line in lines))
        assert main(["--quiet", "audit", str(out)]) == 1
        err = capsys.readouterr().err
        assert "incomplete run" in err and f"{name} line 2" in err
        assert not (out / "audit").exists()

    def test_telemetry_line_with_wrong_fields_is_incomplete_run(self, tmp_path, capsys):
        out = self.run_once(tmp_path)
        path = out / "telemetry.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["rho"] = record.pop("rho_align")
        lines[1] = json.dumps(record)
        path.write_text("".join(line + "\n" for line in lines))
        assert main(["--quiet", "audit", str(out)]) == 1
        err = capsys.readouterr().err
        assert "incomplete run" in err and "telemetry.jsonl line 2" in err
        assert not (out / "audit").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("rho_align", "0.5"), ("step", True), ("spectrum", [1.0, "x"]), ("spectrum", 2.0),
         ("tail_mass", None), ("r_eff", 3.0), ("spectrum", [1.0, 10**400, 0.5, 0.25]), ("pi_proj", -(10**400))],
        ids=["string", "bool", "spectrum_entry", "spectrum_not_list", "null", "integer_as_float",
             "spectrum_entry_past_float_range", "number_past_float_range"],
    )
    def test_telemetry_value_of_wrong_type_is_incomplete_run(self, tmp_path, capsys, field, value):
        out = self.run_once(tmp_path)
        path = out / "telemetry.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record[field] = value
        lines[2] = json.dumps(record)
        path.write_text("".join(line + "\n" for line in lines))
        assert main(["--quiet", "audit", str(out)]) == 1
        err = capsys.readouterr().err
        assert "incomplete run" in err and f"telemetry.jsonl line 3: {field} is" in err
        assert not (out / "audit").exists()

    @pytest.mark.parametrize("length", [3, 5, 0])
    def test_ragged_spectra_are_incomplete_run(self, tmp_path, capsys, length):
        # the energy curves are taken in one stacked call, which needs spectra of one length
        out = self.run_once(tmp_path)
        path = out / "telemetry.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        record["spectrum"] = [1.0] * length
        lines[3] = json.dumps(record)
        path.write_text("".join(line + "\n" for line in lines))
        assert main(["--quiet", "audit", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"incomplete run: {path} line 4: spectrum of length {length}, not line 2's 4\n"
        assert not (out / "audit").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "infinity"])
    def test_non_finite_spectrum_is_incomplete_run(self, tmp_path, capsys, value):
        # its energy curve would be NaN, and left out of cumulative_energy.csv
        out = self.run_once(tmp_path)
        path = out / "telemetry.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        record["spectrum"][0] = value
        lines[3] = json.dumps(record)
        path.write_text("".join(line + "\n" for line in lines))
        assert main(["--quiet", "audit", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"incomplete run: {path} line 4: spectrum has non-finite entries\n"
        assert not (out / "audit").exists()

    def test_spectrum_entry_float64_holds_audits(self, tmp_path):
        # an integer float64 holds is the number it is, as 3 is
        out = self.run_once(tmp_path)
        path = out / "telemetry.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        record["spectrum"][0] = 2**70
        lines[3] = json.dumps(record)
        path.write_text("".join(line + "\n" for line in lines))
        assert main(["--quiet", "audit", str(out)]) == 0
        assert f"{record['step']},0,1,{2**70}" in (out / "audit" / "spectra.csv").read_text().splitlines()

    @pytest.mark.parametrize(
        "header",
        ['{"schema": "geometry", "version": true}', '{"schema": "not-geometry", "version": 2.0}', '{"version": 2}'],
        ids=["bool_version", "float_version", "no_schema"],
    )
    def test_telemetry_header_other_than_the_writers_is_incomplete_run(self, tmp_path, capsys, header):
        out = self.run_once(tmp_path)
        path = out / "telemetry.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("".join(line + "\n" for line in [header, *lines[1:]]))
        assert main(["--quiet", "audit", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("incomplete run: ") and err.count("\n") == 1 and "telemetry" in err
        assert not (out / "audit").exists()

    def test_csvs_are_the_bytes_csv_writer_writes(self, tmp_path):
        """Against csv.writer over the rows the audit derives, for values whose text is easy to get wrong."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        manifest = RunManifest.create(run_id="fabricated", config_hash="0" * 64, seed=0, task="synthetic")
        manifest.status = "complete"
        write_manifest(manifest, run_dir)
        write_record(
            RunRecord(d_ft=1, n_params=1, final_task_loss=0.0, pt_loss_before=0.0, pt_loss_after=0.0,
                      mode="grit", seed=0, task="synthetic"),
            run_dir,
        )
        (run_dir / "events.jsonl").write_text("")
        base = dict(step=0, layer=0, k_selected=2, r_eff=1, rho_align=0.5, pi_proj=0.9, tail_mass=3,
                    curvature_exposure=1.5, eig_cv=0.0, spectrum=[1.0, 0.5, 0.0])
        records = [
            base | {"rho_align": float("nan"), "spectrum": [1e16, 1e-300, -0.0]},
            base | {"step": 5, "rho_align": 1e-300, "pi_proj": -0.0, "spectrum": [0.0, 0.0, 0.0]},  # no energy curve
            base | {"step": 5, "layer": 1, "rho_align": 1e16, "pi_proj": 0, "spectrum": [3, 0.1, 1 / 3]},  # JSON ints
        ]
        lines = ['{"schema": "geometry", "version": 2}', *(json.dumps(r, sort_keys=True) for r in records)]
        (run_dir / "telemetry.jsonl").write_text("".join(line + "\n" for line in lines))
        vectors = np.random.default_rng(0).normal(size=(4, 6))
        (run_dir / "updates.jsonl").write_text("".join(update_line(j, 0, v) + "\n" for j, v in enumerate(vectors)))
        assert main(["--quiet", "audit", str(run_dir)]) == 0

        records = [json.loads(line) for line in lines[1:]]  # as the stream holds them, ints included
        energies = prefix_energies(np.array([r["spectrum"] for r in records])).tolist()
        key = [[r["step"], r["layer"]] for r in records]
        tables = (
            (["step", "layer", "index", "eigenvalue"],
             [[*k, j, lam] for k, r in zip(key, records) for j, lam in enumerate(r["spectrum"], start=1)]),
            (["step", "layer", "index", "energy"],
             [[*k, j, e] for k, energy in zip(key, energies) if energy[-1] == 1.0 for j, e in enumerate(energy, start=1)]),
            (["step", "layer", "r_eff", "k_selected"], [[*k, r["r_eff"], r["k_selected"]] for k, r in zip(key, records)]),
            (["step", "layer", "rho_align", "pi_proj"], [[*k, r["rho_align"], r["pi_proj"]] for k, r in zip(key, records)]),
            (["step", "layer", "tail_mass"], [[*k, r["tail_mass"]] for k, r in zip(key, records)]),
            (["pc1", "pc2"], pca_export(list(vectors)).tolist()),
        )
        for name, (header, rows) in zip(AUDIT_CSVS, tables, strict=True):
            expected = io.StringIO()
            csv.writer(expected).writerows([header, *rows])
            assert (run_dir / "audit" / name).read_bytes() == expected.getvalue().encode(), name
        texts = {name: (run_dir / "audit" / name).read_bytes().decode() for name in AUDIT_CSVS}
        assert "\r\n" in texts["pca_updates.csv"] and ",nan," in texts["alignment.csv"]
        assert all(v in texts["spectra.csv"] for v in (",1e+16\r", ",1e-300\r", ",-0.0\r", ",3\r"))

    def test_truncated_manifest_is_incomplete_run(self, tmp_path, capsys):
        out = self.run_once(tmp_path)
        path = out / "manifest.json"
        path.write_text(path.read_text()[:40])
        assert main(["--quiet", "audit", str(out)]) == 1
        err = capsys.readouterr().err
        assert "incomplete run" in err and "manifest.json" in err
        assert not (out / "audit").exists()

    def test_manifest_value_of_the_wrong_kind_is_a_bad_run(self, tmp_path, capsys):
        out = self.run_once(tmp_path)
        path = out / "manifest.json"
        path.write_text(json.dumps(json.loads(path.read_text()) | {"seed": "abc"}))
        reason = f"{path}: seed is 'abc', not an integer\n"
        assert main(["--quiet", "audit", str(out)]) == 1
        assert capsys.readouterr().err == f"incomplete run: {reason}"
        assert not (out / "audit").exists()
        fit = tmp_path / "fit.json"
        assert main(["--quiet", "fit-law", str(out), "--out", str(fit)]) == 1
        assert capsys.readouterr().err == f"bad run dir {out}: {reason}"
        assert not fit.exists()

    def test_plain_list_run_dir_audits_identically(self, tmp_path):
        out = self.run_once(tmp_path)
        main(["--quiet", "audit", str(out), "--out", str(tmp_path / "encoded")])
        for name, fields in (("stats.jsonl", ("a_cov", "g_cov")), ("updates.jsonl", ("delta_w",))):
            lines = [json.loads(line) for line in (out / name).read_text().splitlines()]
            for line in lines:
                line.update({f: decode_array(line[f]).tolist() for f in fields})
            (out / name).write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert isinstance(json.loads((out / "updates.jsonl").read_text().splitlines()[0])["delta_w"], list)
        assert main(["--quiet", "audit", str(out), "--out", str(tmp_path / "lists")]) == 0
        names = sorted(p.name for p in (tmp_path / "encoded").iterdir())
        assert len(names) == 6
        assert sorted(p.name for p in (tmp_path / "lists").iterdir()) == names
        for name in names:
            assert (tmp_path / "lists" / name).read_bytes() == (tmp_path / "encoded" / name).read_bytes()


class TestFitLaw:
    def fabricate_runs(self, tmp_path, gammas=(0.1, 0.5, 0.3), with_geometry=True):
        rng = np.random.default_rng(0)
        dirs = []
        c0, a_coef, alpha, beta = 2.0, 1.0, 0.3, 0.5
        i = 0
        for n in (1e4, 1e5):
            for d in np.geomspace(1e3, 1e5, 6):
                d = int(d)
                loss = c0 + a_coef * d**beta / n**alpha
                run_dir = tmp_path / f"base{i}"
                run_dir.mkdir()
                write_record(
                    RunRecord(d_ft=d, n_params=int(n), final_task_loss=0.0,
                              pt_loss_before=c0, pt_loss_after=float(loss),
                              mode="lora_control", seed=i, task="synthetic"),
                    run_dir,
                )
                dirs.append(run_dir)
                if with_geometry:
                    geo = (float(rng.integers(1, 9)), float(rng.uniform()), float(rng.uniform()))
                    xi = xi_multiplier(*geo, gammas)
                    loss_g = c0 + a_coef * d**beta / (xi * n) ** alpha
                    gdir = tmp_path / f"grit{i}"
                    gdir.mkdir()
                    write_record(
                        RunRecord(d_ft=d, n_params=int(n), final_task_loss=0.0,
                                  pt_loss_before=c0, pt_loss_after=float(loss_g),
                                  mode="grit", seed=i, task="synthetic",
                                  geometry_summary=GeometrySummary(
                                      r_eff=geo[0], rho_align=geo[1], pi_proj=geo[2], max_rank=8)),
                        gdir,
                    )
                    dirs.append(gdir)
                i += 1
        return dirs

    def test_round_trip(self, tmp_path):
        dirs = self.fabricate_runs(tmp_path)
        out = tmp_path / "fit.json"
        assert main(["--quiet", "fit-law", *map(str, dirs), "--out", str(out)]) == 0
        fit = load_fit(out)
        assert fit.residual_rms < 1e-6
        assert abs(fit.gamma_a - 0.5) < 1e-3

    def test_truncated_record_is_bad_run_dir(self, tmp_path, capsys):
        dirs = self.fabricate_runs(tmp_path, with_geometry=False)
        path = dirs[3] / "record.json"
        path.write_text(path.read_text()[:40])
        out = tmp_path / "fit.json"
        assert main(["--quiet", "fit-law", *map(str, dirs), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"bad run dir {dirs[3]}" in err and "record.json" in err
        assert not out.exists()

    def test_record_that_cannot_be_read_is_bad_run_dir(self, tmp_path, capsys):
        dirs = self.fabricate_runs(tmp_path, with_geometry=False)
        (dirs[3] / "record.json").unlink()
        (dirs[3] / "record.json").mkdir()
        out = tmp_path / "fit.json"
        assert main(["--quiet", "fit-law", *map(str, dirs), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"bad run dir {dirs[3]}: ") and err.count("\n") == 1 and "record.json" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("d_ft", "abc"), ("pt_loss_after", None), ("mode", 3), ("task", ["synthetic"]),
         ("seed", False), ("geometry_summary.rho_align", "0.1"), ("d_ft", float("nan")),
         ("n_params", float("inf")), ("d_ft", 1000.0), ("seed", 1.5), ("geometry_summary.max_rank", 8.0),
         ("pt_loss_after", 10**400), ("geometry_summary.r_eff", -(10**400))],
        ids=["d_ft_string", "loss_null", "mode_number", "task_list", "seed_bool", "summary_string",
             "d_ft_nan", "n_params_inf", "d_ft_float", "seed_float", "max_rank_float",
             "loss_past_float_range", "r_eff_past_float_range"],
    )
    def test_record_value_of_wrong_type_is_bad_run_dir(self, tmp_path, capsys, field, value):
        dirs = self.fabricate_runs(tmp_path)
        path = dirs[3] / "record.json"
        doc = json.loads(path.read_text())
        *parents, name = field.split(".")
        target = doc
        for parent in parents:
            target = target[parent]
        target[name] = value
        path.write_text(json.dumps(doc))
        out = tmp_path / "fit.json"
        assert main(["--quiet", "fit-law", *map(str, dirs), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"bad run dir {dirs[3]}" in err and f"{name} is {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "index, field, value",
        [(3, "d_ft", 0), (3, "pt_loss_after", -1.0), (1, "pt_loss_after", 0.5),
         (3, "pt_loss_after", float("nan")), (1, "pt_loss_after", float("nan")),
         (1, "pt_loss_after", float("inf")), (1, "geometry_summary.rho_align", float("nan")),
         (1, "geometry_summary.r_eff", float("inf")), (3, "d_ft", 10**400), (1, "n_params", 10**400)],
        ids=["zero_steps", "non_positive_loss", "geometry_below_offset", "control_loss_nan",
             "grit_loss_nan", "grit_loss_inf", "rho_align_nan", "r_eff_inf",
             "d_ft_past_float_range", "grit_n_params_past_float_range"],
    )
    def test_records_the_law_cannot_take_are_bad_records(self, tmp_path, capsys, index, field, value):
        dirs = self.fabricate_runs(tmp_path)  # a control record, then a grit one, per cell
        path = dirs[index] / "record.json"
        doc = json.loads(path.read_text())
        *parents, name = field.split(".")
        target = doc
        for parent in parents:
            target = target[parent]
        target[name] = value
        path.write_text(json.dumps(doc))
        out = tmp_path / "fit.json"
        assert main(["--quiet", "fit-law", *map(str, dirs), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bad records: ")
        assert f"(first in {dirs[index]})" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["GRIT", "lora", ""])
    def test_record_of_an_undeclared_mode_is_bad_run_dir(self, tmp_path, capsys, mode):
        # the declared modes match exactly, so a record the fit would drop is named instead
        dirs = self.fabricate_runs(tmp_path)
        for run_dir in dirs[1::2]:  # every grit record
            path = run_dir / "record.json"
            path.write_text(path.read_text().replace('"mode": "grit"', f'"mode": "{mode}"'))
        out = tmp_path / "fit.json"
        assert main(["--quiet", "fit-law", *map(str, dirs), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"bad run dir {dirs[1]}: {dirs[1] / 'record.json'}: mode is {mode!r},"
            " not one of ('grit', 'lora_control')\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("status", ["failed", "interrupted", "running"])
    def test_run_that_is_not_complete_is_bad_run_dir(self, tmp_path, capsys, status):
        dirs = self.fabricate_runs(tmp_path)
        for i, run_dir in enumerate(dirs):
            manifest = RunManifest.create(run_id=run_dir.name, config_hash="0" * 64, seed=i, task="synthetic")
            manifest.status = status if i == 3 else "complete"
            write_manifest(manifest, run_dir)
        out = tmp_path / "fit.json"
        assert main(["--quiet", "fit-law", *map(str, dirs), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"bad run dir {dirs[3]}: run is not complete (status {status})\n"
        assert not out.exists()

    def test_complete_manifests_and_dirs_without_one_fit_alike(self, tmp_path):
        dirs = self.fabricate_runs(tmp_path)
        plain = tmp_path / "plain.json"
        assert main(["--quiet", "fit-law", *map(str, dirs), "--out", str(plain)]) == 0
        for i, run_dir in enumerate(dirs[::2]):
            manifest = RunManifest.create(run_id=run_dir.name, config_hash="0" * 64, seed=i, task="synthetic")
            manifest.status = "complete"
            write_manifest(manifest, run_dir)
        mixed = tmp_path / "mixed.json"
        assert main(["--quiet", "fit-law", *map(str, dirs), "--out", str(mixed)]) == 0
        assert mixed.read_bytes() == plain.read_bytes()

    def test_failed_rerun_is_bad_run_dir(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL_CONFIG.replace("seed = 11", "seed = 0\nmode = lora_control"))
        out = tmp_path / "run"
        assert main(["--quiet", "train", str(path), "--out", str(out)]) == 0
        failing = write_config(tmp_path, path.read_text() + "learning_rate = 1e200\n", name="failing.cfg")
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["--quiet", "train", str(failing), "--out", str(out), "--seed", "1"]) == 1
        capsys.readouterr()
        fit = tmp_path / "fit.json"
        assert main(["--quiet", "fit-law", str(out), "--out", str(fit)]) == 1
        assert capsys.readouterr().err == f"bad run dir {out}: run is not complete (status failed)\n"
        assert not fit.exists()

    def test_out_that_is_a_directory_is_validation_error(self, tmp_path, capsys):
        dirs = self.fabricate_runs(tmp_path)
        assert main(["--quiet", "fit-law", *map(str, dirs), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"cannot write {tmp_path}: {tmp_path} is a directory\n"

    def test_missing_parent_directories_are_made(self, tmp_path):
        dirs = self.fabricate_runs(tmp_path)
        out = tmp_path / "missing" / "deeper" / "fit.json"
        assert main(["--quiet", "fit-law", *map(str, dirs), "--out", str(out)]) == 0
        assert load_fit(out).residual_rms < 1e-6

    def test_single_run_underdetermined(self, tmp_path):
        dirs = self.fabricate_runs(tmp_path, with_geometry=False)[:1]
        assert main(["--quiet", "fit-law", *map(str, dirs), "--out", str(tmp_path / "f.json")]) == 3

    def test_runs_without_geometry_mark_gamma_unidentifiable(self, tmp_path):
        dirs = self.fabricate_runs(tmp_path, with_geometry=False)
        out = tmp_path / "fit.json"
        assert main(["--quiet", "fit-law", *map(str, dirs), "--out", str(out)]) == 0
        fit = load_fit(out)
        assert set(fit.unidentifiable) == {"gamma_r", "gamma_a", "gamma_p"}


# JSON texts no writer produces: numbers float64 holds only in part or not at all,
# an integer literal past Python's 4,300-digit limit, and values of every other kind
HOSTILE_VALUES = [
    str(2**70), "1" + "0" * 400, "-1" + "0" * 400, "9" * 5000, "1e999", "true", "null", '"x"', "[]", "{}",
]
_SENTINEL = "\x00hostile\x00"


def hostile_positions(path, line=None):
    """(line, keys) of each position swept in a JSON file or one line of a JSONL file:
    the whole document and each top-level value, and each value of a nested object."""
    text = path.read_text()
    doc = json.loads(text if line is None else text.splitlines()[line])
    positions = [(line, ())]
    for key, value in doc.items():
        positions.append((line, (key,)))
        if isinstance(value, dict):
            positions += [(line, (key, inner)) for inner in value]
    return positions


def put_hostile(path, line, keys, value_text):
    """Write path with the value at keys (of its document, or of its line) replaced by value_text."""
    text = path.read_text()
    lines = text.splitlines()
    doc = json.loads(text if line is None else lines[line])
    if keys:
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = _SENTINEL
    else:
        doc = _SENTINEL
    encoded = json.dumps(doc, sort_keys=True).replace(json.dumps(_SENTINEL), value_text)
    if line is None:
        path.write_text(encoded)
    else:
        lines[line] = encoded
        path.write_text("\n".join(lines) + "\n")


class TestHostileJsonValues:
    """Every hostile value at every swept position of a run's files ends audit and fit-law
    with an exit code, never an exception, and a nonzero code with one stderr line."""

    def sweep(self, capsys, command, targets):
        escapes = []
        for path, line, keys in targets:
            original = path.read_bytes()
            for value_text in HOSTILE_VALUES:
                put_hostile(path, line, keys, value_text)
                try:
                    code = main(["--quiet", *command])
                except Exception as exc:  # an escape is what the sweep looks for
                    code = repr(exc)[:120]
                finally:
                    path.write_bytes(original)
                err = capsys.readouterr().err
                lines = 0 if code == 0 else 1
                if type(code) is not int or err.count("\n") != lines or not err.endswith("\n" * lines):
                    escapes.append((path.name, line, keys, value_text[:24], code, err[:120]))
        return escapes

    def test_audit_and_fit_law_exit_cleanly(self, tmp_path, capsys):
        run = TestAudit().run_once(tmp_path)
        assert len((run / "updates.jsonl").read_text().splitlines()) >= 3
        targets = [
            (run / "manifest.json", *pos) for pos in hostile_positions(run / "manifest.json")
        ] + [
            (run / "record.json", *pos) for pos in hostile_positions(run / "record.json")
        ] + [
            (run / "telemetry.jsonl", *pos) for pos in hostile_positions(run / "telemetry.jsonl", line=1)
        ] + [
            (run / "telemetry.jsonl", 1, ("spectrum", 1)),
            (run / "updates.jsonl", 0, ("delta_w",)),
            (run / "events.jsonl", 0, ()),
        ]
        escapes = self.sweep(capsys, ["audit", str(run), "--out", str(tmp_path / "audit")], targets)

        (tmp_path / "law").mkdir()
        dirs = TestFitLaw().fabricate_runs(tmp_path / "law")
        grit_dir = dirs[1]  # a grit record: its geometry summary reaches the fit
        manifest = RunManifest.create(run_id=grit_dir.name, config_hash="0" * 64, seed=1, task="synthetic")
        manifest.status = "complete"
        write_manifest(manifest, grit_dir)
        fit = tmp_path / "fit.json"
        assert main(["--quiet", "fit-law", *map(str, dirs), "--out", str(fit)]) == 0
        targets = [
            (grit_dir / name, *pos) for name in ("manifest.json", "record.json")
            for pos in hostile_positions(grit_dir / name)
        ]
        escapes += self.sweep(capsys, ["fit-law", *map(str, dirs), "--out", str(fit)], targets)
        assert escapes == []


class TestOneProcess:
    def test_every_command_in_sequence_gets_its_own_arguments(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["--quiet", "train", str(write_config(tmp_path)), "--out", str(run), "--seed", "3"]) == 0
        assert load_config(run / "config.cfg").seed == 3
        assert main(["audit", str(run), "--out", str(tmp_path / "audit")]) == 0
        assert sorted(p.name for p in (tmp_path / "audit").iterdir()) == sorted(AUDIT_CSVS)
        dirs = TestFitLaw().fabricate_runs(tmp_path)
        assert main(["fit-law", *map(str, dirs), "--out", str(tmp_path / "fit.json")]) == 0
        assert main(["oracle", "projector"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith(f"audit written to {tmp_path / 'audit'} (")
        assert out[1].startswith(f"fit written to {tmp_path / 'fit.json'} (")
        assert out[2].startswith("PASS")
        assert main(["--quiet", "train", str(write_config(tmp_path)), "--out", str(tmp_path / "r2")]) == 0
        assert load_config(tmp_path / "r2" / "config.cfg").seed == 11  # no --seed this time


class TestOracleCommand:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_suite_passes(self, capsys, suite):
        assert main(["oracle", suite]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_suite(self, capsys):
        assert main(["oracle", "mystery"]) == 2
        assert "mystery" in capsys.readouterr().err
