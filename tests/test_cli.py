import json
from pathlib import Path

import numpy as np
import pytest

from grit import cli
from grit.cli import main
from grit.config import config_hash, load_config
from grit.forgetting import load_fit
from grit.runio import GeometrySummary, RunRecord, decode_array, encode_array, write_record
from grit.telemetry import xi_multiplier

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


AUDIT_CSVS = (
    "spectra.csv", "cumulative_energy.csv", "effective_rank.csv",
    "alignment.csv", "tail_mass.csv", "pca_updates.csv",
)


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

    def test_out_that_is_a_file_is_validation_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("x")
        assert main(["--quiet", "train", str(path), "--out", str(taken)]) == 2
        assert capsys.readouterr().err == f"cannot write {taken}: {taken} is not a directory\n"
        assert taken.read_text() == "x"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "taken"]

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
        records = read_telemetry(out / "telemetry.jsonl")
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

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda u: u.pop("delta_w"),
            lambda u: u["delta_w"].update(f64="not*base64"),
            lambda u: u["delta_w"].update(shape=[u["delta_w"]["shape"][0] + 1]),
            lambda u: u.update(delta_w=encode_array(np.zeros(8))),
        ],
        ids=["missing_field", "invalid_base64", "bytes_not_shape", "shorter_vector"],
    )
    def test_bad_update_vector_is_incomplete_run(self, tmp_path, capsys, corrupt):
        out = self.run_once(tmp_path)
        path = out / "updates.jsonl"
        updates = [json.loads(line) for line in path.read_text().splitlines()]
        corrupt(updates[1])
        path.write_text("".join(json.dumps(u) + "\n" for u in updates))
        assert main(["--quiet", "audit", str(out)]) == 1
        err = capsys.readouterr().err
        assert "incomplete run" in err and "updates.jsonl line 2" in err
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
         ("tail_mass", None)],
        ids=["string", "bool", "spectrum_entry", "spectrum_not_list", "null"],
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

    def test_truncated_manifest_is_incomplete_run(self, tmp_path, capsys):
        out = self.run_once(tmp_path)
        path = out / "manifest.json"
        path.write_text(path.read_text()[:40])
        assert main(["--quiet", "audit", str(out)]) == 1
        err = capsys.readouterr().err
        assert "incomplete run" in err and "manifest.json" in err
        assert not (out / "audit").exists()

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

    @pytest.mark.parametrize(
        "field, value",
        [("d_ft", "abc"), ("pt_loss_after", None), ("mode", 3), ("task", ["synthetic"]),
         ("seed", False), ("geometry_summary.rho_align", "0.1")],
        ids=["d_ft_string", "loss_null", "mode_number", "task_list", "seed_bool", "summary_string"],
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
         (1, "pt_loss_after", float("inf")), (3, "d_ft", float("nan")),
         (3, "n_params", float("inf")), (1, "geometry_summary.rho_align", float("nan")),
         (1, "geometry_summary.r_eff", float("inf"))],
        ids=["zero_steps", "non_positive_loss", "geometry_below_offset", "control_loss_nan",
             "grit_loss_nan", "grit_loss_inf", "d_ft_nan", "n_params_inf", "rho_align_nan",
             "r_eff_inf"],
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
    def test_projector_suite_passes(self, capsys):
        assert main(["oracle", "projector"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_suite(self, capsys):
        assert main(["oracle", "mystery"]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_rankselect_suite_passes(self):
        assert main(["oracle", "rankselect"]) == 0

    def test_tangent_suite_passes(self, capsys):
        assert main(["oracle", "tangent"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_curvature_suite_passes(self, capsys):
        assert main(["oracle", "curvature"]) == 0
        assert "FAIL" not in capsys.readouterr().out
