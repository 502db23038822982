import json
from pathlib import Path

import numpy as np
import pytest

from grit.cli import main
from grit.forgetting import load_fit
from grit.runio import GeometrySummary, RunRecord, write_record
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

    def test_out_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRIT_OUT_ROOT", str(tmp_path / "root"))
        path = write_config(tmp_path)
        assert main(["--quiet", "train", str(path)]) == 0
        runs = list((tmp_path / "root").iterdir())
        assert len(runs) == 1
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
        audit = out / "audit"
        for name in ("spectra.csv", "cumulative_energy.csv", "effective_rank.csv",
                     "alignment.csv", "tail_mass.csv", "pca_updates.csv"):
            assert (audit / name).exists()

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

    def test_incomplete_run(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["audit", str(tmp_path / "empty")]) == 1

    @pytest.mark.parametrize("missing", ["updates.jsonl", "events.jsonl"])
    def test_missing_stream_is_incomplete_run(self, tmp_path, capsys, missing):
        out = self.run_once(tmp_path)
        (out / missing).unlink()
        assert main(["--quiet", "audit", str(out)]) == 1
        assert "incomplete run" in capsys.readouterr().err
        assert not (out / "audit").exists()


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

    def test_single_run_underdetermined(self, tmp_path):
        dirs = self.fabricate_runs(tmp_path, with_geometry=False)[:1]
        assert main(["--quiet", "fit-law", *map(str, dirs), "--out", str(tmp_path / "f.json")]) == 3

    def test_runs_without_geometry_mark_gamma_unidentifiable(self, tmp_path):
        dirs = self.fabricate_runs(tmp_path, with_geometry=False)
        out = tmp_path / "fit.json"
        assert main(["--quiet", "fit-law", *map(str, dirs), "--out", str(out)]) == 0
        fit = load_fit(out)
        assert set(fit.unidentifiable) == {"gamma_r", "gamma_a", "gamma_p"}


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
