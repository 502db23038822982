"""Range invariants of emitted geometry records over a real training run."""

import dataclasses
import json

import pytest

from grit.config import GritConfig
from grit.tasks import build_task
from grit.telemetry import TELEMETRY_SCHEMA_VERSION, GeometryRecord, read_telemetry
from grit.trainer import Trainer, run_experiment, seed_stream


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("stream") / "run"
    cfg = GritConfig(
        task="two_task_forgetting(d=10, hidden=10, pretrain_steps=0, ft_noise=0.2)",
        steps=120, seed=2, mode="grit", lora_rank=6, min_lora_rank=2,
        kfac_update_freq=5, kfac_min_samples=32, g_gate_min_samples=32,
        reprojection_freq=30, reprojection_warmup_steps=30,
        rank_adaptation_threshold=0.9, use_two_sided=True, kfac_damping=0.05,
        learning_rate=0.03, telemetry_every=10, eval_size=64,
    )
    run_experiment(cfg, out_dir=out)
    return out, cfg


@pytest.fixture(scope="module")
def run_records(run_dir):
    out, cfg = run_dir
    return read_telemetry(out / "telemetry.jsonl")[0], cfg


def test_stream_is_written_at_the_current_version_without_stability_fields(run_dir):
    out, _ = run_dir
    header, *lines = map(json.loads, (out / "telemetry.jsonl").read_text().splitlines())
    assert header == {"schema": "geometry", "version": TELEMETRY_SCHEMA_VERSION} == {"schema": "geometry", "version": 2}
    fields = {field.name for field in dataclasses.fields(GeometryRecord)}
    assert lines and all(line.keys() == fields for line in lines)
    assert fields.isdisjoint({"jitter", "subspace_drift", "cov_var"})


def test_rho_and_pi_in_unit_interval(run_records):
    records, _ = run_records
    for rec in records:
        assert -1e-9 <= rec.rho_align <= 1.0 + 1e-9
        assert -1e-9 <= rec.pi_proj <= 1.0 + 1e-9


def test_r_eff_and_k_within_rank(run_records):
    records, cfg = run_records
    for rec in records:
        assert 1 <= rec.r_eff <= cfg.lora_rank
        assert 1 <= rec.k_selected <= cfg.lora_rank


def test_nonnegative_diagnostics(run_records):
    records, _ = run_records
    for rec in records:
        assert rec.tail_mass >= 0
        assert rec.curvature_exposure >= 0.0
        assert rec.eig_cv >= 0.0


def test_spectrum_sorted_descending(run_records):
    records, _ = run_records
    for rec in records:
        assert all(a >= b - 1e-12 for a, b in zip(rec.spectrum, rec.spectrum[1:]))


def test_records_cover_all_layers_at_cadence(run_records):
    records, cfg = run_records
    steps = sorted({rec.step for rec in records})
    assert steps == list(range(0, cfg.steps, cfg.telemetry_every))
    for step in steps:
        layers = {rec.layer for rec in records if rec.step == step}
        assert layers == {0, 1}
