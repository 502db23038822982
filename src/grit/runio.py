"""Run-directory artifacts: manifest, run record, and the auxiliary streams.

Layout of a completed run directory:

    config.cfg       copy of the resolved configuration
    manifest.json    run id, config hash, seed, task, timestamp, status
    telemetry.jsonl  geometry stream (schema header + one object per step/layer)
    events.jsonl     reprojection / gate events, one object per line
    stats.jsonl      rank-space covariance snapshots at the accumulation cadence
    updates.jsonl    flattened per-layer update vectors for the PCA export
    checkpoint.json  final model
    record.json      RunRecord summary

Timestamps appear only in the manifest so that record and streams replay
byte-identically for a fixed config and seed. The manifest, record and
checkpoint are replaced whole (write_atomic), so a run that dies mid-write
leaves the previous version, never a truncated file. Each .jsonl stream is
opened once per run, flushed after every line and closed on every exit
path, so a run that dies leaves each stream ending in a whole line.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .errors import ValidationError

MANIFEST_NAME = "manifest.json"
RECORD_NAME = "record.json"
TELEMETRY_NAME = "telemetry.jsonl"
EVENTS_NAME = "events.jsonl"
STATS_NAME = "stats.jsonl"
UPDATES_NAME = "updates.jsonl"
CONFIG_NAME = "config.cfg"
CHECKPOINT_NAME = "checkpoint.json"


@dataclass
class GeometrySummary:
    """Run-level averages of the telemetry fields used by the law fitter."""

    r_eff: float = 0.0
    rho_align: float = 0.0
    pi_proj: float = 1.0
    k_selected: float = 0.0
    curvature_exposure: float = 0.0
    tail_mass: float = 0.0
    max_rank: int = 0


@dataclass
class RunRecord:
    """Summary of one experiment; the unit consumed by the scaling-law fitter."""

    d_ft: int
    n_params: int
    final_task_loss: float
    pt_loss_before: float
    pt_loss_after: float
    mode: str
    seed: int
    task: str
    geometry_summary: GeometrySummary = field(default_factory=GeometrySummary)
    quadratic_forgetting_estimate: float | None = None

    @property
    def delta_pt_loss(self) -> float:
        return self.pt_loss_after - self.pt_loss_before

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1)


def write_atomic(path: str | Path, text: str) -> Path:
    """Replace the file at path with text: write a temp file beside it, then os.replace."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_record(record: RunRecord, run_dir: str | Path) -> Path:
    return write_atomic(Path(run_dir) / RECORD_NAME, record.to_json())


def read_record(run_dir: str | Path) -> RunRecord:
    path = Path(run_dir) / RECORD_NAME
    if not path.exists():
        raise ValidationError(f"no {RECORD_NAME} in {run_dir}")
    doc = json.loads(path.read_text())
    doc["geometry_summary"] = GeometrySummary(**doc["geometry_summary"])
    return RunRecord(**doc)


@dataclass
class RunManifest:
    run_id: str
    config_hash: str
    seed: int
    task: str
    created_at: str
    status: str = "running"

    @classmethod
    def create(cls, run_id: str, config_hash: str, seed: int, task: str) -> "RunManifest":
        return cls(
            run_id=run_id,
            config_hash=config_hash,
            seed=seed,
            task=task,
            created_at=datetime.now(timezone.utc).isoformat(),
        )


def write_manifest(manifest: RunManifest, run_dir: str | Path) -> Path:
    return write_atomic(
        Path(run_dir) / MANIFEST_NAME, json.dumps(asdict(manifest), sort_keys=True, indent=1)
    )


def read_manifest(run_dir: str | Path) -> RunManifest:
    path = Path(run_dir) / MANIFEST_NAME
    if not path.exists():
        raise ValidationError(f"no {MANIFEST_NAME} in {run_dir}")
    return RunManifest(**json.loads(path.read_text()))


# json.dumps(obj, sort_keys=True) without building an encoder per call
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True)


class JsonlWriter:
    """Line-per-object stream used for events, stats snapshots, update clouds and telemetry.

    The file is opened (and truncated) once. Each line is flushed before
    append returns, so the file on disk always ends in a whole line.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._file = open(self.path, "w")

    def append(self, obj: dict) -> None:
        self._file.write(_JSONL_ENCODER.encode(obj) + "\n")
        self._file.flush()

    def close(self) -> None:
        self._file.close()


def read_jsonl(path: str | Path) -> list[dict]:
    text = Path(path).read_text()
    return [json.loads(line) for line in text.splitlines() if line]
