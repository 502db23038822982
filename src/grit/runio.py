"""Run-directory artifacts: manifest, run record, and the auxiliary streams.

Layout of a completed run directory:

    config.cfg       resolved configuration (config_to_text), hashed into the manifest
    manifest.json    run id, config hash, seed, task, timestamp, status
    telemetry.jsonl  geometry stream (schema header + one object per step/layer)
    events.jsonl     accumulate / invert / reprojection / gate events, one object per line
    stats.jsonl      rank-space covariance snapshots at the accumulation cadence
    updates.jsonl    flattened per-layer update vectors for the PCA export
    checkpoint.json  final model (model.save_checkpoint)
    record.json      RunRecord summary
    audit/           the CSVs of `grit audit` (AUDIT_CSVS), once it has run

events.jsonl logs preconditioning once: Trainer._accumulate puts a
"precondition" event after the "invert" event of the step that makes the
last layer's first inverses; nothing clears the statistics, so it never
stops. A "sanitize" event {step, layer, count} marks a layer whose
preconditioned gradient had count non-finite entries, which were zeroed.

Every stored document (record, manifest, law fit, telemetry line) is built
by from_document, which checks each value's JSON kind, and read_record
checks the mode; checkpoint layers use check_value_types' declared form. So
a damaged file is a ValidationError, not a failure in a consumer. read_jsonl
and read_telemetry parse a whole stream in one json.loads (json_lines); only
a stream that fails it is read again line by line, to name the bad line.

The float arrays of stats.jsonl (a_cov, g_cov), updates.jsonl (delta_w,
1-D of length d_out * d_in) and checkpoint.json (each layer's w0, bias, a
and b, from format version 2) are written by encode_array as
{"shape": [...], "f64": base64 of the little-endian float64 bytes}, which
round-trips bit for bit; update_line and stats_line format a whole
updates.jsonl or stats.jsonl line without the JSON encoder, to the same
bytes. Read one with decode_array, or with
np.frombuffer(base64.b64decode(f64), "<f8").reshape(shape). decode_array
also reads the plain JSON lists of older run directories and of version-1
checkpoints.

Timestamps appear only in the manifest so that record and streams replay
byte-identically for a fixed config and seed. The manifest and record (and
the law fit) are written by write_json. The manifest, record and
checkpoint are replaced whole (write_atomic), so a run that dies mid-write
leaves the previous version, never a truncated file. Each .jsonl stream is
opened once per run, after the running manifest is written, flushed after
every append (an append may hold several lines) and closed on every exit
path, so a run that dies, even while opening its streams, leaves a failed
manifest and each stream ending in a whole line. telemetry.jsonl and
updates.jsonl take a block of telemetry steps per append
(trainer.TELEMETRY_BLOCK): when a block fills, after the step loop, and
when a run fails, before its streams close.
"""

from __future__ import annotations

import base64
import functools
import json
import os
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import GritConfig, declarations
from .errors import ValidationError

MANIFEST_NAME = "manifest.json"
RECORD_NAME = "record.json"
TELEMETRY_NAME = "telemetry.jsonl"
EVENTS_NAME = "events.jsonl"
STATS_NAME = "stats.jsonl"
UPDATES_NAME = "updates.jsonl"
CONFIG_NAME = "config.cfg"
CHECKPOINT_NAME = "checkpoint.json"
# grit audit's default output directory inside a run directory, and the CSVs
# it writes (cli.cmd_audit takes their names from here)
AUDIT_DIR = "audit"
AUDIT_CSVS = (
    "spectra.csv", "cumulative_energy.csv", "effective_rank.csv",
    "alignment.csv", "tail_mass.csv", "pca_updates.csv",
)


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
    """Summary of one experiment, the unit the law fitter consumes; final_task_loss is None when no step ran."""

    d_ft: int
    n_params: int
    final_task_loss: float | None
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


def write_json(path: str | Path, obj) -> Path:
    """Replace the file at path with obj as JSON, keys sorted and indented by one space."""
    return write_atomic(path, json.dumps(obj, sort_keys=True, indent=1))


def write_record(record: RunRecord, run_dir: str | Path) -> Path:
    return write_json(Path(run_dir) / RECORD_NAME, asdict(record))


def json_object(text: str, path: Path, line: int | None = None) -> dict:
    """The JSON object in text, read from path (at line); ValidationError naming them otherwise."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        problem = f"not valid JSON ({exc})"
    else:
        if isinstance(obj, dict):
            return obj
        problem = "not a JSON object"
    where = path if line is None else f"{path} line {line}"
    raise ValidationError(f"{where}: {problem}")


# declared field type -> (what a JSON value of it must be, the check); a bool is
# neither an integer nor a number, and a float such as 1.0 is not an integer
_NUMBERS = frozenset((float, int))
_VALUE_KINDS = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", lambda v: type(v) in _NUMBERS),
    "float | None": ("a number or null", lambda v: v is None or type(v) in _NUMBERS),
    "str": ("a string", lambda v: type(v) is str),
    "list[float]": ("a list of numbers", lambda v: type(v) is list and _NUMBERS.issuperset(map(type, v))),
    "list[str]": ("a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v)),
}
_MODES = declarations(GritConfig)["mode"].rules["one_of"]


@functools.cache
def _field_kinds(cls) -> tuple:
    return tuple(
        (f.name, *_VALUE_KINDS[f.type]) for f in fields(cls) if f.type in _VALUE_KINDS
    )


def check_value_types(obj, where: str, declared: dict[str, str] | None = None) -> None:
    """ValidationError naming where unless each value has the JSON kind _VALUE_KINDS gives its type.

    The values are the dataclass obj's fields (a nested dataclass is checked
    on its own) or, with declared ({key: type}), the dict obj's entries.
    """
    values = vars(obj) if declared is None else obj
    kinds = _field_kinds(type(obj)) if declared is None else [(k, *_VALUE_KINDS[t]) for k, t in declared.items()]
    for name, kind, check in kinds:
        value = values[name]
        if not check(value):
            raise ValidationError(f"{where}: {name} is {value!r}, not {kind}")


def from_document(cls, obj, where: str, what: str):
    """cls(**obj) with its values' kinds checked; ValidationError naming where (and what cls is) otherwise."""
    try:
        built = cls(**obj)
    except TypeError as exc:
        raise ValidationError(f"{where}: not a {what} ({exc})") from exc
    check_value_types(built, where)
    return built


def read_record(run_dir: str | Path) -> RunRecord:
    path = Path(run_dir) / RECORD_NAME
    if not path.exists():
        raise ValidationError(f"no {RECORD_NAME} in {run_dir}")
    doc = json_object(path.read_text(), path)
    # a missing summary reads as None, which is not an object
    doc["geometry_summary"] = from_document(GeometrySummary, doc.get("geometry_summary"), f"{path} geometry_summary", "run record")
    record = from_document(RunRecord, doc, str(path), "run record")
    if record.mode not in _MODES:
        raise ValidationError(f"{path}: mode is {record.mode!r}, not one of {_MODES}")
    return record


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
    return write_json(Path(run_dir) / MANIFEST_NAME, asdict(manifest))


def read_manifest(run_dir: str | Path) -> RunManifest:
    path = Path(run_dir) / MANIFEST_NAME
    if not path.exists():
        raise ValidationError(f"no {MANIFEST_NAME} in {run_dir}")
    return from_document(RunManifest, json_object(path.read_text(), path), str(path), "run manifest")


# json.dumps(obj, sort_keys=True) without building an encoder per call
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True)


def encode_array(array: np.ndarray) -> dict:
    """{"shape": [...], "f64": base64 of the array's little-endian float64 bytes}."""
    array = np.asarray(array, dtype="<f8")
    return {"shape": list(array.shape), "f64": base64.b64encode(array.tobytes()).decode("ascii")}


def _array_text(array: np.ndarray) -> str:
    """_JSONL_ENCODER.encode(encode_array(array)), without the encoder.

    The base64 payload is ASCII by construction, so it is written as it is,
    without the JSON string encoder's pass over it.
    """
    doc = encode_array(array)
    return f'{{"f64": "{doc["f64"]}", "shape": [{", ".join(map(str, doc["shape"]))}]}}'


def update_line(step: int, layer: int, delta: np.ndarray) -> str:
    """The updates.jsonl line of one layer's update delta, without its newline.

    Bitwise _JSONL_ENCODER.encode({"step": step, "layer": layer,
    "delta_w": encode_array(delta)}).
    """
    return f'{{"delta_w": {_array_text(delta)}, "layer": {layer}, "step": {step}}}'


def stats_line(step: int, layer: int, n_cov: int, a_cov: np.ndarray, g_cov: np.ndarray) -> str:
    """The stats.jsonl line of one layer's covariances, without its newline.

    Bitwise _JSONL_ENCODER.encode({"step": step, "layer": layer, "n_cov":
    n_cov, "a_cov": encode_array(a_cov), "g_cov": encode_array(g_cov)}),
    whatever the values: the arrays go out as their bytes.
    """
    return (
        f'{{"a_cov": {_array_text(a_cov)}, "g_cov": {_array_text(g_cov)}, '
        f'"layer": {layer}, "n_cov": {n_cov}, "step": {step}}}'
    )


def decode_array(value) -> np.ndarray:
    """The float64 array of an encode_array dict, bit for bit, or of a plain JSON list.

    A decoded dict gives a read-only view of the decoded bytes. Raises
    ValidationError when value is neither, or its bytes do not fill its shape.
    """
    try:
        if isinstance(value, list):
            return np.array(value, dtype=np.float64)
        array = np.frombuffer(base64.b64decode(value["f64"], validate=True), dtype="<f8")
        array = array.reshape(value["shape"])
    except (KeyError, TypeError, ValueError) as exc:  # bad base64 raises a ValueError
        raise ValidationError(f"not a float64 array: {exc}") from exc
    if array.shape != tuple(value["shape"]):  # reshape fills in a -1
        raise ValidationError(f"not a float64 array: shape {value['shape']}")
    return array


class JsonlWriter:
    """Line-per-object stream used for events, stats snapshots, update clouds and telemetry.

    The file is opened (and truncated) once. An append writes one line per
    object, with one write and one flush before it returns, so the file on
    disk always ends in a whole line. An object given as a str is taken to
    be its line already encoded (update_line, stats_line).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._file = open(self.path, "w")

    def append(self, *objs: dict | str) -> None:
        self._file.write(
            "".join((obj if type(obj) is str else _JSONL_ENCODER.encode(obj)) + "\n" for obj in objs)
        )
        self._file.flush()

    def close(self) -> None:
        self._file.close()


# Put between lines in the one parse of a stream: a value of its own, so each
# line boundary stays visible and an object split across lines is caught.
_LINE_BREAK = '"\\u0000"'


def json_lines(lines: list[str], path: Path, skip_blank: bool = False) -> Iterator[dict]:
    """The JSON object on each of lines (line 1 of path first), parsed in one json.loads.

    Blank lines are skipped when skip_blank is set and are bad lines
    otherwise. The lines are joined with _LINE_BREAK between them. Unless
    that parse gives objects and line breaks alternately, and no line holds
    _LINE_BREAK itself, the lines are parsed one at a time instead, so that
    json_object raises ValidationError naming path and the first bad line
    after everything before it has been yielded.
    """
    kept = list(filter(None, lines)) if skip_blank else lines
    text = "[" + f",{_LINE_BREAK},".join(kept) + "]"
    try:
        values = json.loads(text)
    except json.JSONDecodeError:
        values = []
    objects = values[::2]
    if (
        len(values) == 2 * len(kept) - 1
        and text.count(_LINE_BREAK) == len(kept) - 1
        and all(value == "\x00" for value in values[1::2])
        and all(type(obj) is dict for obj in objects)
    ):
        return iter(objects)
    return (
        json_object(line, path, number)
        for number, line in enumerate(lines, start=1)
        if line or not skip_blank
    )


def read_jsonl(path: str | Path) -> list[dict]:
    """The objects of a JSONL file, one per non-blank line.

    A line that is not a JSON object raises ValidationError naming the file
    and the line.
    """
    path = Path(path)
    return list(json_lines(path.read_text().splitlines(), path, skip_blank=True))
